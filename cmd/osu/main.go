// Command osu is an OSU-microbenchmark-style driver over the public qsmpi
// API: latency (ping-pong), bw (windowed streaming bandwidth), bibw
// (bidirectional bandwidth) and mr (small-message rate) between two ranks
// of the simulated cluster.
//
// Usage:
//
//	osu -bench latency
//	osu -bench bw -window 64
//	osu -bench bibw
//	osu -bench mr -size 8
//	osu -bench latency -scheme write -threads 1
//	osu -bench bw -j 8                # shard the size sweep over 8 workers
//
// Each message size is an independent simulation, so -j shards the sweep
// across cores; the printed table is identical at any -j.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"qsmpi"
	"qsmpi/internal/parsweep"
)

var sizes = []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
	4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576}

var schemes = map[string]qsmpi.Scheme{"read": qsmpi.RDMARead, "write": qsmpi.RDMAWrite}

// usage reports a flag value that names nothing or cannot run and exits
// before anything is simulated.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "osu: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	bench := flag.String("bench", "latency", "latency | bw | bibw | mr")
	window := flag.Int("window", 64, "outstanding messages for bw/bibw")
	iters := flag.Int("iters", 100, "iterations per size")
	mrSize := flag.Int("size", 8, "message size for mr and for the -trace/-metrics instrumented exchange")
	scheme := flag.String("scheme", "read", "rendezvous scheme: read | write")
	threads := flag.Int("threads", 0, "progress threads (0, 1, 2)")
	workers := flag.Int("j", 0, "parallel sweep workers (0 = one per core)")
	traceOut := flag.String("trace", "", "also write a Perfetto trace of one instrumented exchange (at -size bytes) to this file")
	metrics := flag.Bool("metrics", false, "also print cross-layer metrics of one instrumented exchange (at -size bytes)")
	breakdown := flag.Bool("breakdown", false, "also print the phase decomposition and critical path of one instrumented exchange (at -size bytes)")
	flag.Parse()
	sch, ok := schemes[*scheme]
	cfg := qsmpi.Config{Procs: 2, Scheme: sch, ProgressThreads: *threads}
	err := cfg.Validate()
	switch {
	case !ok:
		usage("-scheme %s names nothing (valid: read, write)", *scheme)
	case *mrSize < 0:
		usage("-size %d is negative (valid: 0 or more bytes)", *mrSize)
	case *iters < 1:
		usage("-iters %d measures nothing (valid: 1 or more)", *iters)
	case *window < 1:
		usage("-window %d sends nothing (valid: 1 or more)", *window)
	case err != nil:
		usage("-threads %d: %v", *threads, err)
	}

	// sweep measures every size as an independent job across the worker
	// pool and prints the rows in size order.
	sweep := func(sz []int, measure func(n int) float64) {
		vals := parsweep.Map(*workers, len(sz), func(i int) float64 { return measure(sz[i]) })
		for i, n := range sz {
			fmt.Printf("%-10d %12.2f\n", n, vals[i])
		}
	}

	switch *bench {
	case "latency":
		fmt.Printf("# OSU-style latency (us), scheme=%s threads=%d\n%-10s %12s\n", *scheme, *threads, "bytes", "latency")
		sweep(sizes, func(n int) float64 { return latency(cfg, n, pickIters(*iters, n)) })
	case "bw":
		fmt.Printf("# OSU-style bandwidth (MB/s), window=%d\n%-10s %12s\n", *window, "bytes", "MB/s")
		sweep(sizes[1:], func(n int) float64 { return bandwidth(cfg, n, *window, pickIters(*iters/4+1, n), false) })
	case "bibw":
		fmt.Printf("# OSU-style bidirectional bandwidth (MB/s), window=%d\n%-10s %12s\n", *window, "bytes", "MB/s")
		sweep(sizes[1:], func(n int) float64 { return bandwidth(cfg, n, *window, pickIters(*iters/4+1, n), true) })
	case "mr":
		rate := messageRate(cfg, *mrSize, *iters*10)
		fmt.Printf("# OSU-style message rate: %.0f msgs/s at %d bytes\n", rate, *mrSize)
	default:
		usage("-bench %s names nothing (valid: latency, bw, bibw, mr)", *bench)
	}

	if *traceOut != "" || *metrics || *breakdown {
		// One additional sequential exchange with full-stack observability;
		// the benchmark numbers above are measured without any tracer.
		ob, err := qsmpi.RunObserved(cfg, 0, func(w *qsmpi.World) {
			pingPong(w, make([]byte, *mrSize), qsmpi.Contiguous(*mrSize))
		})
		if err != nil {
			log.Fatal(err)
		}
		if *metrics {
			fmt.Printf("\n# instrumented exchange (%d bytes): cross-layer metrics\n%s", *mrSize, ob.Metrics)
		}
		if *breakdown {
			fmt.Printf("\n# instrumented exchange (%d bytes): phase decomposition\n%s\n%s", *mrSize, ob.Breakdown, ob.Critical)
		}
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, ob.Perfetto, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nwrote Perfetto trace to %s (load at ui.perfetto.dev)\n", *traceOut)
		}
	}
}

// pickIters trims iteration counts for large messages.
func pickIters(base, size int) int {
	switch {
	case size >= 1<<19:
		return max(5, base/10)
	case size >= 1<<16:
		return max(10, base/4)
	}
	return base
}

// run executes body on both ranks and dies on a simulation error.
func run(cfg qsmpi.Config, body func(w *qsmpi.World, c *qsmpi.Comm)) {
	if err := qsmpi.Run(cfg, func(w *qsmpi.World) { body(w, w.Comm()) }); err != nil {
		log.Fatal(err)
	}
}

// pingPong is one round trip: rank 0 sends on tag 0 and waits for tag 1,
// rank 1 answers.
func pingPong(w *qsmpi.World, buf []byte, dt *qsmpi.Datatype) {
	c := w.Comm()
	if w.Rank() == 0 {
		c.Send(1, 0, buf, dt)
		c.Recv(1, 1, buf, dt)
	} else {
		c.Recv(0, 0, buf, dt)
		c.Send(0, 1, buf, dt)
	}
}

// latency measures the mean half round trip in microseconds.
func latency(cfg qsmpi.Config, n, iters int) float64 {
	var total float64
	run(cfg, func(w *qsmpi.World, _ *qsmpi.Comm) {
		buf := make([]byte, n)
		dt := qsmpi.Contiguous(n)
		for i := 0; i < iters; i++ {
			start := w.NowMicros()
			pingPong(w, buf, dt)
			if w.Rank() == 0 {
				total += w.NowMicros() - start
			}
		}
	})
	return total / float64(iters) / 2
}

// bandwidth measures windowed streaming bandwidth in MB/s; bidirectional
// runs the window both ways simultaneously.
func bandwidth(cfg qsmpi.Config, n, window, iters int, bidir bool) float64 {
	var elapsed float64
	run(cfg, func(w *qsmpi.World, c *qsmpi.Comm) {
		dt := qsmpi.Contiguous(n)
		buf := make([]byte, n)
		peer := 1 - w.Rank()
		start := w.NowMicros()
		for it := 0; it < iters; it++ {
			var reqs []*qsmpi.Request
			if w.Rank() == 0 || bidir {
				for k := 0; k < window; k++ {
					reqs = append(reqs, c.Isend(peer, k, buf, dt))
				}
			}
			if w.Rank() == 1 || bidir {
				for k := 0; k < window; k++ {
					reqs = append(reqs, c.Irecv(peer, k, make([]byte, n), dt))
				}
			}
			for _, r := range reqs {
				r.Wait()
			}
			// Window-completion token.
			if w.Rank() == 0 {
				c.RecvBytes(1, 1<<20, make([]byte, 1))
			} else {
				c.SendBytes(0, 1<<20, []byte{1})
			}
		}
		if w.Rank() == 0 {
			elapsed = w.NowMicros() - start
		}
	})
	bytesMoved := float64(n) * float64(window) * float64(iters)
	if bidir {
		bytesMoved *= 2
	}
	return bytesMoved / elapsed // bytes/us == MB/s
}

// messageRate measures small-message throughput in messages/second.
func messageRate(cfg qsmpi.Config, n, count int) float64 {
	var elapsed float64
	run(cfg, func(w *qsmpi.World, c *qsmpi.Comm) {
		dt := qsmpi.Contiguous(n)
		buf := make([]byte, n)
		start := w.NowMicros()
		var reqs []*qsmpi.Request
		for i := 0; i < count; i++ {
			if w.Rank() == 0 {
				reqs = append(reqs, c.Isend(1, 0, buf, dt))
			} else {
				reqs = append(reqs, c.Irecv(0, 0, make([]byte, n), dt))
			}
		}
		for _, r := range reqs {
			r.Wait()
		}
		if w.Rank() == 0 {
			c.RecvBytes(1, 1, make([]byte, 1))
			elapsed = w.NowMicros() - start
		} else {
			c.SendBytes(0, 1, []byte{1})
		}
	})
	return float64(count) / (elapsed / 1e6)
}
