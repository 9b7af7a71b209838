// Multirail: the paper's multi-network concurrency objective (§3) in
// action — one large message is striped by the PML scheduler across the
// Quadrics/Elan4 rail (RDMA writes) and the TCP/IP rail (in-band
// fragments) simultaneously, then reassembled at the receiver. The example
// prints when the send and the verified receive completed.
//
//	go run ./examples/multirail
package main

import (
	"bytes"
	"fmt"
	"log"

	"qsmpi"
)

func main() {
	cfg := qsmpi.Config{
		Procs:     2,
		Scheme:    qsmpi.RDMAWrite, // under the read scheme the receiver pulls everything over Quadrics
		EnableTCP: true,
		TCPWeight: 0.15, // gigabit Ethernet next to QsNetII
	}
	const n = 4 << 20
	err := qsmpi.Run(cfg, func(w *qsmpi.World) {
		c := w.Comm()
		if w.Rank() == 0 {
			msg := make([]byte, n)
			for i := range msg {
				msg[i] = byte(i * 31)
			}
			start := w.NowMicros()
			c.SendBytes(1, 0, msg)
			w.Logf("sent %d MB in %.1f virtual us", n>>20, w.NowMicros()-start)
		} else {
			buf := make([]byte, n)
			c.RecvBytes(0, 0, buf)
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i * 31)
			}
			if !bytes.Equal(buf, want) {
				log.Fatal("multirail: striped message corrupted")
			}
			w.Logf("received and verified %d MB", n>>20)
		}
		c.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("multirail: ok — one message crossed two physical networks")
}
