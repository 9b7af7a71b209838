package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"qsmpi/internal/parsweep"
)

// figure is one entry of the registry: the ID of the Result it produces,
// the tool flag and value that select it (-fig 7, -table 1, -panel a,
// -ablate) and the plot that defines it.
type figure struct {
	id, flag, value string
	plot            func(Config) plot
}

// run sweeps the figure's plot.
func (f figure) run(c Config) *Result { return c.sweep(f.plot(c)) }

// registry lists every figure the tools print: the paper's nine panels in
// paper order, then the ablations. All, Ablations, Claims, cmd/elan4bench,
// cmd/ompibench and the identity matrix select from it; DESIGN.md §4 is
// checked against its IDs.
var registry = []figure{
	{"fig7a", "fig", "7", func(c Config) plot { return fig7(c, Fig7SmallSizes, "a") }},
	{"fig7b", "fig", "7", func(c Config) plot { return fig7(c, Fig7LargeSizes, "b") }},
	{"fig8", "fig", "8", func(c Config) plot { return fig8(c, Fig8Sizes) }},
	{"fig9", "fig", "9", func(c Config) plot { return fig9(c, Fig9Sizes) }},
	{"table1", "table", "1", table1},
	{"fig10a-latency", "panel", "a", func(c Config) plot { return fig10(c, Fig10SmallSizes, "a-latency", false) }},
	{"fig10b-latency", "panel", "b", func(c Config) plot { return fig10(c, Fig10LargeSizes, "b-latency", false) }},
	{"fig10c-bandwidth", "panel", "c", func(c Config) plot { return fig10(c, Fig10SmallSizes, "c-bandwidth", true) }},
	{"fig10d-bandwidth", "panel", "d", func(c Config) plot { return fig10(c, Fig10LargeSizes, "d-bandwidth", true) }},
	{"ablate-eager", "ablate", "true", ablationEager},
	{"ablate-multirail", "ablate", "true", ablationMultirail},
	{"ablate-fattree", "ablate", "true", ablationFatTree},
	{"ablate-qslots", "ablate", "true", ablationQueueSlots},
	{"ablate-hwbcast", "ablate", "true", ablationHWBcast},
}

// under returns the registry entries selected by one of flags, in registry
// order.
func under(flags ...string) []figure {
	var out []figure
	for _, f := range registry {
		if slices.Contains(flags, f.flag) {
			out = append(out, f)
		}
	}
	return out
}

// pick resolves a tool's command line against the registry. set holds the
// flags given, by name; those that select nothing in the registry are not
// its business. With no selection flag given, everything under the defaults
// flags is selected; with one, the entries carrying its value, and a value
// that names none is an error listing the ones that do; with several, an
// error.
func pick(set map[string]string, defaults ...string) ([]figure, error) {
	var given []string
	for _, f := range registry {
		if _, ok := set[f.flag]; ok && !slices.Contains(given, f.flag) {
			given = append(given, f.flag)
		}
	}
	if len(given) == 0 {
		return under(defaults...), nil
	}
	if len(given) > 1 {
		return nil, fmt.Errorf("-%s select different figures: give one", strings.Join(given, " and -"))
	}
	var out []figure
	var valid []string
	for _, f := range under(given[0]) {
		if f.value == set[f.flag] {
			out = append(out, f)
		}
		if !slices.Contains(valid, f.value) {
			valid = append(valid, f.value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s %s names nothing (valid: %s)", given[0], set[given[0]], strings.Join(valid, ", "))
	}
	return out, nil
}

// runAll regenerates figs in order.
func runAll(cfg Config, figs []figure) []*Result {
	out := make([]*Result, len(figs))
	for i, f := range figs {
		out[i] = f.run(cfg)
	}
	return out
}

// All regenerates every figure and table in paper order.
func All(cfg Config) []*Result { return runAll(cfg, under("fig", "table", "panel")) }

// Ablations runs every ablation.
func Ablations(cfg Config) []*Result { return runAll(cfg, under("ablate")) }

// Tool is the body of a figure tool (cmd/elan4bench, cmd/ompibench) once
// the tool has declared its own flags: it adds the shared -iters, -j,
// -stats and -csv, parses the command line, selects from the registry by
// whichever selection flag was set away from its default — without one,
// everything under the defaults flags — and prints each selected figure. A
// selection that names nothing exits 2 with the valid values named, before
// any simulation runs.
func Tool(defaults ...string) {
	iters := flag.Int("iters", 100, "timing iterations per point")
	workers := flag.Int("j", 0, "parallel sweep workers (0 = one per core)")
	stats := flag.Bool("stats", false, "print sweep-engine worker stats to stderr")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()
	set := map[string]string{}
	flag.Visit(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			set[f.Name] = v
		}
	})
	figs, err := pick(set, defaults...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
		os.Exit(2)
	}
	var st parsweep.Stats
	cfg := DefaultConfig().WithIters(*iters)
	cfg.Workers, cfg.Stats = *workers, &st
	for _, f := range figs {
		r := f.run(cfg)
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", r.ID, r.Title, r.CSV())
		} else {
			fmt.Println(r.Render())
		}
	}
	if *stats {
		fmt.Fprint(os.Stderr, st.String())
	}
}
