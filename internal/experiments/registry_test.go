package experiments

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// byID returns the registry entry of a figure ID.
func byID(id string) figure {
	i := slices.IndexFunc(registry, func(f figure) bool { return f.id == id })
	if i < 0 {
		panic("experiments: no figure " + id)
	}
	return registry[i]
}

// TestRegistrySelection drives pick the way the tools' flags do.
func TestRegistrySelection(t *testing.T) {
	elan4, ompi := []string{"fig", "table"}, []string{"panel"}
	for _, tc := range []struct {
		name     string
		set      map[string]string
		defaults []string
		want     string // IDs in order, or "error: " and a fragment of the message
	}{
		{"elan4bench", nil, elan4, "fig7a fig7b fig8 fig9 table1"},
		{"elan4bench -iters 5 -j 1", map[string]string{"iters": "5", "j": "1"}, elan4, "fig7a fig7b fig8 fig9 table1"},
		{"elan4bench -fig 7", map[string]string{"fig": "7"}, elan4, "fig7a fig7b"},
		{"elan4bench -fig 8", map[string]string{"fig": "8"}, elan4, "fig8"},
		{"elan4bench -fig 9", map[string]string{"fig": "9"}, elan4, "fig9"},
		{"elan4bench -table 1", map[string]string{"table": "1"}, elan4, "table1"},
		{"elan4bench -ablate", map[string]string{"ablate": "true"}, elan4,
			"ablate-eager ablate-multirail ablate-fattree ablate-qslots ablate-hwbcast"},
		{"elan4bench -fig 1", map[string]string{"fig": "1"}, elan4, "error: valid: 7, 8, 9"},
		{"elan4bench -fig 10", map[string]string{"fig": "10"}, elan4, "error: valid: 7, 8, 9"},
		{"elan4bench -table 2", map[string]string{"table": "2"}, elan4, "error: valid: 1"},
		{"elan4bench -fig 7 -table 1", map[string]string{"fig": "7", "table": "1"}, elan4, "error: -fig and -table"},
		{"elan4bench -ablate -fig 7", map[string]string{"ablate": "true", "fig": "7"}, elan4, "error: -fig and -ablate"},
		{"ompibench", nil, ompi, "fig10a-latency fig10b-latency fig10c-bandwidth fig10d-bandwidth"},
		{"ompibench -panel a", map[string]string{"panel": "a"}, ompi, "fig10a-latency"},
		{"ompibench -panel b", map[string]string{"panel": "b"}, ompi, "fig10b-latency"},
		{"ompibench -panel c", map[string]string{"panel": "c"}, ompi, "fig10c-bandwidth"},
		{"ompibench -panel d", map[string]string{"panel": "d"}, ompi, "fig10d-bandwidth"},
		{"ompibench -panel abc", map[string]string{"panel": "abc"}, ompi, "error: valid: a, b, c, d"},
	} {
		figs, err := pick(tc.set, tc.defaults...)
		var ids []string
		for _, f := range figs {
			ids = append(ids, f.id)
		}
		got := strings.Join(ids, " ")
		if err != nil {
			got = "error: " + err.Error()
		}
		if frag, isErr := strings.CutPrefix(tc.want, "error: "); isErr && err != nil && strings.Contains(got, frag) {
			continue
		}
		if got != tc.want {
			t.Errorf("%s: selected %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestRegistryIDs: each entry produces the Result it is registered as, All
// is the paper's nine panels in paper order, and DESIGN.md §4 names exactly
// the registry's IDs.
func TestRegistryIDs(t *testing.T) {
	cfg := Config{Iters: 1, Warmup: 1}
	var ids []string
	for _, f := range registry {
		if r := f.run(cfg); r.ID != f.id {
			t.Errorf("registered as %q, produces %q", f.id, r.ID)
		}
		ids = append(ids, f.id)
	}
	if all := under("fig", "table", "panel"); len(all) != 9 || all[8].id != ids[8] {
		t.Errorf("All selects %d entries ending at %q, want the registry's first nine", len(all), all[len(all)-1].id)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(design), "\n## 4. ")
	section, _, _ := strings.Cut(rest, "\n## 5. ")
	var documented []string
	for _, m := range regexp.MustCompile("`((?:fig|table|ablate-)[a-z0-9-]+)`").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	if got, want := strings.Join(documented, " "), strings.Join(ids, " "); got != want {
		t.Errorf("DESIGN.md §4 lists the IDs %q, the registry has %q", got, want)
	}
}

// TestExperimentsDocMatches: every numeric row of the Fig. 7/8/9/10 and
// Table 1 tables of EXPERIMENTS.md is a row of the figure as the documented
// commands (the tools' default 100 iterations) regenerate it, each cell to
// the decimals the document prints. When it fails the document is what gets
// fixed.
func TestExperimentsDocMatches(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	results := All(DefaultConfig())
	// agrees: the document's cell is v at the cell's own precision.
	agrees := func(cell string, v float64) bool {
		_, frac, _ := strings.Cut(cell, ".")
		return fmt.Sprintf("%.*f", len(frac), v) == cell
	}
	var figs []*Result // the panels of the section being read
	rows := 0
	for n, line := range strings.Split(string(doc), "\n") {
		if head, ok := strings.CutPrefix(line, "## "); ok {
			// "Fig. 10 — Overall" selects fig10a-latency … fig10d-bandwidth.
			words := strings.Fields(head + " -")
			id := strings.ToLower(strings.TrimSuffix(words[0], ".")) + words[1]
			figs = nil
			for _, r := range results {
				if rest, ok := strings.CutPrefix(r.ID, id); ok && (rest == "" || rest[0] < '0' || rest[0] > '9') {
					figs = append(figs, r)
				}
			}
			continue
		}
		if figs == nil || !strings.HasPrefix(line, "| ") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "| "), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		found := false
		if x, err := strconv.Atoi(cells[0]); err == nil {
			// | bytes | one cell per series, in series order |
			for _, r := range figs {
				ok := len(cells)-1 == len(r.Series)
				for i := 0; ok && i < len(r.Series); i++ {
					ok = false
					for _, p := range r.Series[i].Points {
						ok = ok || p.Size == x && agrees(cells[i+1], p.Value)
					}
				}
				found = found || ok
			}
		} else if len(cells) == 5 && figs[0].ID == "table1" && cells[0] != "config" {
			// | config | paper 4 B | measured 4 B | paper 4 KB | measured 4 KB |
			s := byName(figs[0], cells[0])
			found = agrees(cells[2], at(s, 4)) && agrees(cells[4], at(s, 4096))
		} else {
			continue // a header or a separator
		}
		rows++
		if !found {
			t.Errorf("EXPERIMENTS.md:%d: no regenerated row agrees with %s", n+1, line)
		}
	}
	if rows < 26 {
		t.Errorf("only %d numeric rows found in EXPERIMENTS.md: the tables moved or the parser lost them", rows)
	}
}
