// Command qsmpilint runs the repo's invariant analyzers (internal/lint):
// detclock, maporder, kernelown, ownership, tracecorr and collorder,
// plus the //lint:allow suppression audit.
//
//	qsmpilint [-sarif [-o file]] [packages]    (default ./...)
//
// Packages are loaded through `go list -export` and checked GOMAXPROCS at
// a time, each after its imports, so the table of collective entry points
// collorder builds for a package reaches every dependent. `make lint` (folded
// into `make check`) runs the text form, which prints findings on stderr
// and exits 1 if there are any; `make lint-sarif` writes the report the
// nightly CI uploads. _test.go files are not analyzed. A flag it does not
// know, or -o without -sarif, exits 2 before anything is loaded.
package main

import (
	"flag"
	"fmt"
	"os"

	"qsmpi/internal/lint"
	"qsmpi/internal/lint/driver"
)

func main() {
	sarif := flag.Bool("sarif", false, "emit a SARIF 2.1.0 report on stdout, or in the -o file")
	out := flag.String("o", "", "with -sarif, write the report to `file`")
	flag.Usage = usage
	flag.Parse()
	if *out != "" && !*sarif {
		fmt.Fprintln(os.Stderr, "qsmpilint: -o needs -sarif (findings in text form go to stderr)")
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := driver.Check(".", lint.Analyzers(), patterns...)
	if err != nil {
		fatal(err)
	}
	if !*sarif {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}

	root, _ := os.Getwd()
	data, err := driver.SARIF(findings, lint.Analyzers(), root)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Printf("%s\n", data)
		if len(findings) > 0 {
			os.Exit(1)
		}
		return
	}
	// A report written for CI upload is the product: producing one is
	// success even when it has results, and the annotation surface
	// decides what blocks.
	if err := os.WriteFile(*out, append(data, '\n'), 0o666); err != nil {
		fatal(err)
	}
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "qsmpilint checks the qsmpi determinism, ownership, pooling and MPI protocol invariants.")
	fmt.Fprintln(w, "\nusage: qsmpilint [-sarif [-o file]] [packages]    (default ./...)")
	flag.PrintDefaults()
	fmt.Fprintln(w, "\nanalyzers:")
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintln(w, "\nsuppress a finding with //lint:allow <analyzer> <reason> on or above the line.")
	fmt.Fprintln(w, "unused or unknown //lint:allow directives are flagged by the suppression audit.")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qsmpilint: %v\n", err)
	os.Exit(1)
}
