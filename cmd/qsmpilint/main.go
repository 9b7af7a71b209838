// Command qsmpilint runs the repo's invariant analyzers (internal/lint):
// detclock, maporder, kernelown, pooluse, tracecorr, reqlife and
// collorder, plus the //lint:allow suppression audit.
//
//	qsmpilint [-sarif|-json] [-o file] [-par N] ./...
//
// Packages are loaded through `go list -export` and sharded across
// GOMAXPROCS workers in dependency order, so interprocedural facts
// (collorder's CallsCollective) reach every dependent; `make lint` (folded
// into `make check`), the repo-is-clean meta-test and the nightly SARIF
// upload all drive this one form. _test.go files are not analyzed.
package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"qsmpi/internal/lint"
	"qsmpi/internal/lint/driver"
)

func main() {
	args := os.Args[1:]
	var (
		sarif   bool
		jsonOut bool
		outPath string
		par     = runtime.GOMAXPROCS(0)
	)
	var patterns []string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "help" || a == "-h" || a == "--help":
			usage()
			return
		case a == "-sarif":
			sarif = true
		case a == "-json":
			jsonOut = true
		case a == "-o":
			i++
			if i == len(args) {
				fatal("-o requires a file argument")
			}
			outPath = args[i]
		case strings.HasPrefix(a, "-o="):
			outPath = a[len("-o="):]
		case a == "-par":
			i++
			if i == len(args) {
				fatal("-par requires a worker count")
			}
			n, err := strconv.Atoi(args[i])
			if err != nil || n < 1 {
				fatal("-par requires a positive integer")
			}
			par = n
		case strings.HasPrefix(a, "-par="):
			n, err := strconv.Atoi(a[len("-par="):])
			if err != nil || n < 1 {
				fatal("-par requires a positive integer")
			}
			par = n
		case strings.HasPrefix(a, "-"):
			fatal("unknown flag %s (see qsmpilint help)", a)
		default:
			patterns = append(patterns, a)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := driver.CheckParallel(".", lint.Analyzers(), par, patterns...)
	if err != nil {
		fatal("%v", err)
	}

	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		out = f
	}
	switch {
	case sarif:
		root, _ := os.Getwd()
		data, err := driver.SARIF(findings, lint.Analyzers(), root)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(out, "%s\n", data)
	case jsonOut:
		data, err := driver.JSONReport(findings)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(out, "%s\n", data)
	default:
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		// SARIF mode is for CI report upload: the report itself is the
		// product, so producing one is success even when it has results —
		// the annotation surface decides what blocks. Text and -json modes
		// gate.
		if sarif && outPath != "" {
			return
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Println("qsmpilint checks the qsmpi determinism, ownership, pooling and MPI protocol invariants.")
	fmt.Println("\nusage: qsmpilint [-sarif|-json] [-o file] [-par N] [packages]    (default ./...)")
	fmt.Println("\nflags:")
	fmt.Println("  -sarif     emit a SARIF 2.1.0 report (stdout, or -o file)")
	fmt.Println("  -json      emit findings as a JSON array")
	fmt.Println("  -o file    write the report to file instead of stdout")
	fmt.Println("  -par N     shard package analysis across N workers (default GOMAXPROCS)")
	fmt.Println("\nanalyzers:")
	for _, a := range lint.Analyzers() {
		fmt.Printf("  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Println("\nsuppress a finding with //lint:allow <analyzer> <reason> on or above the line.")
	fmt.Println("unused or unknown //lint:allow directives are flagged by the suppression audit.")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qsmpilint: "+format+"\n", args...)
	os.Exit(1)
}
