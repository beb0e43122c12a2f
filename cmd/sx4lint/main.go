// sx4lint checks the repository's determinism, layering and
// golden-stability invariants: eight custom analyzers over fully
// type-checked packages (see internal/analysis and DESIGN.md's
// "Static analysis" section), three of them interprocedural via
// facts threaded along the import graph.
//
// Usage:
//
//	sx4lint [packages]    # default ./...
//
// It loads the packages itself (via `go list -export`), analyzes them
// in one process and prints file:line:col diagnostics on stdout,
// exiting 1 if there are any and 2 if loading or analysis fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"sx4bench/internal/analysis"
	"sx4bench/internal/analysis/sx4lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sx4lint [packages]\n\nanalyzers:\n")
		for _, a := range sx4lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, sx4lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
