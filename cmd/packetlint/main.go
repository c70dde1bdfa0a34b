// Command packetlint runs the repro determinism lint suite — detcore,
// snapcover, rngflow, mapemit (see internal/analyzers) — over Go
// packages:
//
//	packetlint ./...
//
// It loads packages itself (via go list + export data) and needs no
// toolchain integration.
//
// Exit status: 0 clean, 1 usage/load error, 2 diagnostics found.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("packetlint", flag.ContinueOnError)
	runList := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	dir := fs.String("dir", ".", "directory to resolve package patterns in")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		for _, a := range analyzers.Suite() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	suite, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "packetlint:", err)
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyzers.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "packetlint:", err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		findings, err := analyzers.RunAnalyzers(pkg, suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "packetlint:", err)
			return 1
		}
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
			exit = 2
		}
	}
	return exit
}

func selectAnalyzers(runList string) ([]*analyzers.Analyzer, error) {
	if runList == "" {
		return analyzers.Suite(), nil
	}
	var suite []*analyzers.Analyzer
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		a := analyzers.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		suite = append(suite, a)
	}
	return suite, nil
}
