// Command quarclint runs the repository's own static-analysis pass: the
// syntactic checkers (determinism, hot-path purity, error discipline,
// registry hygiene) and the quarcflow dataflow checkers (pool lifetimes,
// RNG seed provenance, float fold order, shared package state) in
// internal/lint, over the packages matched by the given patterns
// (default ./...).
//
// Usage:
//
//	go run ./cmd/quarclint [-json] [-C dir] [-checkers csv] [-timing] [packages...]
//
// Exit status is 0 when the tree is clean, 1 when diagnostics were
// reported, and 2 when the analysis itself failed (unparseable source,
// toolchain errors, an unknown checker name). With -json the diagnostics
// are emitted as one JSON document on stdout — the machine-readable form
// CI uploads as an artifact on failure. -checkers restricts the run to a
// comma-separated subset of the registry; -timing reports per-checker
// wall time on stderr (or in the JSON document).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"quarc/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	dir := flag.String("C", ".", "run the analysis rooted at this directory")
	checkersFlag := flag.String("checkers", "", "comma-separated checkers to run (default all)")
	timing := flag.Bool("timing", false, "report per-checker wall time")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: quarclint [-json] [-C dir] [-checkers csv] [-timing] [packages...]\n\nCheckers: %v\n", lint.Checkers())
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	base, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quarclint: %v\n", err)
		os.Exit(2)
	}

	cfg := lint.DefaultConfig()
	cfg.BaseDir = base
	if *checkersFlag != "" {
		known := make(map[string]bool)
		for _, name := range lint.Checkers() {
			known[name] = true
		}
		for _, name := range strings.Split(*checkersFlag, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				fmt.Fprintf(os.Stderr, "quarclint: unknown checker %q (known: %s)\n", name, strings.Join(lint.Checkers(), ", "))
				os.Exit(2)
			}
			cfg.Checkers = append(cfg.Checkers, name)
		}
		if len(cfg.Checkers) == 0 {
			fmt.Fprintf(os.Stderr, "quarclint: -checkers named no checkers (known: %s)\n", strings.Join(lint.Checkers(), ", "))
			os.Exit(2)
		}
	}

	pkgs, err := lint.Load(base, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quarclint: %v\n", err)
		os.Exit(2)
	}
	report := lint.RunReport(pkgs, cfg)
	diags := report.Diagnostics

	if *jsonOut {
		doc := struct {
			Diagnostics []lint.Diagnostic    `json:"diagnostics"`
			Count       int                  `json:"count"`
			Timing      []lint.CheckerTiming `json:"timing,omitempty"`
		}{Diagnostics: diags, Count: len(diags)}
		if doc.Diagnostics == nil {
			doc.Diagnostics = []lint.Diagnostic{}
		}
		if *timing {
			doc.Timing = report.Timing
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "quarclint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if *timing {
			for _, t := range report.Timing {
				fmt.Fprintf(os.Stderr, "quarclint: %-16s %8.1fms\n", t.Checker, t.Millis)
			}
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "quarclint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}
