// Package lint implements quarclint, the repo's own static-analysis
// pass. It machine-checks the invariants the simulator's guarantees rest
// on — bitwise-deterministic replications, record/replay fidelity,
// content-addressed cache hits that are pure memoization, 0-allocs/op
// hot paths — at the source level, so a regression is a build failure
// rather than a reviewer catch or a flaky golden diff.
//
// Eight checkers run over every loaded package. Four are syntactic
// passes:
//
//   - determinism: packages on the simulation result path may not import
//     "time" or "math/rand", may not call package-level math/rand/v2
//     functions (seeded PCG instances only), may not range over maps
//     without sorting, spawn goroutines, or select over multiple ready
//     channels.
//   - hotpath: functions marked //quarc:hotpath — and the pinned
//     0-allocs/op bench list must be so marked — may not call fmt,
//     build heap-escaping or slice/map composite literals, box
//     non-pointer values into interfaces, or capture closures.
//   - errdiscipline: sentinel errors are compared with errors.Is, never
//     ==/!=, and fmt.Errorf wraps error operands with %w, never %v.
//   - registryhygiene: registry names are lowercase, registration
//     happens in init or package-level var declarations, and every
//     map-derived enumeration is sorted before it is returned.
//
// Four more — the quarcflow layer — run a forward may-analysis over
// per-function control-flow graphs (cfg.go, dataflow.go):
//
//   - poollifetime: a value that flowed into a free-list put (the
//     wormhole worm/message pools, sync.Pool.Put) may not be read,
//     written through, or scheduled afterward in the same function.
//   - rngprovenance: every generator a determinism package seeds must
//     take its seed from data flowing out of a function parameter —
//     never a package-level var or a bare literal.
//   - floatorder: no float accumulation inside a loop ranging a map or
//     a slice collected from a map without sorting.
//   - sharedstate: a package-level var that a determinism package
//     mutates at runtime without a //quarcflow:shared justification is a
//     finding (concurrent sweep and replication workers share it).
//
// A finding can be silenced case by case with a trailing
// "//quarclint:ignore <checker> <reason>" comment on the offending line;
// the reason is mandatory so the waiver documents itself.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, addressed by file position. File is
// relative to the Config.BaseDir the run was rooted at, so output is
// stable across machines.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Checker string `json:"checker"`
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Checker, d.Message)
}

// Config selects which packages each checker applies to. The zero value
// runs the universally applicable checkers (errdiscipline,
// registryhygiene) everywhere and the scoped ones nowhere.
type Config struct {
	// BaseDir is the directory diagnostics' file paths are made relative
	// to (typically the module root).
	BaseDir string
	// DeterminismPackages lists the import paths whose source must be
	// free of nondeterminism: everything reachable from a simulation
	// Result.
	DeterminismPackages []string
	// Hotpaths maps a package import path to the functions the
	// 0-allocs/op benchmarks pin ("Engine.run", "geometric"): each must
	// carry the //quarc:hotpath directive, and no function outside the
	// list may carry it — the directive placement is itself checked.
	Hotpaths map[string][]string
	// Checkers restricts the run to the named checkers; empty means all.
	// Names must come from Checkers() — the caller validates.
	Checkers []string
}

// DefaultConfig returns the repository's enforced invariant surface: the
// determinism closure named in ISSUE 6 and the hot-path list pinned by
// TestSteadyStateEventLoopAllocFree, TestArrivalAndDestAllocFree and
// TestNoopHookSteadyStateAllocFree.
func DefaultConfig() Config {
	return Config{
		DeterminismPackages: []string{
			"quarc/internal/routing",
			"quarc/internal/sim",
			"quarc/internal/stats",
			"quarc/internal/traffic",
			"quarc/internal/wormhole",
		},
		Hotpaths: defaultHotpaths(),
	}
}

func (c *Config) isDeterminism(path string) bool {
	for _, p := range c.DeterminismPackages {
		if path == p {
			return true
		}
	}
	return false
}

// checker is one analysis pass. Checkers are pure functions of a loaded
// package; they report findings through the context and never mutate it.
type checker struct {
	name string
	doc  string
	run  func(cx *context)
}

// checkers holds every pass, sorted by name — the registry the linter
// itself is subject to.
var checkers = []checker{
	{"determinism", "no wall clocks, global RNGs, map-order or goroutine nondeterminism on the result path", checkDeterminism},
	{"errdiscipline", "sentinel errors compared with errors.Is and wrapped with %w", checkErrDiscipline},
	{"floatorder", "no float accumulation in map-ordered loops (directly or via unsorted collected slices)", checkFloatOrder},
	{"hotpath", "//quarc:hotpath functions stay fmt-free, closure-free and allocation-free", checkHotpath},
	{"poollifetime", "values returned to a free list are dead: no later read, write or schedule", checkPoolLifetime},
	{"registryhygiene", "lowercase registry names, init-time registration, sorted enumerations", checkRegistryHygiene},
	{"rngprovenance", "every generator seed on the result path data-flows from the replication seed parameter", checkRNGProvenance},
	{"sharedstate", "runtime-mutated package-level vars on the result path carry a //quarcflow:shared reason", checkSharedState},
}

// Checkers returns the checker names, sorted.
func Checkers() []string {
	names := make([]string, 0, len(checkers))
	for _, c := range checkers {
		names = append(names, c.name)
	}
	sort.Strings(names)
	return names
}

// context carries one (package, checker) pass's state.
type context struct {
	pkg  *Package
	cfg  *Config
	name string
	out  *[]Diagnostic
}

func (cx *context) reportf(pos token.Pos, format string, args ...any) {
	p := cx.pkg.Fset.Position(pos)
	file := p.Filename
	if cx.cfg.BaseDir != "" {
		if rel, err := filepath.Rel(cx.cfg.BaseDir, file); err == nil {
			file = filepath.ToSlash(rel)
		}
	}
	*cx.out = append(*cx.out, Diagnostic{
		File:    file,
		Line:    p.Line,
		Col:     p.Column,
		Checker: cx.name,
		Message: fmt.Sprintf(format, args...),
	})
}

// typeOf resolves an expression's type, or nil.
func (cx *context) typeOf(e ast.Expr) types.Type { return cx.pkg.TypesInfo.TypeOf(e) }

// CheckerTiming records one checker's cumulative wall time across all
// packages of a run.
type CheckerTiming struct {
	Checker string  `json:"checker"`
	Millis  float64 `json:"millis"`
}

// Report is the full result of one linter run.
type Report struct {
	// Diagnostics are the surviving findings, sorted by position.
	Diagnostics []Diagnostic
	// Timing lists per-checker wall time in registry order.
	Timing []CheckerTiming
}

// Run executes every checker over every package and returns the
// surviving findings sorted by position. Findings on a line carrying a
// matching //quarclint:ignore directive are dropped.
func Run(pkgs []*Package, cfg Config) []Diagnostic {
	return RunReport(pkgs, cfg).Diagnostics
}

// RunReport executes the configured checkers (all of them when
// cfg.Checkers is empty) over every package and returns the diagnostics
// together with per-checker timing.
func RunReport(pkgs []*Package, cfg Config) Report {
	selected := checkers
	if len(cfg.Checkers) > 0 {
		want := make(map[string]bool, len(cfg.Checkers))
		for _, name := range cfg.Checkers {
			want[name] = true
		}
		selected = nil
		for _, c := range checkers {
			if want[c.name] {
				selected = append(selected, c)
			}
		}
	}
	var diags []Diagnostic
	elapsed := make(map[string]time.Duration, len(selected))
	for _, pkg := range pkgs {
		for _, c := range selected {
			start := time.Now()
			c.run(&context{pkg: pkg, cfg: &cfg, name: c.name, out: &diags})
			elapsed[c.name] += time.Since(start)
		}
		diags = filterIgnored(pkg, &cfg, diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Checker < b.Checker
	})
	timing := make([]CheckerTiming, 0, len(selected))
	for _, c := range selected {
		timing = append(timing, CheckerTiming{Checker: c.name, Millis: float64(elapsed[c.name]) / float64(time.Millisecond)})
	}
	return Report{Diagnostics: diags, Timing: timing}
}

// hotpathDirective marks a function as a pinned allocation-free hot
// path; ignoreDirective waives one checker on one line.
const (
	hotpathDirective = "//quarc:hotpath"
	ignoreDirective  = "//quarclint:ignore"
)

// hasHotpathDirective reports whether the function's doc comment carries
// the //quarc:hotpath directive.
func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// ignoreSpec is one parsed //quarclint:ignore directive.
type ignoreSpec struct {
	checker string
	reason  string
}

// parseIgnore parses "//quarclint:ignore <checker> <reason>"; ok is
// false for comments that are not ignore directives at all.
func parseIgnore(text string) (spec ignoreSpec, ok bool, err error) {
	if !strings.HasPrefix(text, ignoreDirective) {
		return ignoreSpec{}, false, nil
	}
	rest := strings.TrimPrefix(text, ignoreDirective)
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return ignoreSpec{}, true, fmt.Errorf("malformed %s: need a checker name and a reason", ignoreDirective)
	}
	name := fields[0]
	known := false
	for _, c := range checkers {
		if c.name == name {
			known = true
			break
		}
	}
	if !known {
		return ignoreSpec{}, true, fmt.Errorf("unknown checker %q in %s (known: %s)", name, ignoreDirective, strings.Join(Checkers(), ", "))
	}
	return ignoreSpec{checker: name, reason: strings.Join(fields[1:], " ")}, true, nil
}

// filterIgnored drops this package's diagnostics that are waived by an
// ignore directive on the same line. Malformed directives are themselves
// diagnostics: a waiver without a reason, or naming an unknown checker,
// fails the run instead of silently ignoring nothing.
func filterIgnored(pkg *Package, cfg *Config, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
	}
	ignores := make(map[key]map[string]bool)
	cx := &context{pkg: pkg, cfg: cfg, name: "directive", out: &diags}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				spec, isIgnore, err := parseIgnore(c.Text)
				if !isIgnore {
					continue
				}
				if err != nil {
					cx.reportf(c.Pos(), "%v", err)
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				k := key{file: p.Filename, line: p.Line}
				if ignores[k] == nil {
					ignores[k] = make(map[string]bool)
				}
				ignores[k][spec.checker] = true
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		abs := d.File
		if cfg.BaseDir != "" && !filepath.IsAbs(abs) {
			abs = filepath.Join(cfg.BaseDir, filepath.FromSlash(d.File))
		}
		if ignores[key{file: abs, line: d.Line}][d.Checker] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
