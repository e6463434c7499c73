package lint

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Run executes every checker over every package and returns the
// surviving findings sorted by position. Findings on a line carrying a
// matching //quarclint:ignore directive are dropped.
func Run(pkgs []*Package, cfg Config) []Diagnostic {
	return RunReport(pkgs, cfg).Diagnostics
}

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current checker output")

// loadCorpus loads the quarclint.example fixture module under
// testdata/src and runs every checker over it with the fixture config.
func loadCorpus(t *testing.T) Report {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture corpus: %v", err)
	}
	cfg := Config{
		BaseDir:             dir,
		DeterminismPackages: []string{"quarclint.example/det", "quarclint.example/rng", "quarclint.example/shared"},
		Hotpaths: map[string][]string{
			"quarclint.example/hot": {"Cold", "Hot", "Missing"},
		},
	}
	return RunReport(pkgs, cfg)
}

// TestCorpusGolden pins the exact diagnostics the fixture corpus must
// produce: every checker's positives fire at the expected file:line:col,
// and none of the deliberately clean idioms are flagged. Regenerate with
//
//	go test ./internal/lint -run TestCorpusGolden -update
func TestCorpusGolden(t *testing.T) {
	report := loadCorpus(t)
	var b strings.Builder
	for _, d := range report.Diagnostics {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("corpus diagnostics diverge from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestCorpusCoverage guards the golden file itself: every checker must
// fire at least once on the corpus, and the waived line must not appear.
// A golden regenerated from a broken checker cannot silently pass.
func TestCorpusCoverage(t *testing.T) {
	diags := loadCorpus(t).Diagnostics
	byChecker := make(map[string]int)
	for _, d := range diags {
		byChecker[d.Checker]++
	}
	for _, name := range Checkers() {
		if byChecker[name] == 0 {
			t.Errorf("checker %q produced no diagnostics on the fixture corpus", name)
		}
	}
	if byChecker["directive"] == 0 {
		t.Error("the malformed-waiver fixture produced no directive diagnostic")
	}
	for _, d := range diags {
		// det.Count's map range is waived; det.Bad's (same shape, bad
		// waiver) must survive.
		if d.File == "det/det.go" && d.Line == 58 {
			t.Errorf("waived diagnostic leaked through: %s", d)
		}
	}
}

// TestRepoIsClean is the self-check the CI job relies on: quarclint with
// the default config reports nothing on the repository's own source.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	cfg := DefaultConfig()
	cfg.BaseDir = root
	diags := Run(pkgs, cfg)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func TestCheckersSorted(t *testing.T) {
	names := Checkers()
	want := []string{
		"determinism", "errdiscipline", "floatorder", "hotpath",
		"poollifetime", "registryhygiene", "rngprovenance", "sharedstate",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("Checkers() = %v, want %v", names, want)
	}
}

// TestCheckerSubset pins the cfg.Checkers restriction RunReport applies:
// only the named checkers run, and the timing lists exactly those.
func TestCheckerSubset(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture corpus: %v", err)
	}
	cfg := Config{
		BaseDir:             dir,
		DeterminismPackages: []string{"quarclint.example/det", "quarclint.example/rng"},
		Checkers:            []string{"errdiscipline"},
	}
	report := RunReport(pkgs, cfg)
	for _, d := range report.Diagnostics {
		// The directive pseudo-checker still validates waivers.
		if d.Checker != "errdiscipline" && d.Checker != "directive" {
			t.Errorf("checker %q ran despite the subset restriction: %s", d.Checker, d)
		}
	}
	if len(report.Diagnostics) == 0 {
		t.Error("errdiscipline produced no diagnostics on the corpus under the subset restriction")
	}
	if len(report.Timing) != 1 || report.Timing[0].Checker != "errdiscipline" {
		t.Errorf("Timing = %+v, want exactly one errdiscipline entry", report.Timing)
	}
}

func TestParseIgnore(t *testing.T) {
	tests := []struct {
		text    string
		ok      bool
		wantErr bool
		checker string
		reason  string
	}{
		{"// ordinary comment", false, false, "", ""},
		{"//quarclint:ignore determinism integer count is order independent", true, false, "determinism", "integer count is order independent"},
		{"//quarclint:ignore hotpath pool-miss path", true, false, "hotpath", "pool-miss path"},
		{"//quarclint:ignore determinism", true, true, "", ""},
		{"//quarclint:ignore", true, true, "", ""},
		{"//quarclint:ignore nosuchchecker because reasons", true, true, "", ""},
	}
	for _, tt := range tests {
		spec, ok, err := parseIgnore(tt.text)
		if ok != tt.ok {
			t.Errorf("parseIgnore(%q) ok = %v, want %v", tt.text, ok, tt.ok)
			continue
		}
		if (err != nil) != tt.wantErr {
			t.Errorf("parseIgnore(%q) err = %v, wantErr %v", tt.text, err, tt.wantErr)
			continue
		}
		if err == nil && ok {
			if spec.checker != tt.checker || spec.reason != tt.reason {
				t.Errorf("parseIgnore(%q) = {%q %q}, want {%q %q}", tt.text, spec.checker, spec.reason, tt.checker, tt.reason)
			}
		}
	}
}

func TestFormatVerbs(t *testing.T) {
	tests := []struct {
		format string
		want   []verbRef
	}{
		{"no verbs", nil},
		{"%d", []verbRef{{'d', 0}}},
		{"a %s b %v", []verbRef{{'s', 0}, {'v', 1}}},
		{"100%% done: %w", []verbRef{{'w', 0}}},
		{"%+v", []verbRef{{'v', 0}}},
		{"%-8.3f", []verbRef{{'f', 0}}},
		// A * width consumes one argument before the verb's own operand.
		{"pad %*d: %v", []verbRef{{'d', 1}, {'v', 2}}},
		{"%w: %w", []verbRef{{'w', 0}, {'w', 1}}},
	}
	for _, tt := range tests {
		got := formatVerbs(tt.format)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("formatVerbs(%q) = %v, want %v", tt.format, got, tt.want)
		}
	}
}

func TestFuncKey(t *testing.T) {
	src := `package p

func Free()                  {}
func (e Engine) Run()        {}
func (e *Engine) Push()      {}
func (q *queue[T]) Pop()     {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Free", "Engine.Run", "Engine.Push", "queue.Pop"}
	i := 0
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if got := funcKey(fd); got != want[i] {
			t.Errorf("funcKey(%s) = %q, want %q", fd.Name.Name, got, want[i])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("parsed %d functions, want %d", i, len(want))
	}
}
