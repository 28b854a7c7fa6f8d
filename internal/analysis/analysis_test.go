package analysis

import (
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden expect.txt files")

// loadFixture parses one testdata fixture directory as a package.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	pkg, err := LoadDir(token.NewFileSet(), dir, filepath.ToSlash(dir))
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("load %s: no Go files", dir)
	}
	return pkg
}

// runPackage type-checks one package on its own and applies one analyzer
// to it, ignoring AppliesTo and suppression directives: the primitive the
// golden tests drive.
func runPackage(a *Analyzer, pkg *Package) ([]Finding, error) {
	mod, err := TypeCheck([]*Package{pkg})
	if err != nil {
		return nil, err
	}
	var findings []Finding
	a.Run(&Pass{Fset: pkg.Fset, Pkg: pkg, Info: mod.Info, findings: &findings})
	sortFindings(findings)
	return findings, nil
}

// render formats findings with basename-relative paths, one per line, in
// the same file:line: rule: message form cmd/philint prints.
func render(findings []Finding) string {
	var sb strings.Builder
	for _, f := range findings {
		f.Pos.Filename = filepath.Base(f.Pos.Filename)
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestGolden runs every analyzer over its fixture directory and compares
// the findings with the checked-in expect.txt: each rule must fire on its
// flagged fixtures and stay silent on clean.go.
func TestGolden(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			pkg := loadFixture(t, dir)
			findings, err := runPackage(a, pkg)
			if err != nil {
				t.Fatal(err)
			}

			flaggedSeen := false
			for _, f := range findings {
				base := filepath.Base(f.Pos.Filename)
				if base == "clean.go" {
					t.Errorf("%s fired on clean fixture: %s", a.Name, f)
				}
				if f.Rule != a.Name {
					t.Errorf("%s reported foreign rule %q", a.Name, f.Rule)
				}
				flaggedSeen = true
			}
			if !flaggedSeen {
				t.Errorf("%s reported nothing; want findings on the flagged fixture", a.Name)
			}

			got := render(findings)
			goldenPath := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSuppression runs the full suite through LintAll over the suppression
// fixture, with the package placed in a sim-path directory so every rule
// is in scope. It pins that a directive silences exactly its rule on
// exactly its line, and that malformed directives are findings.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "suppress"))
	pkg.Rel = "internal/sim" // engage the sim-path-scoped rules
	got := render(LintAll([]*Package{pkg}, Analyzers(), nil))

	goldenPath := filepath.Join("testdata", "suppress", "expect.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("suppression results mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The structural assertions behind the golden file, spelled out so a
	// regenerated golden cannot quietly weaken them.
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if strings.Contains(line, "suppress.go:12:") {
			t.Errorf("trailing directive failed to suppress its line: %s", line)
		}
		if strings.Contains(line, "mapiter") {
			t.Errorf("standalone mapiter directive failed to suppress: %s", line)
		}
	}
	for _, wantFrag := range []string{
		"suppress.go:13: wallclock:", // the undirected clock read survives
		"suppress.go:21: wallclock:", // wrong-rule directive suppresses nothing
		"names no rule",
		"unknown rule \"nosuchrule\"",
		"gives no reason",
	} {
		if !strings.Contains(got, wantFrag) {
			t.Errorf("missing expected finding %q in:\n%s", wantFrag, got)
		}
	}
}

// TestTypedHoles pins hazards that only resolved types reveal, in a
// sim-path package where every per-file rule is in scope: a range over a
// map that a method returns, a name that is a map in one closure and a
// slice in its sibling, a dot-imported time.Now and a renamed sort import.
// Each is reported exactly once, by its per-file rule; dettaint, which
// sees the same sites, defers to it.
func TestTypedHoles(t *testing.T) {
	dir := filepath.Join("testdata", "typedholes")
	_, pkgs := loadFixtureModule(t, dir)
	findings := LintAll(pkgs, Analyzers(), WholeAnalyzers())
	compareGolden(t, filepath.Join(dir, "expect.txt"), render(findings))

	perRule := map[string]int{}
	for _, f := range findings {
		perRule[f.Rule]++
	}
	want := map[string]int{"mapiter": 2, "wallclock": 1, "sortstable": 1}
	if len(findings) != 4 || len(perRule) != len(want) {
		t.Fatalf("want 4 findings %v, got:\n%s", want, render(findings))
	}
	for rule, n := range want {
		if perRule[rule] != n {
			t.Errorf("%s: %d findings, want %d:\n%s", rule, perRule[rule], n, render(findings))
		}
	}
}

// TestTypeErrorIsOneFinding: every rule reads types, so a package that
// does not type-check yields exactly one "philint" finding naming the
// error, and no rule runs on it.
func TestTypeErrorIsOneFinding(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "typeerror"))
	pkg.Rel = "internal/core" // in scope for every per-file rule
	findings := LintAll([]*Package{pkg}, Analyzers(), WholeAnalyzers())
	if len(findings) != 1 {
		t.Fatalf("want exactly one finding, got:\n%s", render(findings))
	}
	f := findings[0]
	if f.Rule != "philint" || !strings.Contains(f.Message, "bad.go:5") || !strings.Contains(f.Message, "cannot use") {
		t.Errorf("finding does not name the type error: %s", f)
	}
}

// TestScoping pins each rule's package scope: where the determinism
// contract binds, and where it deliberately does not.
func TestScoping(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		rel      string
		want     bool
	}{
		{DetRand, "internal/rng", false}, // the sanctioned wrapper
		{DetRand, "internal/workload", true},
		{DetRand, "cmd/phigen", true},
		{WallClock, "internal/sim", true},
		{WallClock, "cmd/phibench", true}, // module-wide: annotate, don't exempt
		{WallClock, ".", true},
		{MapIter, "internal/cosmic", true},
		{MapIter, "internal/faults", true},
		{MapIter, "internal/obs", false}, // offline reporting is out of sim scope
		{FloatEq, "internal/knapsack", true},
		{FloatEq, "internal/core", true},
		{FloatEq, "internal/estimator", true},
		{FloatEq, "internal/obs", false},
		{SortStable, "internal/knapsack", true},
		{SortStable, "internal/condor", true},
		{SortStable, "internal/metrics", false},
		{SimGoroutine, "internal/phi", true},
		{SimGoroutine, "internal/condor", true},
		{SimGoroutine, "internal/sim", true},
		{SimGoroutine, "internal/obs", false},
		{SimGoroutine, "cmd/phibench", false},
	}
	for _, tc := range cases {
		if got := tc.analyzer.AppliesTo(tc.rel); got != tc.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", tc.analyzer.Name, tc.rel, got, tc.want)
		}
	}
}

// TestModuleIsClean is the in-process version of the make lint gate: the
// tree itself must carry zero unsuppressed findings, so a regression
// shows up in go test as well as in CI. The load includes examples/, so
// deadapi counts the demos' calls and the demos obey every rule.
func TestModuleIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages; walk is broken", len(pkgs))
	}
	examples := 0
	for _, p := range pkgs {
		if strings.HasPrefix(p.Rel, "examples/") {
			examples++
		}
	}
	if examples == 0 {
		t.Fatal("LoadModule skipped examples/")
	}
	findings := LintAll(pkgs, Analyzers(), WholeAnalyzers())
	for _, f := range findings {
		t.Errorf("unsuppressed finding: %s", f)
	}
}

// TestLoadModuleRejectsUnmatchedPattern: a typo'd package pattern must be
// an error, not a vacuously clean lint run.
func TestLoadModuleRejectsUnmatchedPattern(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pats := range [][]string{
		{"./nosuchdir"},
		{"./nosuchdir/..."},
		{"./internal/...", "./typo"},
	} {
		if _, err := LoadModule(root, pats); err == nil {
			t.Errorf("LoadModule(%q) succeeded, want unmatched-pattern error", pats)
		}
	}
	if _, err := LoadModule(root, []string{"./internal/sim", "./cmd/..."}); err != nil {
		t.Errorf("LoadModule with valid patterns failed: %v", err)
	}
}
