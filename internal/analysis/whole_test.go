package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runWhole drives one whole-program analyzer over a fixture module with no
// suppression directives, the primitive behind the rule goldens.
func runWhole(mod *Module, wa *WholeAnalyzer) []Finding {
	var findings []Finding
	mp := &ModulePass{Mod: mod, Graph: BuildGraph(mod), findings: &findings}
	wa.Run(mp)
	sortFindings(findings)
	return findings
}

// renderEntries renders findings like render, plus the entry attribution
// whole-program findings carry.
func renderEntries(findings []Finding) string {
	var sb strings.Builder
	for _, f := range findings {
		f.Pos.Filename = filepath.Base(f.Pos.Filename)
		sb.WriteString(f.String())
		if f.Entry.Filename != "" {
			fmt.Fprintf(&sb, " [entry %s:%d]", filepath.Base(f.Entry.Filename), f.Entry.Line)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func compareGolden(t *testing.T, goldenPath, got string) {
	t.Helper()
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
}

// TestDetTaintWholeProgram is the acceptance fixture for the typed engine:
// the banned constructs sit two hops from the sim-path entry, through a
// helper in another package. The per-file suite passes the fixture clean;
// the whole-program gate reports them with chain and entry attribution.
func TestDetTaintWholeProgram(t *testing.T) {
	dir := filepath.Join("testdata", "dettaint")
	_, pkgs := loadFixtureModule(t, dir)

	// The old per-file suite is structurally blind here: mapiter is out of
	// scope in internal/estimator, and the wallclock site carries a local
	// suppression.
	if v1 := LintAll(pkgs, Analyzers(), nil); len(v1) != 0 {
		t.Fatalf("per-file suite should pass this fixture clean, got:\n%s", render(v1))
	}

	got := renderEntries(LintAll(pkgs, Analyzers(), WholeAnalyzers()))
	compareGolden(t, filepath.Join(dir, "expect.txt"), got)

	// The structural claims behind the golden, so a regenerated golden
	// cannot quietly weaken them.
	for _, wantFrag := range []string{
		// Two hops through another package, with the full chain spelled out.
		"core.Schedule → estimator.Blend → estimator.mix → order-sensitive range over map w",
		// The suppressed wall-clock read is re-flagged: reachability
		// disproves the suppression's "not sim state" premise.
		"core.Schedule → estimator.Stamp → time.Now (wall clock)",
		"this chain is the sim path",
	} {
		if !strings.Contains(got, wantFrag) {
			t.Errorf("missing expected finding %q in:\n%s", wantFrag, got)
		}
	}
	if strings.Contains(got, "Decay") {
		t.Errorf("dettaint directive at the entry call site failed to suppress the Decay chain:\n%s", got)
	}

	// Without directives the Decay chain IS reported, attributed to the
	// entry call site inside ScheduleQuiet — proving the suppression above
	// acted through the entry attribution, not by missing the finding.
	mod, err := TypeCheck(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	raw := renderEntries(runWhole(mod, DetTaint))
	if !strings.Contains(raw, "estimator.Decay") || !strings.Contains(raw, "[entry core.go:26]") {
		t.Errorf("raw dettaint should report the Decay chain with entry at core.go:26, got:\n%s", raw)
	}
}

// TestDeadAPI pins the unused-export rule on a fixture module: a func read
// only by a _test.go file, a self-recursive func, a method no interface
// names, a type named only by its own methods and unread consts and vars
// are reported; a func called from an examples/ main, a fmt.Stringer
// method, a method called through a module interface or on an
// instantiated generic type, struct fields and API outside internal/ are
// not. A directive with a reason suppresses a
// finding, and a partial load reports nothing.
func TestDeadAPI(t *testing.T) {
	dir := filepath.Join("testdata", "deadapi")
	pkgs, err := LoadModule(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole := []*WholeAnalyzer{DeadAPI}
	got := render(LintAll(pkgs, nil, whole))
	compareGolden(t, filepath.Join(dir, "expect.txt"), got)

	for _, name := range []string{"const lib.Limit", "var lib.Spare", "func lib.TestOnly",
		"func lib.Countdown", "method lib.(Celsius).Scale", "type lib.Orphan", "method lib.(*Orphan).Next"} {
		if !strings.Contains(got, name+" has no reference") {
			t.Errorf("%s not flagged:\n%s", name, got)
		}
	}
	for _, name := range []string{"Used", "Live", "Demo", "String", "Area", "NewSquare", "Box", "Get", "Point", "Oracle", "util"} {
		if strings.Contains(got, "."+name+" ") || strings.Contains(got, "."+name+")") {
			t.Errorf("%s flagged, but it is live or out of scope:\n%s", name, got)
		}
	}

	// Without directives Oracle is reported: the suppression above acted.
	mod, err := TypeCheck(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if raw := render(runWhole(mod, DeadAPI)); !strings.Contains(raw, "func lib.Oracle") {
		t.Errorf("undirected run should flag Oracle:\n%s", raw)
	}

	// A load that leaves examples/ out cannot see Demo's caller; the rule
	// must stay silent rather than report it.
	partial, err := LoadModule(dir, []string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	if f := LintAll(partial, nil, whole); len(f) != 0 {
		t.Errorf("partial load reported:\n%s", render(f))
	}
}
