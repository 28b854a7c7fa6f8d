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

// TestPureSelectWholeProgram pins the purity contract: classad.Match is
// strict (the counter write is flagged), Select and SelectN implementations
// are discovered through their interfaces, and the internal/rng exemption admits
// the deterministic stream draw while receiver memoization stays flagged.
func TestPureSelectWholeProgram(t *testing.T) {
	dir := filepath.Join("testdata", "pureselect")
	mod, _ := loadFixtureModule(t, dir)

	findings := runWhole(mod, PureSelect)
	got := renderEntries(findings)
	compareGolden(t, filepath.Join(dir, "expect.txt"), got)

	if !strings.Contains(got, "classad.Match must be observably pure") {
		t.Errorf("Match's counter write not flagged:\n%s", got)
	}
	if !strings.Contains(got, "Sticky).Select must") {
		t.Errorf("Sticky.Select's receiver memoization not flagged:\n%s", got)
	}
	// SelectN implementations are discovered through their own interface.
	if !strings.Contains(got, "Sticky).SelectN must") {
		t.Errorf("Sticky.SelectN's receiver memoization not flagged:\n%s", got)
	}
	if strings.Contains(got, "Random") {
		t.Errorf("Random.Select's and Random.SelectN's rng draws should be exempt:\n%s", got)
	}
	// The trace↔chase cycle: Looper.Select enters at the impure member,
	// Chaser.Select at the pure one, and Looper is analyzed first. Both
	// must flag the write — a summary for chase memoized mid-cycle (while
	// trace was still on the stack) would hide it from Chaser.
	if !strings.Contains(got, "Looper") {
		t.Errorf("Looper.Select's transitive package write not flagged:\n%s", got)
	}
	if !strings.Contains(got, "Chaser") {
		t.Errorf("Chaser.Select must see the full cycle summary (stale partial memo?):\n%s", got)
	}
}
