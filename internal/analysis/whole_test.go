package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runWhole drives one whole-program analyzer over a fixture module with no
// suppression directives, the primitive behind the rule goldens.
func runWhole(mod *Module, wa *WholeAnalyzer) []Finding {
	var findings []Finding
	mp := &ModulePass{Mod: mod, findings: &findings}
	wa.Run(mp)
	sortFindings(findings)
	return findings
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
