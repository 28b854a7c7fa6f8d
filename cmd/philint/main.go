// Command philint runs the determinism-and-simulation-hygiene analyzer
// suite (internal/analysis) over the module and reports findings in
// file:line: rule: message form (or machine-readable JSON with -json),
// exiting nonzero if any survive the per-line
// //philint:ignore <rule> <reason> suppressions.
//
// Usage:
//
//	go run ./cmd/philint ./...          # whole module (the make lint gate)
//	go run ./cmd/philint ./internal/... # report one subtree
//	go run ./cmd/philint -json ./...    # JSON findings on stdout
//	go run ./cmd/philint -rules         # describe the rules and exit
//
// The whole module is always parsed and type-checked, once, and every rule
// reads that one check. The whole-program rules (dettaint, pureselect,
// deadapi) see across package boundaries, so a narrower load would
// silently weaken them. Package
// patterns only scope which findings are REPORTED: a finding is shown when
// its primary position or its entry attribution falls inside a matched
// package.
//
// Test files are outside the enforcement scope; every other package,
// examples/ and bench/ included, is walked, parsed, and checked.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"phishare/internal/analysis"
)

func main() {
	rules := flag.Bool("rules", false, "print each rule's name and contract, then exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: philint [-rules] [-json] [packages]\n\n"+
				"packages scope reporting and default to ./... relative to the module root;\n"+
				"the whole module is always analyzed\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *rules {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		for _, wa := range analysis.WholeAnalyzers() {
			fmt.Printf("%-11s %s\n", wa.Name, wa.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	// Load everything: the whole-program rules need the full module. The
	// argument patterns are validated against the loaded set below and then
	// scope reporting only.
	pkgs, err := analysis.LoadModule(root, nil)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if err := validatePatterns(pkgs, patterns); err != nil {
		fatal(err)
	}

	findings := analysis.LintAll(pkgs, analysis.Analyzers(), analysis.WholeAnalyzers())
	findings = filterByPatterns(root, findings, patterns)

	if *jsonOut {
		if err := writeJSON(os.Stdout, root, findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			// Report paths relative to the invocation directory so the
			// file:line anchors are clickable from the terminal.
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && f.Pos.Filename != "(module)" {
				f.Pos.Filename = rel
			}
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "philint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// validatePatterns rejects a pattern matching no loaded package: a typo'd
// path in the lint gate would otherwise pass vacuously.
func validatePatterns(pkgs []*analysis.Package, patterns []string) error {
	for _, p := range patterns {
		matched := false
		for _, pkg := range pkgs {
			if analysis.MatchesPattern(pkg.Rel, p) {
				matched = true
				break
			}
		}
		if !matched {
			return fmt.Errorf("pattern %q matched no packages", p)
		}
	}
	return nil
}

// filterByPatterns keeps the findings whose primary or entry position falls
// inside a matched package. Module-level pseudo-findings (type errors) are
// always kept.
func filterByPatterns(root string, findings []analysis.Finding, patterns []string) []analysis.Finding {
	if len(patterns) == 0 {
		return findings
	}
	relOf := func(file string) (string, bool) {
		if file == "" || file == "(module)" {
			return "", false
		}
		rel, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return "", false
		}
		return filepath.ToSlash(rel), true
	}
	var out []analysis.Finding
	for _, f := range findings {
		rel, ok := relOf(f.Pos.Filename)
		if !ok {
			out = append(out, f) // module-level pseudo-finding
			continue
		}
		keep := false
		for _, p := range patterns {
			if analysis.MatchesPattern(rel, p) {
				keep = true
				break
			}
			if erel, eok := relOf(f.Entry.Filename); eok && analysis.MatchesPattern(erel, p) {
				keep = true
				break
			}
		}
		if keep {
			out = append(out, f)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "philint:", err)
	os.Exit(2)
}
