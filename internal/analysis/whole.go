package analysis

// Whole-program analyzer plumbing. The per-file Analyzers see one package
// at a time; WholeAnalyzers see the type-checked module, so their findings
// can rest on references from every package (deadapi: an exported
// identifier no other package uses).

import "go/token"

// WholeAnalyzer is one named rule over the type-checked module.
type WholeAnalyzer struct {
	// Name is the rule identifier used in findings and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc string
	// Run inspects the module and reports findings through the pass.
	Run func(*ModulePass)
}

// ModulePass carries the typed module through one whole-analyzer run.
type ModulePass struct {
	Mod *Module

	findings *[]Finding
}

// Position resolves a token.Pos against the module's FileSet.
func (p *ModulePass) Position(pos token.Pos) token.Position {
	return p.Mod.Fset.Position(pos)
}

// Report records a finding.
func (p *ModulePass) Report(f Finding) { *p.findings = append(*p.findings, f) }

// WholeAnalyzers returns the whole-program suite in stable (report) order.
func WholeAnalyzers() []*WholeAnalyzer {
	return []*WholeAnalyzer{
		DeadAPI,
	}
}

// AllRuleNames returns every rule name accepted by ignore directives:
// per-file rules, whole-program rules, and the pseudo-rule for malformed
// directives is excluded (it cannot be suppressed).
func AllRuleNames() map[string]bool {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	for _, wa := range WholeAnalyzers() {
		names[wa.Name] = true
	}
	return names
}
