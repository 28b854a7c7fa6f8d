package analysis

// Whole-program analyzer plumbing. The per-file Analyzers see one package
// at a time; WholeAnalyzers see the type-checked module and its call
// graph, so their findings can cross function and package boundaries. A
// transitive finding is attributed to two locations — the offending site
// (primary position) and the sim-path entry whose call chain reaches it —
// and an ignore directive at either location suppresses it.

import (
	"go/ast"
	"go/token"
	"strings"
)

// WholeAnalyzer is one named rule over the type-checked module.
type WholeAnalyzer struct {
	// Name is the rule identifier used in findings and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc string
	// Run inspects the module and reports findings through the pass.
	Run func(*ModulePass)
}

// ModulePass carries the typed module, its call graph, and the directive
// table through one whole-analyzer run.
type ModulePass struct {
	Mod   *Module
	Graph *Graph

	dirs     []directive
	findings *[]Finding
}

// Position resolves a token.Pos against the module's FileSet.
func (p *ModulePass) Position(pos token.Pos) token.Position {
	return p.Mod.Fset.Position(pos)
}

// Report records a finding.
func (p *ModulePass) Report(f Finding) { *p.findings = append(*p.findings, f) }

// SuppressedAt reports whether an ignore directive for rule covers pos —
// the hook dettaint uses to decide whether a per-file rule already
// sanctioned a source site, and whether that sanction extends to the sim
// path (it does for content-reviewed rules like mapiter, it does not for
// context-reviewed ones like wallclock).
func (p *ModulePass) SuppressedAt(rule string, pos token.Pos) bool {
	position := p.Position(pos)
	for _, d := range p.dirs {
		if d.rule == rule && d.file == position.Filename && d.line == position.Line {
			return true
		}
	}
	return false
}

// WholeAnalyzers returns the whole-program suite in stable (report) order.
func WholeAnalyzers() []*WholeAnalyzer {
	return []*WholeAnalyzer{
		DetTaint,
		PureSelect,
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

// funcDisplayName renders a function for messages: "core.Schedule",
// "condor.(*Pool).scanSerial".
func funcDisplayName(fi *FuncInfo) string {
	base := fi.Pkg.Rel
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if base == "." || base == "" {
		base = ModulePath
	}
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 {
		recv := recvTypeExpr(fi)
		return base + ".(" + recv + ")." + fi.Fn.Name()
	}
	return base + "." + fi.Fn.Name()
}

// recvTypeExpr renders the receiver type as written ("*Pool", "Dog").
func recvTypeExpr(fi *FuncInfo) string {
	t := fi.Decl.Recv.List[0].Type
	return typeExprString(t)
}

func typeExprString(t ast.Expr) string {
	switch v := t.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return "*" + typeExprString(v.X)
	case *ast.IndexExpr:
		return typeExprString(v.X)
	case *ast.IndexListExpr:
		return typeExprString(v.X)
	case *ast.ParenExpr:
		return typeExprString(v.X)
	}
	return "?"
}

// chainString renders a call chain for a finding message:
// "core.Schedule → helper.Pick → time.Now". The final element is the
// description of the source, supplied by the caller.
func chainString(chain []ChainLink, source string) string {
	var sb strings.Builder
	for _, link := range chain {
		sb.WriteString(funcDisplayName(link.Fn))
		sb.WriteString(" → ")
	}
	sb.WriteString(source)
	return sb.String()
}
