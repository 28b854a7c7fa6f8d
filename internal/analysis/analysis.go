// Package analysis implements philint, the project's determinism-and-
// simulation-hygiene analyzer suite.
//
// Every correctness claim this reproduction makes — bit-identical
// MC/MCC/MCCK outcomes across the optimized paths, outcome-neutral
// observability, replayable (seed, profile, policy) chaos triples — rests
// on the simulation being deterministic. philint turns that contract from
// a convention into a machine-checked CI gate: the analyzers walk the
// module's ASTs and flag the source-level constructs that silently break
// replayability.
//
// Every rule reads types from one go/types check of the whole module (see
// TypeCheck; stdlib only, so go.mod stays dependency-free). Package
// members resolve through the checker's Uses table, so an import rename or
// a dot import names the same object as the plain form. A module that
// does not type-check gets no rule findings, only one "philint" finding
// naming the type error. A construct the analyzers cannot prove safe is
// flagged; a reviewed-and-legitimate site is annotated in place:
//
//	start := time.Now() //philint:ignore wallclock harness timing, not sim state
//
// The directive suppresses exactly one rule on its own line (or, when
// written on a line by itself, on the line below) and must carry a
// reason. Unknown rules and missing reasons are themselves findings, so
// suppressions cannot rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the canonical file:line: rule: message
// form emitted by cmd/philint and matched by the golden tests.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Pass carries one package's parsed state, and the module's type
// information, through one analyzer run.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Info *types.Info

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(rule string, pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named rule over a parsed package.
type Analyzer struct {
	// Name is the rule identifier used in findings and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc string
	// AppliesTo reports whether the rule is enforced in the package at the
	// given module-relative directory (e.g. "internal/cosmic",
	// "cmd/phibench", "." for the module root). The scoping encodes the
	// determinism contract: some rules are module-wide, others bind only
	// the sim-path packages.
	AppliesTo func(rel string) bool
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// simPathPackages are the packages whose code runs under simulated time
// and must be bit-reproducible: everything between the event engine and
// the experiment drivers. cmd tools and offline packages (workload
// generation, metrics aggregation, reporting) sit outside the list but
// are still covered by the module-wide rules.
var simPathPackages = map[string]bool{
	"internal/sim":       true,
	"internal/phi":       true,
	"internal/cosmic":    true,
	"internal/condor":    true,
	"internal/core":      true,
	"internal/cluster":   true,
	"internal/faults":    true,
	"internal/scheduler": true,
}

// SimPath reports whether rel is one of the sim-path packages.
func SimPath(rel string) bool { return simPathPackages[rel] }

// allPackages is the AppliesTo for module-wide rules.
func allPackages(string) bool { return true }

// Analyzers returns the full suite in stable (report) order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRand,
		WallClock,
		MapIter,
		FloatEq,
		SortStable,
		ObsAlloc,
	}
}

// LintAll is the gate behind cmd/philint. It type-checks the module, runs
// the per-file suite with package scoping, then the whole-program suite
// over the module, and applies suppression across both. Malformed
// directives surface as findings under the pseudo-rule "philint". Every
// rule reads types, so a module that fails to type-check yields exactly
// one "philint" finding naming the type error and nothing else.
func LintAll(pkgs []*Package, analyzers []*Analyzer, whole []*WholeAnalyzer) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	mod, err := TypeCheck(pkgs)
	if err != nil {
		return []Finding{{
			Pos:     token.Position{Filename: "(module)"},
			Rule:    "philint",
			Message: fmt.Sprintf("no rule ran, the module does not type-check: %v", err),
		}}
	}

	// The directive rule namespace is global: a //philint:ignore naming a
	// whole-program rule is well-formed even on a per-file-only run.
	known := AllRuleNames()

	var out, raw []Finding
	var dirs []directive
	for _, pkg := range pkgs {
		pass := &Pass{Fset: pkg.Fset, Pkg: pkg, Info: mod.Info, findings: &raw}
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Rel) {
				continue
			}
			a.Run(pass)
		}
		pkgDirs, malformed := directives(pkg, known)
		out = append(out, malformed...)
		dirs = append(dirs, pkgDirs...)
	}

	if len(whole) > 0 {
		mp := &ModulePass{Mod: mod, findings: &raw}
		for _, wa := range whole {
			wa.Run(mp)
		}
	}

	for _, f := range raw {
		if !suppressed(f, dirs) {
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out
}

// directive is one parsed //philint:ignore comment.
type directive struct {
	file string
	line int
	rule string
}

const ignorePrefix = "philint:ignore"

// directives extracts the ignore directives from a package's comments and
// reports malformed ones (unknown rule, missing reason) as findings.
func directives(pkg *Package, known map[string]bool) ([]directive, []Finding) {
	var dirs []directive
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				switch {
				case len(fields) == 0:
					bad = append(bad, Finding{Pos: pos, Rule: "philint",
						Message: "ignore directive names no rule (want //philint:ignore <rule> <reason>)"})
				case !known[fields[0]]:
					bad = append(bad, Finding{Pos: pos, Rule: "philint",
						Message: fmt.Sprintf("ignore directive names unknown rule %q", fields[0])})
				case len(fields) < 2:
					bad = append(bad, Finding{Pos: pos, Rule: "philint",
						Message: fmt.Sprintf("ignore directive for %q gives no reason", fields[0])})
				default:
					// A trailing directive covers its own line; a
					// standalone one (nothing but whitespace before it)
					// covers the line below.
					line := pos.Line
					if isStandalone(pkg, pos) {
						line++
					}
					dirs = append(dirs, directive{file: pos.Filename, line: line, rule: fields[0]})
				}
			}
		}
	}
	return dirs, bad
}

// isStandalone reports whether only whitespace precedes the comment on
// its source line.
func isStandalone(pkg *Package, pos token.Position) bool {
	lines, ok := pkg.Lines[pos.Filename]
	if !ok || pos.Line-1 >= len(lines) || pos.Column < 1 {
		return false
	}
	line := lines[pos.Line-1]
	if pos.Column-1 > len(line) {
		return false
	}
	return strings.TrimSpace(line[:pos.Column-1]) == ""
}

// suppressed reports whether a directive covers the finding: same rule,
// same file, same (resolved) line.
func suppressed(f Finding, dirs []directive) bool {
	for _, d := range dirs {
		if d.rule == f.Rule && d.file == f.Pos.Filename && d.line == f.Pos.Line {
			return true
		}
	}
	return false
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// pkgMember resolves e, a qualified identifier (pkg.Name under any import
// name) or a bare identifier (a dot import, or a member of the package
// itself), through the type checker's Uses table to the import path and
// name of the package-level object it denotes. Locals, struct fields and
// methods are not package members and yield ok == false.
func pkgMember(info *types.Info, e ast.Expr) (path, name string, ok bool) {
	id, _ := e.(*ast.Ident)
	if sel, isSel := e.(*ast.SelectorExpr); isSel {
		id = sel.Sel
	}
	if id == nil {
		return "", "", false
	}
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// inspectMembers calls fn for every reference under root to a
// package-level object, once per reference: ref is the qualified selector
// or the bare identifier as written.
func inspectMembers(info *types.Info, root ast.Node, fn func(ref ast.Expr, path, name string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if path, name, ok := pkgMember(info, e); ok {
				fn(e, path, name)
				return false
			}
		}
		return true
	})
}
