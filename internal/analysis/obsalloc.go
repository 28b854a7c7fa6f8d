package analysis

import (
	"go/ast"
	"go/token"
)

// ObsAlloc keeps disabled observability down to one pointer-nil branch at
// each instrumentation call-site. A trace emission like
//
//	v.Emit(now, "phi", "oom_kill", obs.Int("job", id))
//
// evaluates its field arguments BEFORE the call, so even though
// Observer.Emit is nil-safe, an unguarded call-site does that work on every
// run, including uninstrumented production sweeps where the observer is nil.
// Fields are unboxed 32-byte values, so the work is no longer an
// allocation by itself: an unguarded Emit of integer, bool, string and
// id-list fields on a nil observer allocates nothing, its variadic slice
// staying in the caller's frame (obs's TestDisabledInstrumentsAllocateNothing).
// What the guard still saves is computing each value (a length, a memory
// sum), copying 32 bytes per field into the argument slice, and building
// any value that has to be made first (a fresh id slice, a concatenated or
// formatted string), which does allocate. The contract holds only when the
// emission is wrapped in its receiver's nil guard:
//
//	if v != nil {
//		v.Emit(now, "phi", "oom_kill", obs.Int("job", id))
//	}
//
// The rule flags, in sim-path packages:
//
//   - Emit calls carrying field arguments (more than the fixed time/layer/
//     kind triple) whose receiver is not nil-checked by an enclosing if —
//     the fields would be built on the disabled path;
//   - fmt.Sprint/Sprintf/Sprintln anywhere in an unguarded Emit call's
//     arguments — string formatting allocates regardless of arity.
//
// Guard detection is textual; only the fmt lookup reads types. An
// enclosing `if x != nil { ... }` (including `&&` conjunctions) guards
// every Emit whose receiver prints as x. Disjunctions (`||`) guarantee
// nothing and do not count. Nil-safe metric handles (Counter.Inc,
// Histogram.Observe) are method calls on non-variadic receivers and stay
// unflagged: they allocate nothing when disabled.
var ObsAlloc = &Analyzer{
	Name: "obsalloc",
	Doc: "instrumentation call-sites must not allocate when observability is " +
		"disabled; wrap field-carrying Emit calls in their receiver's nil guard",
	AppliesTo: SimPath,
	Run:       runObsAlloc,
}

// emitFixedArgs is the arity of an Emit call with no fields: (at, layer,
// kind). Anything beyond it materializes a variadic []Field.
const emitFixedArgs = 3

func runObsAlloc(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		// Pass 1: collect the body ranges guarded by a receiver nil-check.
		type guardRange struct {
			recv     string
			from, to token.Pos
		}
		var guards []guardRange
		ast.Inspect(file, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			for _, recv := range nilCheckedExprs(ifs.Cond) {
				guards = append(guards, guardRange{recv, ifs.Body.Pos(), ifs.Body.End()})
			}
			return true
		})
		guarded := func(recv string, pos token.Pos) bool {
			for _, g := range guards {
				if g.recv == recv && g.from <= pos && pos < g.to {
					return true
				}
			}
			return false
		}

		// Pass 2: check the Emit call-sites.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Emit" {
				return true
			}
			recv := exprText(sel.X)
			if recv == "" || guarded(recv, call.Pos()) {
				return true
			}
			if len(call.Args) > emitFixedArgs {
				pass.Reportf("obsalloc", call.Pos(),
					"%s.Emit builds its field slice even when observability is off; wrap the call in `if %s != nil`",
					recv, recv)
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					c, ok := a.(*ast.CallExpr)
					if !ok {
						return true
					}
					path, name, ok := pkgMember(pass.Info, c.Fun)
					if ok && path == "fmt" && (name == "Sprintf" || name == "Sprint" || name == "Sprintln") {
						pass.Reportf("obsalloc", c.Pos(),
							"fmt.%s allocates inside an unguarded %s.Emit; format under `if %s != nil` only",
							name, recv, recv)
					}
					return true
				})
			}
			return true
		})
	}
}

// nilCheckedExprs extracts the expressions an if-condition proves non-nil:
// `x != nil` and `nil != x` terms reachable through `&&` conjunctions.
// `||` branches prove nothing (either side may be skipped) and parenthesized
// conditions unwrap transparently.
func nilCheckedExprs(cond ast.Expr) []string {
	switch v := cond.(type) {
	case *ast.ParenExpr:
		return nilCheckedExprs(v.X)
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			return append(nilCheckedExprs(v.X), nilCheckedExprs(v.Y)...)
		case token.NEQ:
			if isNilIdent(v.Y) {
				if t := exprText(v.X); t != "" {
					return []string{t}
				}
			}
			if isNilIdent(v.X) {
				if t := exprText(v.Y); t != "" {
					return []string{t}
				}
			}
		}
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// exprText renders an identifier or selector chain ("v", "p.obs",
// "m.host.obs") for textual guard matching; anything else (a call result,
// an index expression) yields "" and is never considered guarded or
// guardable.
func exprText(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if x := exprText(v.X); x != "" {
			return x + "." + v.Sel.Name
		}
	}
	return ""
}
