package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapIter flags `for … range` over map-typed expressions anywhere in the
// module, and over the maps package's iterators (maps.Keys, maps.Values,
// maps.All), which visit a map in the same order. Go randomizes map
// iteration order per run, so any observable effect of the loop's order —
// kill order, dispatch order, the order of recorded violations or of a
// tool's printed summary — breaks replayability. The rule is module-wide
// because the sim path calls helper packages (classad, obs) and the cmd
// tools print what it computes.
//
// Two loop shapes are recognized as safe and not flagged:
//
//   - order-insensitive bodies: pure commutative accumulation (x += v,
//     counters, delete from the ranged map, writes keyed by the loop key),
//     optionally wrapped in if/continue;
//   - collect-and-sort: the body only appends the keys (or values) to a
//     slice and a later statement in the same block sorts that slice
//     before it is consumed.
//
// Anything else — appends consumed unsorted, calls with side effects,
// early returns that pick an arbitrary element — is flagged.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "flag range over maps unless the body is order-insensitive or " +
		"the keys are collected and sorted first",
	AppliesTo: allPackages,
	Run:       runMapIter,
}

func runMapIter(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, rs := range unorderedMapRanges(pass.Info, file) {
			pass.Reportf("mapiter", rs.Pos(),
				"range over map %s has nondeterministic iteration order; collect and sort the keys, "+
					"use an insertion-ordered structure, or make the body order-insensitive",
				exprString(rs.X))
		}
	}
}

// unorderedMapRanges returns every range over a map (see rangesOverMap)
// under root, function literals included, whose loop is neither
// order-insensitive nor collect-then-sort. Ranges are found through the
// statement lists that hold them, so the collect-then-sort check can see
// the statements that follow.
func unorderedMapRanges(info *types.Info, root ast.Node) []*ast.RangeStmt {
	var out []*ast.RangeStmt
	check := func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			rs, ok := unlabel(stmt).(*ast.RangeStmt)
			if !ok {
				continue
			}
			if !rangesOverMap(info, rs.X) {
				continue
			}
			if orderInsensitive(rs.Body.List, rs) || collectedAndSorted(rs, stmts[i+1:]) {
				continue
			}
			out = append(out, rs)
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BlockStmt:
			check(s.List)
		case *ast.CaseClause:
			check(s.Body)
		case *ast.CommClause:
			check(s.Body)
		}
		return true
	})
	return out
}

// rangesOverMap reports whether the range operand x visits a map in Go's
// randomized order: x is map-typed, or a call of maps.Keys, maps.Values or
// maps.All.
func rangesOverMap(info *types.Info, x ast.Expr) bool {
	if call, ok := x.(*ast.CallExpr); ok {
		if path, name, ok := pkgMember(info, uninstantiate(call.Fun)); ok && path == "maps" {
			switch name {
			case "Keys", "Values", "All":
				return true
			}
		}
	}
	t := info.TypeOf(x)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// uninstantiate strips explicit type arguments from a generic function
// reference: F[T] and F[T, U] become F.
func uninstantiate(e ast.Expr) ast.Expr {
	switch v := e.(type) {
	case *ast.IndexExpr:
		return v.X
	case *ast.IndexListExpr:
		return v.X
	}
	return e
}

func unlabel(stmt ast.Stmt) ast.Stmt {
	for {
		ls, ok := stmt.(*ast.LabeledStmt)
		if !ok {
			return stmt
		}
		stmt = ls.Stmt
	}
}

// orderInsensitive reports whether every statement's effect is independent
// of iteration order.
func orderInsensitive(stmts []ast.Stmt, rs *ast.RangeStmt) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			// counters: x++ / x--
		case *ast.AssignStmt:
			if !commutativeAssign(s, rs) {
				return false
			}
		case *ast.ExprStmt:
			// delete from the ranged map keeps the loop a pure purge.
			if !isDeleteFromRanged(s.X, rs) {
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil && !commutativeAssignStmt(s.Init, rs) {
				return false
			}
			if !orderInsensitive(s.Body.List, rs) {
				return false
			}
			if s.Else != nil {
				if eb, ok := s.Else.(*ast.BlockStmt); !ok || !orderInsensitive(eb.List, rs) {
					return false
				}
			}
		case *ast.BlockStmt:
			if !orderInsensitive(s.List, rs) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func commutativeAssignStmt(stmt ast.Stmt, rs *ast.RangeStmt) bool {
	as, ok := stmt.(*ast.AssignStmt)
	return ok && commutativeAssign(as, rs)
}

// commutativeAssign accepts accumulator updates whose final value does not
// depend on visit order: compound += / -= / |= / &= / ^= on any target,
// and any plain or compound write (m[k] = v, m[k] /= total) to a slot
// indexed by the loop key, since each iteration touches a distinct slot.
func commutativeAssign(s *ast.AssignStmt, rs *ast.RangeStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	if len(s.Lhs) != 1 {
		return false
	}
	ix, ok := s.Lhs[0].(*ast.IndexExpr)
	if !ok {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	return ok && exprString(ix.Index) == key.Name
}

func isDeleteFromRanged(e ast.Expr, rs *ast.RangeStmt) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "delete" {
		return false
	}
	return exprString(call.Args[0]) == exprString(rs.X)
}

// collectedAndSorted recognizes the collect-then-sort idiom: the body is a
// single `s = append(s, key)` (or value), where s is a variable or a field
// selector such as p.roots, and some later statement in the enclosing
// block passes s to a sorting call (sort.Slice, sort.Strings, a local
// sortFoo helper, …) before anything else consumes it.
func collectedAndSorted(rs *ast.RangeStmt, following []ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	switch as.Lhs[0].(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return false
	}
	target := exprString(as.Lhs[0])
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	if len(call.Args) < 1 || exprString(call.Args[0]) != target {
		return false
	}
	for _, stmt := range following {
		if stmtSorts(stmt, target) {
			return true
		}
	}
	return false
}

// stmtSorts reports whether stmt is a call that sorts the named slice.
func stmtSorts(stmt ast.Stmt, slice string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	var fname string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fname = fun.Name
	case *ast.SelectorExpr:
		fname = exprString(fun)
	default:
		return false
	}
	if !strings.Contains(strings.ToLower(fname), "sort") {
		return false
	}
	for _, arg := range call.Args {
		if exprString(arg) == slice {
			return true
		}
	}
	return false
}

// exprString renders simple expressions (identifiers, selector chains,
// index expressions) for comparison and messages.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.CallExpr:
		return exprString(v.Fun) + "(…)"
	case *ast.BinaryExpr:
		return exprString(v.X) + " " + v.Op.String() + " " + exprString(v.Y)
	case *ast.UnaryExpr:
		return v.Op.String() + exprString(v.X)
	case *ast.BasicLit:
		return v.Value
	}
	return "…"
}
