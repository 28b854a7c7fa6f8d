package analysis

import (
	"go/ast"
	"go/token"
)

// SortStable flags sort.Slice calls whose comparator can produce ties in
// scheduling and ordering paths.
//
// sort.Slice is unstable: elements comparing equal land in an order that
// depends on the pdqsort pivot choices, which in turn depend on the input
// permutation. A single-key comparator over job values or arrival times
// therefore makes "which of two equal-priority jobs goes first" an
// accident of history — exactly the kind of hidden state the replayable
// chaos triples forbid. Use sort.SliceStable, or extend the comparator
// with a total-order tiebreak (job ID, name).
//
// Comparators the analyzer can prove tie-free are not flagged: a direct
// whole-element comparison `s[i] < s[j]` (equal elements are
// interchangeable), and chained comparators (`… || …` / `… && …`), which
// are taken as already carrying a tiebreak.
var SortStable = &Analyzer{
	Name: "sortstable",
	Doc: "flag sort.Slice with potentially tie-producing comparators in " +
		"scheduling paths; use sort.SliceStable or a total-order tiebreak",
	AppliesTo: func(rel string) bool { return SimPath(rel) || rel == "internal/knapsack" },
	Run:       runSortStable,
}

func runSortStable(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if path, name, ok := pkgMember(pass.Info, call.Fun); !ok || path != "sort" || name != "Slice" {
				return true
			}
			cmp, ok := call.Args[1].(*ast.FuncLit)
			if !ok {
				pass.Reportf("sortstable", call.Pos(),
					"sort.Slice with an opaque comparator; use sort.SliceStable or prove the order total")
				return true
			}
			if reason, tieProne := comparatorTieProne(call.Args[0], cmp); tieProne {
				pass.Reportf("sortstable", call.Pos(),
					"sort.Slice comparator %s; use sort.SliceStable or add a total-order tiebreak",
					reason)
			}
			return true
		})
	}
}

// comparatorTieProne inspects the comparator body. It returns tieProne =
// false only for shapes that provably cannot reorder distinct equal-key
// elements (or that visibly carry their own tiebreak).
func comparatorTieProne(slice ast.Expr, cmp *ast.FuncLit) (string, bool) {
	if len(cmp.Body.List) != 1 {
		if isIfChainComparator(cmp.Body.List) {
			// The idiomatic multi-key comparator: one or more
			// `if key_i != key_j { return … }` stages falling through to a
			// final tiebreak return.
			return "", false
		}
		return "has a multi-statement body the analyzer cannot prove tie-free", true
	}
	ret, ok := cmp.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return "has a multi-statement body the analyzer cannot prove tie-free", true
	}
	expr := ret.Results[0]
	if be, ok := expr.(*ast.BinaryExpr); ok {
		switch be.Op {
		case token.LAND, token.LOR:
			// A chained comparator is taken as carrying its own tiebreak.
			return "", false
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			if wholeElementCompare(slice, cmp, be) {
				// s[i] < s[j]: equal elements are identical values, so any
				// relative order of ties is indistinguishable.
				return "", false
			}
			return "compares a single key (" + exprString(be.X) + " vs " + exprString(be.Y) + "), which can tie", true
		}
	}
	return "is not a comparison the analyzer recognizes as tie-free", true
}

// isIfChainComparator recognizes the fall-through multi-key shape: every
// statement but the last is an if whose body immediately returns, and the
// last statement is the tiebreak return.
func isIfChainComparator(stmts []ast.Stmt) bool {
	for i, stmt := range stmts {
		if i == len(stmts)-1 {
			_, ok := stmt.(*ast.ReturnStmt)
			return ok
		}
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || ifs.Else != nil || len(ifs.Body.List) != 1 {
			return false
		}
		if _, ok := ifs.Body.List[0].(*ast.ReturnStmt); !ok {
			return false
		}
	}
	return false
}

// wholeElementCompare reports whether the comparison is s[i] OP s[j] (in
// either parameter order) over the sorted slice itself.
func wholeElementCompare(slice ast.Expr, cmp *ast.FuncLit, be *ast.BinaryExpr) bool {
	params := cmp.Type.Params
	var names []string
	for _, f := range params.List {
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
	}
	if len(names) != 2 {
		return false
	}
	s := exprString(slice)
	x, y := exprString(be.X), exprString(be.Y)
	return (x == s+"["+names[0]+"]" && y == s+"["+names[1]+"]") ||
		(x == s+"["+names[1]+"]" && y == s+"["+names[0]+"]")
}
