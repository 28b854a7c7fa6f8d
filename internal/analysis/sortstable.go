package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SortStable flags sort.Slice and slices.SortFunc calls whose comparator
// can produce ties in scheduling and ordering paths.
//
// Both sorts are unstable: elements comparing equal land in an order that
// depends on the pdqsort pivot choices, which in turn depend on the input
// permutation. A single-key comparator over job values or arrival times
// therefore makes "which of two equal-priority jobs goes first" an
// accident of history — exactly the kind of hidden state the replayable
// chaos triples forbid. Use sort.SliceStable (slices.SortStableFunc), or
// extend the comparator with a total-order tiebreak (job ID, name).
//
// Comparators the analyzer can prove tie-free are not flagged: a direct
// whole-element comparison (`s[i] < s[j]`, or `cmp.Compare(a, b)` and
// `a - b` for slices.SortFunc; equal elements are interchangeable), and
// chained comparators (`… || …` / `… && …`, cmp.Or), which are taken as
// already carrying a tiebreak. For slices.SortFunc a single-key
// three-way comparison — `a.v - b.v`, `cmp.Compare(a.v, b.v)` or any
// other two-argument Compare — is tie-prone.
var SortStable = &Analyzer{
	Name: "sortstable",
	Doc: "flag sort.Slice and slices.SortFunc with potentially tie-producing " +
		"comparators in scheduling paths; use the stable sort or a total-order tiebreak",
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
			path, name, _ := pkgMember(pass.Info, uninstantiate(call.Fun))
			var sortFn, stableFn string
			switch {
			case path == "sort" && name == "Slice":
				sortFn, stableFn = "sort.Slice", "sort.SliceStable"
			case path == "slices" && name == "SortFunc":
				sortFn, stableFn = "slices.SortFunc", "slices.SortStableFunc"
			default:
				return true
			}
			cmp, ok := call.Args[1].(*ast.FuncLit)
			if !ok {
				pass.Reportf("sortstable", call.Pos(),
					"%s with an opaque comparator; use %s or prove the order total", sortFn, stableFn)
				return true
			}
			indexed := sortFn == "sort.Slice"
			if reason, tieProne := comparatorTieProne(pass.Info, call.Args[0], cmp, indexed); tieProne {
				pass.Reportf("sortstable", call.Pos(),
					"%s comparator %s; use %s or add a total-order tiebreak",
					sortFn, reason, stableFn)
			}
			return true
		})
	}
}

// comparatorTieProne inspects the comparator body: sort.Slice's less(i, j)
// over indexes (indexed) or slices.SortFunc's cmp(a, b) over elements. It
// returns tieProne = false only for shapes that provably cannot reorder
// distinct equal-key elements (or that visibly carry their own tiebreak).
func comparatorTieProne(info *types.Info, slice ast.Expr, cmp *ast.FuncLit, indexed bool) (string, bool) {
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
	var x, y ast.Expr // the two sides of a single-key comparison
	switch e := ret.Results[0].(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR:
			// A chained comparator is taken as carrying its own tiebreak.
			return "", false
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.SUB:
			x, y = e.X, e.Y
		}
	case *ast.CallExpr:
		if path, name, ok := pkgMember(info, uninstantiate(e.Fun)); ok && path == "cmp" && name == "Or" {
			// cmp.Or(key, tiebreak, …) chains three-way comparisons.
			return "", false
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Compare" && len(e.Args) == 2 {
			x, y = e.Args[0], e.Args[1]
		}
	}
	if x == nil {
		return "is not a comparison the analyzer recognizes as tie-free", true
	}
	if wholeElementCompare(slice, cmp, indexed, x, y) {
		// s[i] < s[j] or cmp.Compare(a, b): equal elements are identical
		// values, so any relative order of ties is indistinguishable.
		return "", false
	}
	return "compares a single key (" + exprString(x) + " vs " + exprString(y) + "), which can tie", true
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

// wholeElementCompare reports whether the comparison's sides x and y are
// the two elements themselves, in either parameter order: s[i] and s[j]
// over the sorted slice when the parameters are indexes, else the two
// element parameters.
func wholeElementCompare(slice ast.Expr, cmp *ast.FuncLit, indexed bool, x, y ast.Expr) bool {
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
	a, b := names[0], names[1]
	if indexed {
		s := exprString(slice)
		a, b = s+"["+a+"]", s+"["+b+"]"
	}
	xs, ys := exprString(x), exprString(y)
	return (xs == a && ys == b) || (xs == b && ys == a)
}
