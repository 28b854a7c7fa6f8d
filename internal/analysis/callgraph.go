package analysis

// Package-level call graph over the type-checked module. dettaint walks it
// forward from the sim-path entry points.
//
// Resolution is deliberately conservative (a missed edge would be an
// unsound hole, a spurious edge only costs review):
//
//   - direct calls and concrete method calls produce exactly one edge;
//   - a call through an interface method produces one edge per module type
//     implementing the interface (class-hierarchy analysis);
//   - a call through a function-typed value (field, variable, parameter)
//     produces one edge per module function whose value is taken somewhere
//     in the module and whose signature matches.
//
// Function literals are not graph nodes: their bodies belong to the
// enclosing declared function, which is where a reviewer would look.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Edge is one resolved call: the target and the call position.
type Edge struct {
	To  *FuncInfo
	Pos token.Pos
}

// Graph is the module call graph.
type Graph struct {
	Mod *Module
	// Edges lists each declared function's resolved outgoing calls in
	// source order.
	Edges map[*FuncInfo][]Edge

	// addrTaken maps module functions whose value escapes a direct call
	// position (assigned, passed, stored) — the candidates of a call
	// through a function-typed value.
	addrTaken map[*types.Func]bool
	// impls caches CHA lookups per (interface, method name).
	implCache map[implKey][]*FuncInfo
	// named lists every defined (non-interface) type in the module.
	named []*types.Named
}

type implKey struct {
	iface *types.Interface
	name  string
}

// BuildGraph constructs the call graph for a type-checked module.
func BuildGraph(mod *Module) *Graph {
	g := &Graph{
		Mod:       mod,
		Edges:     map[*FuncInfo][]Edge{},
		addrTaken: map[*types.Func]bool{},
		implCache: map[implKey][]*FuncInfo{},
	}
	g.collectNamed()
	g.collectAddressTaken()
	for _, fi := range mod.Funcs {
		g.addCalls(fi)
		g.addTakerEdges(fi)
	}
	return g
}

// addTakerEdges adds an edge from fi to every module function whose VALUE
// fi takes (passes as an argument, stores in a field, binds to a variable).
// The taken function can then run wherever the value flows — including
// through function-typed parameters, which addCalls deliberately does not
// resolve by signature — so its reachability is charged to the taker, the
// one place that provably chose it.
func (g *Graph) addTakerEdges(fi *FuncInfo) {
	info := g.Mod.Info
	callee := map[ast.Expr]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			markCallee(callee, call.Fun)
		}
		return true
	})
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		var obj types.Object
		var pos token.Pos
		switch e := n.(type) {
		case *ast.Ident:
			if callee[ast.Expr(e)] {
				return true
			}
			obj = info.Uses[e]
			pos = e.Pos()
		case *ast.SelectorExpr:
			if callee[ast.Expr(e)] {
				return true
			}
			obj = info.Uses[e.Sel]
			pos = e.Sel.Pos()
		default:
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			if target, inModule := g.Mod.FuncOf[fn]; inModule {
				g.Edges[fi] = append(g.Edges[fi], Edge{To: target, Pos: pos})
			}
		}
		return true
	})
}

// collectNamed gathers every defined type in the module for CHA.
func (g *Graph) collectNamed() {
	for _, path := range sortedKeys(g.Mod.TPkg) {
		scope := g.Mod.TPkg[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				if !types.IsInterface(named) {
					g.named = append(g.named, named)
				}
			}
		}
	}
}

// markCallee records every sub-expression of a call's Fun that names the
// callee — the selector, its Sel ident, and the base of a generic
// instantiation — so the address-taken walks can skip them. (ast.Inspect
// descends into a selector's children, so excluding only the outer
// expression would still count the Sel ident as a taken reference.)
func markCallee(set map[ast.Expr]bool, fun ast.Expr) {
	fun = ast.Unparen(fun)
	set[fun] = true
	switch e := fun.(type) {
	case *ast.SelectorExpr:
		set[ast.Expr(e.Sel)] = true
	case *ast.IndexExpr:
		markCallee(set, e.X)
	case *ast.IndexListExpr:
		markCallee(set, e.X)
	}
}

// collectAddressTaken marks every module function referenced outside the
// callee position of a call: those are the functions a function-typed value
// can hold.
func (g *Graph) collectAddressTaken() {
	for _, pkg := range g.Mod.Pkgs {
		for _, file := range pkg.Files {
			// First collect the expressions that ARE direct callee positions.
			callee := map[ast.Expr]bool{}
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					markCallee(callee, call.Fun)
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				var obj types.Object
				switch e := n.(type) {
				case *ast.Ident:
					if callee[ast.Expr(e)] {
						return true
					}
					obj = g.Mod.Info.Uses[e]
				case *ast.SelectorExpr:
					if callee[ast.Expr(e)] {
						return true
					}
					obj = g.Mod.Info.Uses[e.Sel]
				default:
					return true
				}
				if fn, ok := obj.(*types.Func); ok {
					if _, inModule := g.Mod.FuncOf[fn]; inModule {
						g.addrTaken[fn] = true
					}
				}
				return true
			})
		}
	}
}

// addCalls resolves every call expression lexically inside fi's declaration
// (function literals included) into edges.
func (g *Graph) addCalls(fi *FuncInfo) {
	info := g.Mod.Info
	litOnly, paramFn := funcValueBindings(info, fi)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)

		// Conversions and builtin calls are not calls for our purposes.
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return true
		}
		switch callee := calleeObject(info, fun).(type) {
		case *types.Builtin:
			return true
		case *types.Func:
			sig, _ := callee.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				// Interface method call: fan out to every implementation.
				iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
				for _, impl := range g.Implementations(iface, callee.Name()) {
					g.Edges[fi] = append(g.Edges[fi], Edge{To: impl, Pos: call.Lparen})
				}
				return true
			}
			if target, ok := g.Mod.FuncOf[callee]; ok {
				g.Edges[fi] = append(g.Edges[fi], Edge{To: target, Pos: call.Lparen})
			}
			return true
		case nil:
			// A call through a function-typed value.
			if id, ok := fun.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if litOnly[obj] {
						// A local bound only to function literals: the
						// literal bodies are lexically inside fi, so their
						// calls and writes are already attributed here.
						// Candidate matching would only add spurious edges.
						return true
					}
					if paramFn[obj] {
						// A call through a function-typed parameter is
						// covered at each VALUE ORIGIN, not here: a module
						// function flowing in produced a taker edge where
						// its value was taken, a literal's calls belong to
						// its defining function, and an external function
						// (math.Floor) calls no module code. Matching
						// candidates by signature here would wire every
						// taken function of this shape into every such
						// caller.
						return true
					}
				}
			}
			tv, ok := info.Types[fun]
			if !ok {
				return true
			}
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				return true
			}
			for _, cand := range g.funcValueCandidates(sig) {
				g.Edges[fi] = append(g.Edges[fi], Edge{To: cand, Pos: call.Lparen})
			}
			return true
		}
		return true
	})
}

// funcValueBindings classifies fi's function-typed objects for call
// resolution: litOnly holds locals only ever bound to function literals
// inside this body (calls through them are covered inline); paramFn holds
// the parameters of the declaration and of every nested literal.
func funcValueBindings(info *types.Info, fi *FuncInfo) (litOnly, paramFn map[types.Object]bool) {
	litBound := map[types.Object]bool{}
	otherBound := map[types.Object]bool{}
	paramFn = map[types.Object]bool{}

	addParams := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					paramFn[obj] = true
				}
			}
		}
	}
	addParams(fi.Decl.Type.Params)

	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, isLit := ast.Unparen(rhs).(*ast.FuncLit); isLit {
			litBound[obj] = true
		} else {
			otherBound[obj] = true
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			addParams(s.Type.Params)
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					bind(s.Lhs[i], s.Rhs[i])
				}
			} else {
				for _, lhs := range s.Lhs {
					bind(lhs, s.Rhs[0]) // multi-value: never a literal
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					bind(name, s.Values[i])
				}
			}
		}
		return true
	})

	litOnly = map[types.Object]bool{}
	for obj := range litBound {
		if !otherBound[obj] {
			litOnly[obj] = true
		}
	}
	return litOnly, paramFn
}

// calleeObject resolves the object a call's Fun expression names, or nil
// when the callee is a computed function value.
func calleeObject(info *types.Info, fun ast.Expr) types.Object {
	switch e := fun.(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			switch obj.(type) {
			case *types.Func, *types.Builtin:
				return obj
			}
		}
	case *ast.SelectorExpr:
		if obj := info.Uses[e.Sel]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	case *ast.IndexExpr:
		// Instantiated generic function: resolve the underlying ident.
		return calleeObject(info, ast.Unparen(e.X))
	case *ast.IndexListExpr:
		return calleeObject(info, ast.Unparen(e.X))
	}
	return nil
}

// Implementations returns the module functions implementing the named method
// of the interface, across every defined type in the module (value and
// pointer receivers alike), in deterministic order.
func (g *Graph) Implementations(iface *types.Interface, method string) []*FuncInfo {
	if iface == nil {
		return nil
	}
	key := implKey{iface: iface, name: method}
	if cached, ok := g.implCache[key]; ok {
		return cached
	}
	var out []*FuncInfo
	for _, named := range g.named {
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			if fi, ok := g.Mod.FuncOf[fn]; ok {
				out = append(out, fi)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	g.implCache[key] = out
	return out
}

// funcValueCandidates returns the address-taken module functions whose
// (receiver-stripped) signature matches sig, in deterministic order.
func (g *Graph) funcValueCandidates(sig *types.Signature) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range g.Mod.Funcs {
		if !g.addrTaken[fi.Fn] {
			continue
		}
		cand, _ := fi.Fn.Type().(*types.Signature)
		if cand == nil {
			continue
		}
		if cand.Recv() != nil {
			// A method's value (m.F) has the receiver bound: compare the
			// remaining signature.
			cand = types.NewSignatureType(nil, nil, nil, cand.Params(), cand.Results(), cand.Variadic())
		}
		if types.Identical(cand, sig) {
			out = append(out, fi)
		}
	}
	return out
}

// chainStep records how the BFS first reached a function.
type chainStep struct {
	from *FuncInfo
	pos  token.Pos // call site inside from
}

// Reachability is the result of a multi-root BFS: for every function
// reachable from the root set, the predecessor step on a shortest chain.
type Reachability struct {
	g *Graph
	// First maps each reached function to the step that discovered it;
	// roots map to a zero step.
	first map[*FuncInfo]chainStep
	roots map[*FuncInfo]bool
}

// ReachableFrom runs a deterministic breadth-first search from the given
// roots over every edge kind.
func (g *Graph) ReachableFrom(roots []*FuncInfo) *Reachability {
	r := &Reachability{
		g:     g,
		first: map[*FuncInfo]chainStep{},
		roots: map[*FuncInfo]bool{},
	}
	ordered := append([]*FuncInfo(nil), roots...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Decl.Pos() < ordered[j].Decl.Pos() })
	var queue []*FuncInfo
	for _, root := range ordered {
		if !r.roots[root] {
			r.roots[root] = true
			r.first[root] = chainStep{}
			queue = append(queue, root)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.Edges[cur] {
			if _, seen := r.first[e.To]; seen {
				continue
			}
			r.first[e.To] = chainStep{from: cur, pos: e.Pos}
			queue = append(queue, e.To)
		}
	}
	return r
}

// Reaches reports whether fn is reachable from the root set.
func (r *Reachability) Reaches(fn *FuncInfo) bool {
	_, ok := r.first[fn]
	return ok
}

// Chain reconstructs a shortest call chain root → … → fn. The first element
// is a sim-path (root) function; each element carries the call position
// inside the PREVIOUS element that advances the chain (the root's pos is
// the call site inside the root).
type ChainLink struct {
	Fn  *FuncInfo
	Pos token.Pos // call site inside Fn toward the next link; NoPos on the last
}

// Chain returns the shortest discovered chain ending at fn, or nil if fn is
// unreachable.
func (r *Reachability) Chain(fn *FuncInfo) []ChainLink {
	if !r.Reaches(fn) {
		return nil
	}
	var rev []ChainLink
	cur := fn
	var nextPos token.Pos = token.NoPos
	for {
		rev = append(rev, ChainLink{Fn: cur, Pos: nextPos})
		step := r.first[cur]
		if step.from == nil {
			break
		}
		nextPos = step.pos
		cur = step.from
	}
	out := make([]ChainLink, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

func sortedKeys[M map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
