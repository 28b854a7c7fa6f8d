package analysis

// Effect summaries and provenance classification: the dataflow substrate of
// pureselect.
//
// Provenance answers "whose memory does this expression reach?" for an
// lvalue or argument inside one function: the function's own locals
// (including locally allocated heap), its receiver, one of its parameters,
// package-level state, or unknown. The classification is heuristic in the
// direction the rules need: anything not provably local is treated as
// shared, so a hole costs a review, not a missed impurity.
//
// Effect summaries lift provenance across calls: each function gets the set
// of observable effects it can perform — writes that escape its own frame
// (classified by which caller-visible root they reach), I/O, banned
// nondeterminism calls, and unanalyzable dynamic calls — folded transitively
// over the call graph. A callee's write-through-parameter becomes an effect
// of the caller only if the caller passed something non-local in that
// position, which is what lets strings.Builder-style local mutation stay
// invisible while a write into a captured pool escapes.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// prov classifies what an expression's value can reach.
type prov uint8

const (
	// pLocal: the function's own frame or heap it allocated itself.
	pLocal prov = iota
	// pRecv: reaches the receiver.
	pRecv
	// pParam: reaches parameter provVal.param.
	pParam
	// pGlobal: reaches package-level state.
	pGlobal
	// pUnknown: anything the heuristics cannot place (call results, …);
	// treated as shared.
	pUnknown
)

func (p prov) String() string {
	switch p {
	case pLocal:
		return "local"
	case pRecv:
		return "receiver"
	case pParam:
		return "parameter"
	case pGlobal:
		return "package-level"
	}
	return "shared"
}

// provVal is a provenance value; param is meaningful for pParam.
type provVal struct {
	kind  prov
	param int
}

func localVal() provVal { return provVal{kind: pLocal} }

// isShared reports whether writing through this provenance escapes the
// function's own frame.
func (v provVal) isShared() bool { return v.kind != pLocal }

// provEnv is the provenance environment of one declared function: bindings
// for receiver, parameters, and locals whose initializer makes their
// provenance evident. Function literals share the enclosing environment
// (object identity keeps bindings unambiguous).
type provEnv struct {
	mod  *Module
	fi   *FuncInfo
	vals map[types.Object]provVal
}

// buildProvEnv constructs the environment. Local bindings are inferred in
// two sweeps so forward references settle.
func buildProvEnv(mod *Module, fi *FuncInfo) *provEnv {
	env := &provEnv{mod: mod, fi: fi, vals: map[types.Object]provVal{}}
	sig, _ := fi.Fn.Type().(*types.Signature)
	if sig != nil {
		if recv := sig.Recv(); recv != nil {
			env.vals[recv] = provVal{kind: pRecv}
		}
		for i := 0; i < sig.Params().Len(); i++ {
			env.vals[sig.Params().At(i)] = provVal{kind: pParam, param: i}
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if v := sig.Results().At(i); v.Name() != "" {
				env.vals[v] = localVal()
			}
		}
	}
	// Literal parameters default to pUnknown (values arrive from whoever
	// invokes the literal); bind them before the local sweeps so closure
	// bodies resolve.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		for _, field := range fl.Type.Params.List {
			for _, name := range field.Names {
				if obj := mod.Info.Defs[name]; obj != nil {
					if _, bound := env.vals[obj]; !bound {
						env.vals[obj] = provVal{kind: pUnknown}
					}
				}
			}
		}
		return true
	})
	for sweep := 0; sweep < 2; sweep++ {
		env.bindLocals(fi.Decl.Body)
	}
	return env
}

// bindLocals records provenance for local variables bound by :=, var, and
// range statements. Rebinding keeps the worse (more shared) value so a
// variable that ever held shared state stays shared.
func (env *provEnv) bindLocals(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := env.mod.Info.Defs[id]
				if obj == nil && s.Tok == token.ASSIGN {
					obj = env.mod.Info.Uses[id]
				}
				if obj == nil || !env.isLocalObj(obj) {
					continue
				}
				env.rebind(obj, env.provOf(s.Rhs[i]))
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					obj := env.mod.Info.Defs[name]
					if obj == nil {
						continue
					}
					if i < len(vs.Values) {
						env.rebind(obj, env.provOf(vs.Values[i]))
					} else {
						env.rebind(obj, localVal())
					}
				}
			}
		case *ast.RangeStmt:
			elem := env.provOf(s.X)
			if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
				if obj := env.mod.Info.Defs[id]; obj != nil {
					// Keys are values (ints, strings, map keys): local.
					env.rebind(obj, localVal())
				}
			}
			if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
				if obj := env.mod.Info.Defs[id]; obj != nil {
					// Elements inherit the collection's provenance: a
					// pointer ranged out of a shared slice is shared.
					env.rebind(obj, elem)
				}
			}
		}
		return true
	})
}

// rebind records val for obj, keeping the worse of the two on conflict.
func (env *provEnv) rebind(obj types.Object, val provVal) {
	cur, ok := env.vals[obj]
	if !ok {
		env.vals[obj] = val
		return
	}
	if provRank(val.kind) > provRank(cur.kind) {
		env.vals[obj] = val
	}
}

// provRank orders provenance by "badness" for rebinding: once shared,
// always shared.
func provRank(p prov) int {
	switch p {
	case pLocal:
		return 0
	case pRecv, pParam:
		return 1
	case pUnknown:
		return 2
	case pGlobal:
		return 3
	}
	return 2
}

// isLocalObj reports whether obj is function-local (not a package-level
// var), so assignments to it update the environment rather than count as
// global writes.
func (env *provEnv) isLocalObj(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	if v.Pkg() == nil {
		return true
	}
	return v.Parent() != v.Pkg().Scope()
}

// provOf classifies an expression.
func (env *provEnv) provOf(e ast.Expr) provVal {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := env.mod.Info.Uses[v]
		if obj == nil {
			obj = env.mod.Info.Defs[v]
		}
		if obj == nil {
			return provVal{kind: pUnknown}
		}
		if val, ok := env.vals[obj]; ok {
			return val
		}
		if !env.isLocalObj(obj) {
			if _, isVar := obj.(*types.Var); isVar {
				return provVal{kind: pGlobal}
			}
			return localVal() // consts, types, funcs
		}
		return localVal()
	case *ast.SelectorExpr:
		// Qualified package references (pkg.Var) root at the package.
		if id, ok := v.X.(*ast.Ident); ok {
			if _, isPkg := env.mod.Info.Uses[id].(*types.PkgName); isPkg {
				if _, isVar := env.mod.Info.Uses[v.Sel].(*types.Var); isVar {
					return provVal{kind: pGlobal}
				}
				return localVal()
			}
		}
		return env.provOf(v.X)
	case *ast.IndexExpr:
		return env.provOf(v.X)
	case *ast.SliceExpr:
		return env.provOf(v.X)
	case *ast.StarExpr:
		return env.provOf(v.X)
	case *ast.TypeAssertExpr:
		return env.provOf(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return env.provOf(v.X)
		}
		return localVal()
	case *ast.CompositeLit, *ast.BasicLit, *ast.FuncLit, *ast.BinaryExpr:
		return localVal()
	case *ast.CallExpr:
		fun := ast.Unparen(v.Fun)
		if tv, ok := env.mod.Info.Types[fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return env.provOf(v.Args[0]) // conversion
		}
		if id, ok := fun.(*ast.Ident); ok {
			if _, isBuiltin := env.mod.Info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "make", "new", "len", "cap", "min", "max":
					return localVal()
				case "append":
					if len(v.Args) > 0 {
						return env.provOf(v.Args[0])
					}
				}
			}
		}
		return provVal{kind: pUnknown}
	}
	return provVal{kind: pUnknown}
}

// writeProv classifies a write. Assigning to a bare identifier rebinds the
// variable — frame-local for locals, parameters, and named results whatever
// value they hold — while any path expression (selector, index, star) or a
// through-write reaches the value's memory and takes the value's
// provenance.
func (env *provEnv) writeProv(w write) provVal {
	if !w.through {
		if id, ok := ast.Unparen(w.target).(*ast.Ident); ok {
			obj := env.mod.Info.Uses[id]
			if obj == nil {
				obj = env.mod.Info.Defs[id]
			}
			if obj != nil && env.isLocalObj(obj) {
				return localVal()
			}
			return provVal{kind: pGlobal}
		}
	}
	return env.provOf(w.target)
}

// write is one store instruction: the written lvalue and its position.
// through marks writes that go THROUGH the value (delete/copy/append
// mutating a backing array) rather than rebinding the variable: a bare
// local ident is a frame-local rebind for `x = e` but a heap write for
// `copy(x, e)`.
type write struct {
	target  ast.Expr
	pos     token.Pos
	through bool
}

// writesIn collects every write in the subtree: assignment targets (:=
// bindings excluded — fresh locals), ++/--, and the mutating builtins
// (delete, copy, append's first argument).
func writesIn(node ast.Node) []write {
	var out []write
	ast.Inspect(node, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				out = append(out, write{target: lhs, pos: lhs.Pos()})
			}
		case *ast.IncDecStmt:
			out = append(out, write{target: s.X, pos: s.X.Pos()})
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "delete", "copy", "append":
					// append may mutate the backing array of its first
					// argument in place when capacity suffices.
					if len(s.Args) > 0 {
						out = append(out, write{target: s.Args[0], pos: s.Args[0].Pos(), through: true})
					}
				}
			}
		}
		return true
	})
	return out
}

// effKind classifies one observable effect.
type effKind uint8

const (
	// effWriteShared is a write that escapes the function's frame; via
	// says which caller-visible root it reaches.
	effWriteShared effKind = iota
	// effIO is an input/output call (fmt printing, os, log, …).
	effIO
	// effBanned is a banned nondeterminism call (math/rand, wall clock).
	effBanned
	// effDynamic is a call through a function value no module function
	// matches: unanalyzable, treated as arbitrary effects.
	effDynamic
)

// effect is one observable effect attributed to its originating site.
type effect struct {
	kind effKind
	pos  token.Pos
	desc string
	// via classifies the escape root in the CURRENT function's frame
	// (meaningful for effWriteShared).
	via provVal
	// originRel is the module-relative package where the effect originates
	// (the rng exemption keys on it).
	originRel string
}

// effectKey dedupes effects during folding.
type effectKey struct {
	kind  effKind
	pos   token.Pos
	via   prov
	param int
}

// effects computes and memoizes per-function effect summaries over the
// call graph.
type effects struct {
	mod   *Module
	graph *Graph
	memo  map[*FuncInfo][]effect
	// stackPos maps each in-progress frame to its depth on the computation
	// stack, so a recursion cut can say how far up the cycle reaches.
	stackPos map[*FuncInfo]int
	depth    int
	// calls maps each call site (Lparen) to its expression, per function.
	calls map[*FuncInfo]map[token.Pos]*ast.CallExpr
}

func newEffects(mod *Module, graph *Graph) *effects {
	return &effects{
		mod:      mod,
		graph:    graph,
		memo:     map[*FuncInfo][]effect{},
		stackPos: map[*FuncInfo]int{},
		calls:    map[*FuncInfo]map[token.Pos]*ast.CallExpr{},
	}
}

// callSites indexes fi's call expressions by Lparen.
func (ef *effects) callSites(fi *FuncInfo) map[token.Pos]*ast.CallExpr {
	if m, ok := ef.calls[fi]; ok {
		return m
	}
	m := map[token.Pos]*ast.CallExpr{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			m[call.Lparen] = call
		}
		return true
	})
	ef.calls[fi] = m
	return m
}

// of returns fi's transitive effect summary.
func (ef *effects) of(fi *FuncInfo) []effect {
	out, _ := ef.summarize(fi)
	return out
}

// noCut is the "no recursion cut happened" sentinel depth.
const noCut = int(^uint(0) >> 1)

// summarize computes fi's transitive summary and the lowest stack depth any
// recursion cut inside it reached (noCut if none). Recursion is cut at the
// in-progress frame: a cycle's fixed point adds no effect beyond the union
// of its members' local effects, which one unrolling collects — but only
// the cycle's ENTRY frame sees the whole unrolling. Frames reached mid-cycle
// have partial summaries (missing the effects of everything above the cut),
// so only a frame no cut reaches from below is memoized; interior members
// are recomputed from a clean stack when a later caller needs them.
func (ef *effects) summarize(fi *FuncInfo) ([]effect, int) {
	if cached, ok := ef.memo[fi]; ok {
		return cached, noCut
	}
	if pos, ok := ef.stackPos[fi]; ok {
		return nil, pos
	}
	myDepth := ef.depth
	ef.stackPos[fi] = myDepth
	ef.depth++
	defer func() {
		delete(ef.stackPos, fi)
		ef.depth--
	}()
	low := noCut

	env := buildProvEnv(ef.mod, fi)
	seen := map[effectKey]bool{}
	var out []effect
	add := func(e effect) {
		key := effectKey{kind: e.kind, pos: e.pos, via: e.via.kind, param: e.via.param}
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}

	// Local writes that escape the frame.
	for _, w := range writesIn(fi.Decl.Body) {
		val := env.writeProv(w)
		if !val.isShared() {
			continue
		}
		add(effect{
			kind:      effWriteShared,
			pos:       w.pos,
			desc:      "writes " + exprString(w.target) + " (" + val.kind.String() + " state)",
			via:       val,
			originRel: fi.Pkg.Rel,
		})
	}

	// External (standard-library) calls: I/O, banned sources, and
	// writes through pointer-shaped arguments.
	sites := ef.callSites(fi)
	for _, ext := range ef.graph.External[fi] {
		name := extDisplayName(ext.Fn)
		switch {
		case isIOFunc(ext.Fn):
			add(effect{kind: effIO, pos: ext.Pos, desc: "calls " + name + " (I/O)", originRel: fi.Pkg.Rel})
		case isBannedFunc(ext.Fn) && fi.Pkg.Rel != "internal/rng":
			add(effect{kind: effBanned, pos: ext.Pos, desc: "calls " + name + " (banned nondeterminism source)", originRel: fi.Pkg.Rel})
		}
		call := sites[ext.Pos]
		if call == nil {
			continue
		}
		for _, arg := range externalPointerArgs(ef.mod, call) {
			val := env.provOf(arg)
			if !val.isShared() {
				continue
			}
			add(effect{
				kind:      effWriteShared,
				pos:       ext.Pos,
				desc:      name + " may write through " + exprString(arg) + " (" + val.kind.String() + " state)",
				via:       val,
				originRel: fi.Pkg.Rel,
			})
		}
	}

	// Builtin print/println are I/O but never reach the call graph.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := ef.mod.Info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "print" || id.Name == "println") {
				add(effect{kind: effIO, pos: call.Lparen, desc: "calls builtin " + id.Name + " (I/O)", originRel: fi.Pkg.Rel})
			}
		}
		return true
	})

	// Unanalyzable dynamic calls.
	for _, pos := range ef.graph.Unresolved[fi] {
		add(effect{kind: effDynamic, pos: pos, desc: "calls a dynamic callee (function value or interface) no module function matches", originRel: fi.Pkg.Rel})
	}

	// Fold callee summaries through each call site.
	for _, edge := range ef.graph.Edges[fi] {
		ces, cl := ef.summarize(edge.To)
		if cl < low {
			low = cl
		}
		for _, ce := range ces {
			switch ce.kind {
			case effIO, effBanned, effDynamic:
				add(ce)
			case effWriteShared:
				mapped, keep := ef.mapCalleeWrite(env, fi, edge, ce)
				if keep {
					add(mapped)
				}
			}
		}
	}

	if low >= myDepth {
		// No cycle reaches above this frame: fi is outside every cycle, or
		// is the entry of each cycle that cut back to it, so the unrolling
		// above collected the members' union and the summary is complete.
		ef.memo[fi] = out
		low = noCut
	}
	return out, low
}

// mapCalleeWrite translates a callee's escaping write into the caller's
// frame through the call-site arguments: a write through the callee's
// receiver/parameter escapes the caller only if the caller passed something
// non-local there.
func (ef *effects) mapCalleeWrite(env *provEnv, fi *FuncInfo, edge Edge, ce effect) (effect, bool) {
	switch ce.via.kind {
	case pGlobal, pUnknown:
		return ce, true
	}
	if edge.Kind == EdgeFunc {
		// Calls through function values lose the receiver binding; stay
		// conservative.
		ce.via = provVal{kind: pUnknown}
		return ce, true
	}
	call := ef.callSites(fi)[edge.Pos]
	if call == nil {
		ce.via = provVal{kind: pUnknown}
		return ce, true
	}
	arg := callArgExpr(ef.mod, call, edge.To, ce.via)
	if arg == nil {
		ce.via = provVal{kind: pUnknown}
		return ce, true
	}
	val := env.provOf(arg)
	if !val.isShared() {
		return effect{}, false
	}
	ce.via = val
	return ce, true
}

// callArgExpr finds the caller expression feeding the callee's receiver or
// i'th parameter at this call site.
func callArgExpr(mod *Module, call *ast.CallExpr, callee *FuncInfo, via provVal) ast.Expr {
	sig, _ := callee.Fn.Type().(*types.Signature)
	if via.kind == pRecv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	idx := via.param
	if sig != nil && sig.Variadic() && idx >= sig.Params().Len()-1 {
		idx = sig.Params().Len() - 1
	}
	// Method expressions (T.M)(recv, args…) shift everything by one; they
	// resolve as static funcs with a receiver but a plain Fun. Detect by
	// argument count.
	if sig != nil && sig.Recv() != nil {
		if _, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); !isSel && len(call.Args) == sig.Params().Len()+1 {
			idx++
		}
	}
	if idx >= 0 && idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// externalPointerArgs returns the call's arguments (receiver included)
// whose types let the callee write through them: pointers, slices, and
// maps. Interfaces are excluded — the overwhelmingly common stdlib
// interface arguments (fmt verbs) read, and flagging them would drown the
// signal.
func externalPointerArgs(mod *Module, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	consider := func(e ast.Expr) {
		t := mod.Info.TypeOf(e)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
			out = append(out, e)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// Method receiver, unless X is just a package qualifier.
		if id, isIdent := sel.X.(*ast.Ident); !isIdent {
			consider(sel.X)
		} else if _, isPkg := mod.Info.Uses[id].(*types.PkgName); !isPkg {
			consider(sel.X)
		}
	}
	for _, arg := range call.Args {
		consider(arg)
	}
	return out
}

// extDisplayName renders an external function for messages: "time.Now",
// "(*strings.Builder).WriteString".
func extDisplayName(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return p.Name() })
		return "(" + recv + ")." + fn.Name()
	}
	return pkg.Name() + "." + fn.Name()
}

// isIOFunc reports whether the external function performs I/O.
func isIOFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "os", "log", "net", "net/http", "syscall", "io/ioutil":
		return true
	case "fmt":
		name := fn.Name()
		return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
			strings.HasPrefix(name, "Scan") || strings.HasPrefix(name, "Fscan")
	case "io":
		switch fn.Name() {
		case "Copy", "CopyN", "CopyBuffer", "WriteString", "ReadAll", "ReadFull", "Pipe":
			return true
		}
	}
	return false
}

// isBannedFunc reports whether the external function is a banned
// nondeterminism source (math/rand, wall-clock reads).
func isBannedFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	return isRandPath(pkg.Path()) || isWallClock(pkg.Path(), fn.Name())
}
