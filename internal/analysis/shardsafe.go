package analysis

// ShardSafe is the whole-program shard-ownership rule. sim.Engine.Fanout is
// the module's only sanctioned intra-event concurrency primitive: N workers
// run one closure inside a single event, and the determinism/race contract
// (DESIGN.md, internal/condor/shard.go) is that worker k writes only state
// it owns — its own locals and values derived from the shard index k.
//
// The rule verifies that contract structurally. For each Fanout call site it
// takes the worker closure, marks the index parameter as shard-OWNED, and
// propagates ownership through the closure's provenance environment:
//
//   - indexing any table by an owned value yields owned state
//     (shards[k], tab[sh.lo]);
//   - slicing a shared table with owned bounds yields the shard's own
//     partition (p.machines[sh.lo:sh.hi]);
//   - ranging over an owned collection yields owned elements.
//
// Writes whose root is neither worker-local nor owned are flagged —
// including writes to locals of the enclosing function captured by the
// worker closure, which are one variable shared by every worker — as are
// I/O calls, stdlib calls that may write through shared pointer arguments,
// and dynamic calls no module function matches. Module
// calls are followed transitively — including interface dispatch and
// function-value candidates — re-deriving ownership for the callee from the
// provenance of the arguments at each call site, so a helper that writes
// its receiver is fine when the receiver is the worker's shard and a race
// when it is the shared pool. Callees in internal/sim itself are exempt:
// the engine's own fan-out machinery is the sanctioned primitive.
//
// Findings are attributed to the offending site (primary position) and the
// Fanout call site (entry position); an ignore directive at either
// suppresses.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardSafe is the whole-program Fanout ownership rule.
var ShardSafe = &WholeAnalyzer{
	Name: "shardsafe",
	Doc: "closures passed to sim.Engine.Fanout may write only shard-owned " +
		"state (locals and values derived from the shard index), " +
		"transitively through every call",
	Run: runShardSafe,
}

const fanoutFullName = "(*" + ModulePath + "/internal/sim.Engine).Fanout"

func runShardSafe(p *ModulePass) {
	sc := &shardChecker{
		p:        p,
		ef:       newEffects(p.Mod, p.Graph),
		visiting: map[shardVisitKey]bool{},
		reported: map[shardReportKey]bool{},
		edgesAt:  map[*FuncInfo]map[token.Pos][]Edge{},
		extAt:    map[*FuncInfo]map[token.Pos][]ExtCall{},
		unresAt:  map[*FuncInfo]map[token.Pos]bool{},
	}
	for _, fi := range p.Mod.Funcs {
		if fi.Pkg.Rel == "internal/sim" {
			continue // the engine's own fan-out is the sanctioned primitive
		}
		seenPos := map[token.Pos]bool{}
		for _, edge := range p.Graph.Edges[fi] {
			if seenPos[edge.Pos] || edge.To.Fn.FullName() != fanoutFullName {
				continue
			}
			seenPos[edge.Pos] = true
			sc.checkFanoutSite(fi, edge.Pos)
		}
	}
}

// shardVisitKey memoizes transitive callee checks per ownership mask (bit 0
// is the receiver, bit 1+i parameter i) and per entry site, so a violating
// callee reached from a second Fanout entry is re-reported there — an
// ignore directive at one entry must not cover the other.
type shardVisitKey struct {
	fi    *FuncInfo
	mask  uint64
	entry token.Pos
}

type shardReportKey struct {
	pos   token.Pos
	entry token.Pos
}

type shardChecker struct {
	p  *ModulePass
	ef *effects

	visiting map[shardVisitKey]bool
	reported map[shardReportKey]bool

	edgesAt map[*FuncInfo]map[token.Pos][]Edge
	extAt   map[*FuncInfo]map[token.Pos][]ExtCall
	unresAt map[*FuncInfo]map[token.Pos]bool
}

func (sc *shardChecker) report(pos, entry token.Pos, msg string) {
	key := shardReportKey{pos: pos, entry: entry}
	if sc.reported[key] {
		return
	}
	sc.reported[key] = true
	sc.p.Report(Finding{
		Pos:     sc.p.Position(pos),
		Rule:    "shardsafe",
		Message: msg,
		Entry:   sc.p.Position(entry),
	})
}

// siteMaps lazily indexes fi's edges, external calls, and unresolved call
// sites by position.
func (sc *shardChecker) siteMaps(fi *FuncInfo) (map[token.Pos][]Edge, map[token.Pos][]ExtCall, map[token.Pos]bool) {
	if m, ok := sc.edgesAt[fi]; ok {
		return m, sc.extAt[fi], sc.unresAt[fi]
	}
	edges := map[token.Pos][]Edge{}
	for _, e := range sc.p.Graph.Edges[fi] {
		edges[e.Pos] = append(edges[e.Pos], e)
	}
	exts := map[token.Pos][]ExtCall{}
	for _, e := range sc.p.Graph.External[fi] {
		exts[e.Pos] = append(exts[e.Pos], e)
	}
	unres := map[token.Pos]bool{}
	for _, pos := range sc.p.Graph.Unresolved[fi] {
		unres[pos] = true
	}
	sc.edgesAt[fi] = edges
	sc.extAt[fi] = exts
	sc.unresAt[fi] = unres
	return edges, exts, unres
}

// checkFanoutSite verifies the worker closure at one Fanout call.
func (sc *shardChecker) checkFanoutSite(fi *FuncInfo, pos token.Pos) {
	call := sc.ef.callSites(fi)[pos]
	if call == nil || len(call.Args) < 2 {
		return
	}
	entry := call.Lparen
	worker := ast.Unparen(call.Args[1])
	lit, ok := worker.(*ast.FuncLit)
	if !ok {
		sc.report(worker.Pos(), entry,
			"pass the Fanout worker as a func literal at the call site so its shard writes can be verified")
		return
	}
	overrides := map[types.Object]provVal{}
	if params := lit.Type.Params; params != nil && len(params.List) > 0 && len(params.List[0].Names) > 0 {
		if obj := sc.p.Mod.Info.Defs[params.List[0].Names[0]]; obj != nil {
			overrides[obj] = provVal{kind: pOwned}
		}
	}
	env := buildProvEnv(sc.p.Mod, fi, overrides)
	// Locals of the enclosing function captured by the worker are ONE
	// variable shared by every shard worker: demote them from frame-local
	// to captured so their writes are flagged.
	env.restrictToLiteral(lit)
	sc.checkRegion(fi, env, lit.Body, entry)
}

// checkRegion flags shared writes, I/O, and unanalyzable calls inside one
// AST region of fi (a closure body or a whole callee body), recursing into
// module callees with re-derived ownership.
func (sc *shardChecker) checkRegion(fi *FuncInfo, env *provEnv, region ast.Node, entry token.Pos) {
	for _, w := range writesIn(region) {
		val := env.writeProv(w)
		if val.isShared() {
			sc.report(w.pos, entry,
				"Fanout worker writes "+exprString(w.target)+" ("+val.kind.String()+
					" state, not shard-owned): concurrent shard workers would race")
		}
	}
	_, exts, unres := sc.siteMaps(fi)
	calls := map[token.Pos]*ast.CallExpr{}
	ast.Inspect(region, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pos := call.Lparen
		calls[pos] = call
		for _, ext := range exts[pos] {
			if isIOFunc(ext.Fn) {
				sc.report(pos, entry, "Fanout worker calls "+extDisplayName(ext.Fn)+" (I/O is not shard-safe)")
			}
		}
		if len(exts[pos]) > 0 {
			for _, arg := range externalPointerArgs(sc.p.Mod, call) {
				val := env.provOf(arg)
				if val.isShared() {
					sc.report(pos, entry,
						"Fanout worker passes "+exprString(arg)+" ("+val.kind.String()+
							" state) to a standard-library call that may write through it")
				}
			}
		}
		if unres[pos] {
			sc.report(pos, entry,
				"Fanout worker calls a dynamic callee (function value or interface) no module function matches; its writes cannot be verified")
		}
		return true
	})
	// Follow every edge anchored inside the region: calls (mask derived from
	// the call-site arguments) and taker edges (a function value taken here
	// can run on this worker; nothing is provably owned for it).
	for _, edge := range regionEdges(sc.p.Graph, fi, region) {
		if edge.To.Pkg.Rel == "internal/sim" {
			continue // the engine's own machinery is the sanctioned primitive
		}
		var mask uint64
		if call := calls[edge.Pos]; call != nil {
			mask = sc.callMask(env, call, edge)
		}
		sc.checkCallee(edge.To, mask, entry)
	}
}

// regionEdges returns fi's outgoing edges anchored within the region span.
func regionEdges(g *Graph, fi *FuncInfo, region ast.Node) []Edge {
	var out []Edge
	for _, e := range g.Edges[fi] {
		if e.Pos >= region.Pos() && e.Pos < region.End() {
			out = append(out, e)
		}
	}
	return out
}

// callMask derives the callee's ownership mask from the provenance of the
// call-site arguments: a receiver or parameter fed something local or owned
// is safe for the callee to write through.
func (sc *shardChecker) callMask(env *provEnv, call *ast.CallExpr, edge Edge) uint64 {
	sig, _ := edge.To.Fn.Type().(*types.Signature)
	if sig == nil || edge.Kind == EdgeFunc {
		// A call through a function value loses the receiver binding;
		// nothing is provably owned.
		return 0
	}
	var mask uint64
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if !env.provOf(sel.X).isShared() {
				mask |= 1
			}
		}
	}
	np := sig.Params().Len()
	for i := 0; i < np && i < 62; i++ {
		owned := false
		if sig.Variadic() && i == np-1 {
			owned = true
			for j := i; j < len(call.Args); j++ {
				if env.provOf(call.Args[j]).isShared() {
					owned = false
					break
				}
			}
		} else if i < len(call.Args) {
			owned = !env.provOf(call.Args[i]).isShared()
		}
		if owned {
			mask |= 1 << uint(i+1)
		}
	}
	return mask
}

// checkCallee verifies a transitively-reached function under the given
// ownership mask.
func (sc *shardChecker) checkCallee(fi *FuncInfo, mask uint64, entry token.Pos) {
	key := shardVisitKey{fi: fi, mask: mask, entry: entry}
	if sc.visiting[key] {
		return
	}
	sc.visiting[key] = true

	overrides := map[types.Object]provVal{}
	sig, _ := fi.Fn.Type().(*types.Signature)
	if sig != nil {
		if recv := sig.Recv(); recv != nil && mask&1 != 0 {
			overrides[recv] = provVal{kind: pOwned}
		}
		for i := 0; i < sig.Params().Len() && i < 62; i++ {
			if mask&(1<<uint(i+1)) != 0 {
				overrides[sig.Params().At(i)] = provVal{kind: pOwned}
			}
		}
	}
	env := buildProvEnv(sc.p.Mod, fi, overrides)
	sc.checkRegion(fi, env, fi.Decl.Body, entry)
}
