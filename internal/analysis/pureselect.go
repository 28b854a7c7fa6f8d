package analysis

// PureSelect is the whole-program purity rule for the two function families
// whose contracts demand observable purity:
//
//   - classad.Match: the negotiator memoizes one verdict per (autocluster,
//     machine-ad version) and serves it to every job of the cluster, while
//     the DisableMatchCache oracle evaluates every (job, machine) pair. Any
//     observable effect — an escaping write, I/O, a nondeterminism source —
//     would fire a different number of times on the two paths and become a
//     replay divergence. Match is held strictly pure.
//
//   - every implementation of a module interface with a Select method (the
//     Policy family) or a SelectN method (condor.IndexSelector): the fast
//     negotiator's bit-identity with the oracle rests on Select being a
//     function of (arguments, policy RNG stream) alone, so both paths replay
//     the exact same decision sequence — and the fast path calls SelectN
//     where the oracle calls Select, so SelectN is held to the same rule.
//     Implementations may draw from internal/rng — the seeded stream IS part
//     of their replayed input, and its state advance is canonical — so
//     effects originating in internal/rng are exempt. Everything else
//     (receiver counters, package state, I/O) is flagged.
//
// Effects are computed transitively over the call graph via per-function
// effect summaries (effects.go): a helper three calls down that writes a
// package-level cache taints every Select that reaches it. Findings carry
// the offending site as the primary position and the target function's
// declaration as the entry attribution, so one reviewed directive on the
// declaration can sanction a function-wide exception.

import (
	"go/types"
	"sort"
)

// PureSelect is the whole-program purity rule.
var PureSelect = &WholeAnalyzer{
	Name: "pureselect",
	Doc: "require classad.Match and every Policy-style Select and SelectN " +
		"implementation to be observably pure (no escaping writes, I/O, or " +
		"nondeterminism sources, transitively); Select and SelectN may draw " +
		"from internal/rng",
	Run: runPureSelect,
}

// pureTarget is one function held to the purity contract.
type pureTarget struct {
	fi *FuncInfo
	// exemptRNG: effects originating in internal/rng are sanctioned
	// (the Policy RNG stream).
	exemptRNG bool
	// why names the contract in the finding message.
	why string
}

func runPureSelect(p *ModulePass) {
	ef := newEffects(p.Mod, p.Graph)

	var targets []pureTarget
	seen := map[*FuncInfo]bool{}
	add := func(t pureTarget) {
		if !seen[t.fi] {
			seen[t.fi] = true
			targets = append(targets, t)
		}
	}

	for _, fi := range p.Mod.Funcs {
		if fi.Fn.FullName() == ModulePath+"/internal/classad.Match" {
			add(pureTarget{fi: fi, why: "one classad.Match verdict serves every job of an autocluster"})
		}
	}
	for _, method := range []string{"Select", "SelectN"} {
		for _, fi := range methodImpls(p.Graph, method) {
			add(pureTarget{fi: fi, exemptRNG: true,
				why: "policy " + method + " must replay from (arguments, policy RNG) alone"})
		}
	}
	sort.Slice(targets, func(i, j int) bool {
		return targets[i].fi.Decl.Pos() < targets[j].fi.Decl.Pos()
	})

	for _, t := range targets {
		entry := p.Position(t.fi.Decl.Name.Pos())
		for _, e := range ef.of(t.fi) {
			if t.exemptRNG && e.originRel == "internal/rng" {
				continue
			}
			p.Report(Finding{
				Pos:     p.Position(e.pos),
				Rule:    "pureselect",
				Message: funcDisplayName(t.fi) + " must be observably pure (" + t.why + ") but " + e.desc,
				Entry:   entry,
			})
		}
	}
}

// methodImpls returns every module function implementing the named method
// of any module interface that declares one, deduplicated, in declaration
// order.
func methodImpls(g *Graph, method string) []*FuncInfo {
	var out []*FuncInfo
	have := map[*FuncInfo]bool{}
	for _, path := range sortedKeys(g.Mod.TPkg) {
		scope := g.Mod.TPkg[path].Scope()
		for _, name := range scope.Names() {
			iface := namedInterface(scope.Lookup(name))
			if iface == nil || !interfaceHasMethod(iface, method) {
				continue
			}
			for _, fi := range g.Implementations(iface, method) {
				if !have[fi] {
					have[fi] = true
					out = append(out, fi)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// namedInterface returns the interface type a TypeName defines, or nil.
func namedInterface(obj types.Object) *types.Interface {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// interfaceHasMethod reports whether the interface declares (or embeds) a
// method with the given name.
func interfaceHasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
