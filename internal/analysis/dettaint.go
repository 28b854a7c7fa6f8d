package analysis

// DetTaint is the whole-program determinism rule: banned nondeterminism
// sources — math/rand outside internal/rng, wall-clock reads, and
// order-sensitive map iteration — are flagged anywhere *reachable from a
// sim-path entry point*, through any call chain, across package
// boundaries. It closes the helper-function escape hatch the per-file
// rules have: detrand/wallclock/mapiter see one file at a time, so a
// banned construct tucked into a helper package that sim-path code calls
// into was structurally invisible to them.
//
// The rule deliberately does not duplicate the per-file suite. A source
// the per-file rules already report in scope is skipped here (one finding
// per construct). What dettaint adds:
//
//   - order-sensitive map ranges in packages OUTSIDE the mapiter scope
//     (classad, obs, knapsack, estimator, runner, …) that sim-path code
//     transitively calls — per-file mapiter cannot see them, reachability
//     can;
//   - rand/wall-clock sites whose per-file finding was suppressed with a
//     context justification ("harness timing, not sim state") but that ARE
//     reachable from a sim-path entry — the suppression's premise is
//     exactly what reachability disproves. A suppressed mapiter site is
//     NOT re-flagged: its review ("order-insensitive in fact") is about
//     the loop's content, which reachability does not undermine.
//
// Each finding is attributed to both the offending site (primary position)
// and the call site inside the sim-path entry that starts a shortest chain
// (entry position); an ignore directive at either location suppresses it.

import (
	"go/ast"
	"go/token"
)

// DetTaint is the whole-program banned-nondeterminism-source rule.
var DetTaint = &WholeAnalyzer{
	Name: "dettaint",
	Doc: "flag banned nondeterminism sources (math/rand, wall-clock reads, " +
		"order-sensitive map iteration) transitively reachable from sim-path " +
		"entry points, across function and package boundaries",
	Run: runDetTaint,
}

// taintSource is one banned construct found anywhere in the module.
type taintSource struct {
	pos  token.Pos
	desc string
	// v1rule names the per-file rule that owns this hazard class.
	v1rule string
	// v1covered reports whether that per-file rule is in scope at the
	// source's package, i.e. whether the per-file suite would report it.
	v1covered bool
}

func runDetTaint(p *ModulePass) {
	var roots []*FuncInfo
	for _, fi := range p.Mod.Funcs {
		if SimPath(fi.Pkg.Rel) {
			roots = append(roots, fi)
		}
	}
	if len(roots) == 0 {
		return
	}
	reach := p.Graph.ReachableFrom(roots)

	for _, fi := range p.Mod.Funcs {
		if !reach.Reaches(fi) {
			continue
		}
		for _, src := range taintSources(p, fi) {
			if src.v1covered {
				if !p.SuppressedAt(src.v1rule, src.pos) {
					// The per-file rule reports this site; one finding per
					// construct.
					continue
				}
				if src.v1rule == MapIter.Name {
					// A suppressed mapiter site was reviewed as
					// order-insensitive in fact; reachability does not
					// invalidate that.
					continue
				}
			}
			chain := reach.Chain(fi)
			entryPos := src.pos
			if len(chain) > 1 && chain[0].Pos.IsValid() {
				entryPos = chain[0].Pos
			}
			suffix := ""
			if src.v1covered {
				suffix = " (site-local suppression reviewed it as outside the sim path; this chain is the sim path)"
			}
			p.Report(Finding{
				Pos:     p.Position(src.pos),
				Rule:    "dettaint",
				Message: "banned nondeterminism source on the sim path: " + chainString(chain, src.desc) + suffix,
				Entry:   p.Position(entryPos),
			})
		}
	}
}

// taintSources scans one declared function (function literals included) for
// banned constructs. It finds them with the same typed lookups the per-file
// rules use (inspectMembers, unorderedMapRanges), so a source whose per-file
// rule is in scope is exactly a site that rule reports.
func taintSources(p *ModulePass, fi *FuncInfo) []taintSource {
	var out []taintSource
	info := p.Mod.Info
	inspectMembers(info, fi.Decl.Body, func(ref ast.Expr, path, name string) {
		switch {
		case isRandPath(path):
			if fi.Pkg.Rel == "internal/rng" {
				return // the sanctioned wrapper
			}
			out = append(out, taintSource{
				pos:       ref.Pos(),
				desc:      "rand." + name + " (unseeded math/rand)",
				v1rule:    DetRand.Name,
				v1covered: DetRand.AppliesTo(fi.Pkg.Rel),
			})
		case isWallClock(path, name):
			out = append(out, taintSource{
				pos:       ref.Pos(),
				desc:      "time." + name + " (wall clock)",
				v1rule:    WallClock.Name,
				v1covered: WallClock.AppliesTo(fi.Pkg.Rel),
			})
		}
	})
	for _, rs := range unorderedMapRanges(info, fi.Decl.Body) {
		out = append(out, taintSource{
			pos:       rs.Pos(),
			desc:      "order-sensitive range over map " + exprString(rs.X),
			v1rule:    MapIter.Name,
			v1covered: MapIter.AppliesTo(fi.Pkg.Rel),
		})
	}
	sortSources(out)
	return out
}

func sortSources(srcs []taintSource) {
	// Stable report order inside one function: by position.
	for i := 1; i < len(srcs); i++ {
		for j := i; j > 0 && srcs[j].pos < srcs[j-1].pos; j-- {
			srcs[j], srcs[j-1] = srcs[j-1], srcs[j]
		}
	}
}
