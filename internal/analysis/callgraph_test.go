package analysis

import (
	"path/filepath"
	"testing"
)

// TestCallGraphReachability drives the call-graph builder over the fixture
// module and asserts reachability sets directly: interface dispatch fans out
// to every implementation, function-typed calls resolve to exactly the
// address-taken candidates, method values resolve, and recursion closes
// without divergence.
func TestCallGraphReachability(t *testing.T) {
	mod, _ := loadFixtureModule(t, filepath.Join("testdata", "callgraph"))
	g := BuildGraph(mod)

	const zoo = "internal/cgzoo"
	const app = "internal/cgapp"

	dogSpeak := fixtureFunc(t, mod, zoo, "Dog.Speak")
	catSpeak := fixtureFunc(t, mod, zoo, "Cat.Speak")
	transform := fixtureFunc(t, mod, zoo, "Transform")
	triple := fixtureFunc(t, mod, zoo, "Triple")
	unreferenced := fixtureFunc(t, mod, zoo, "Unreferenced")
	rec := fixtureFunc(t, mod, zoo, "Rec")
	mutualA := fixtureFunc(t, mod, zoo, "MutualA")
	mutualB := fixtureFunc(t, mod, zoo, "MutualB")

	cases := []struct {
		name       string
		entry      *FuncInfo
		reachable  []*FuncInfo
		excluded   []*FuncInfo
		chainEndAt *FuncInfo
		chainLen   int
	}{
		{
			name:       "interface dispatch fans out to all implementations",
			entry:      fixtureFunc(t, mod, app, "CallIface"),
			reachable:  []*FuncInfo{dogSpeak, catSpeak},
			excluded:   []*FuncInfo{transform, rec},
			chainEndAt: catSpeak,
			chainLen:   2,
		},
		{
			name:      "function-typed field resolves to address-taken candidates only",
			entry:     fixtureFunc(t, mod, app, "CallField"),
			reachable: []*FuncInfo{transform, triple},
			excluded:  []*FuncInfo{unreferenced, dogSpeak},
		},
		{
			name:      "method value resolves to the taken method alone",
			entry:     fixtureFunc(t, mod, app, "CallMethodValue"),
			reachable: []*FuncInfo{dogSpeak},
			excluded:  []*FuncInfo{catSpeak},
		},
		{
			name:       "recursion closes over direct and mutual cycles",
			entry:      fixtureFunc(t, mod, app, "CallRec"),
			reachable:  []*FuncInfo{rec, mutualA, mutualB},
			excluded:   []*FuncInfo{dogSpeak, transform},
			chainEndAt: mutualB,
			chainLen:   3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := g.ReachableFrom([]*FuncInfo{tc.entry})
			if !r.Reaches(tc.entry) {
				t.Fatalf("entry %s not reachable from itself", tc.entry.Fn.Name())
			}
			for _, want := range tc.reachable {
				if !r.Reaches(want) {
					t.Errorf("%s should reach %s", tc.entry.Fn.Name(), want.Fn.FullName())
				}
			}
			for _, not := range tc.excluded {
				if r.Reaches(not) {
					t.Errorf("%s must not reach %s", tc.entry.Fn.Name(), not.Fn.FullName())
				}
			}
			if tc.chainEndAt != nil {
				chain := r.Chain(tc.chainEndAt)
				if len(chain) != tc.chainLen {
					t.Errorf("chain to %s has %d links, want %d", tc.chainEndAt.Fn.Name(), len(chain), tc.chainLen)
				}
				if len(chain) > 0 {
					if chain[0].Fn != tc.entry {
						t.Errorf("chain starts at %s, want entry %s", chain[0].Fn.Fn.Name(), tc.entry.Fn.Name())
					}
					if chain[len(chain)-1].Fn != tc.chainEndAt {
						t.Errorf("chain ends at %s, want %s", chain[len(chain)-1].Fn.Fn.Name(), tc.chainEndAt.Fn.Name())
					}
					for i, link := range chain[:len(chain)-1] {
						if !link.Pos.IsValid() {
							t.Errorf("chain link %d has no call position", i)
						}
					}
				}
			}
		})
	}

	// The whole-module reachability from every app entry must still exclude
	// the never-referenced candidate.
	var appFuncs []*FuncInfo
	for _, fi := range mod.Funcs {
		if fi.Pkg.Rel == app {
			appFuncs = append(appFuncs, fi)
		}
	}
	r := g.ReachableFrom(appFuncs)
	if r.Reaches(unreferenced) {
		t.Error("Unreferenced must stay unreachable from the whole app package")
	}
	if got := len(r.first); got < 10 {
		t.Errorf("whole-app reachability found %d funcs, want >= 10", got)
	}
}

// TestCallGraphValueFlows pins how function VALUES resolve: a taken
// function is charged to its taker, calls through parameters and
// literal-bound locals add neither edges nor unresolved sites (they are
// covered at the value's origin), and a value no module function matches
// is recorded as unresolved rather than silently dropped.
func TestCallGraphValueFlows(t *testing.T) {
	mod, _ := loadFixtureModule(t, filepath.Join("testdata", "callgraph"))
	g := BuildGraph(mod)

	const zoo = "internal/cgzoo"
	const app = "internal/cgapp"
	transform := fixtureFunc(t, mod, zoo, "Transform")
	triple := fixtureFunc(t, mod, zoo, "Triple")
	runCallback := fixtureFunc(t, mod, app, "RunCallback")

	// The taker edge: UseCallback reaches Transform because it took its
	// value — and does NOT reach Triple, even though Triple's signature
	// matches the parameter RunCallback calls through.
	r := g.ReachableFrom([]*FuncInfo{fixtureFunc(t, mod, app, "UseCallback")})
	if !r.Reaches(transform) || !r.Reaches(runCallback) {
		t.Error("UseCallback must reach both RunCallback and the Transform value it passed")
	}
	if r.Reaches(triple) {
		t.Error("UseCallback must not reach Triple: signature matching must not apply to param calls")
	}

	// Param and literal-bound calls: silent at the call site, by design.
	for _, name := range []string{"RunCallback", "LitLocal"} {
		fi := fixtureFunc(t, mod, app, name)
		if n := len(g.Edges[fi]); n != 0 {
			t.Errorf("%s has %d edges, want 0 (covered at value origin)", name, n)
		}
		if n := len(g.Unresolved[fi]); n != 0 {
			t.Errorf("%s has %d unresolved sites, want 0", name, n)
		}
	}

	// An unmatchable function value is an unresolved site, the signal the
	// conservative rules treat as unanalyzable.
	stranger := fixtureFunc(t, mod, app, "CallStranger")
	if n := len(g.Unresolved[stranger]); n != 1 {
		t.Errorf("CallStranger has %d unresolved sites, want 1", n)
	}
	if n := len(g.Edges[stranger]); n != 0 {
		t.Errorf("CallStranger has %d edges, want 0", n)
	}

	// An interface call no module type implements is likewise unresolved —
	// the value behind it came from outside the module, and modeling the
	// call as effect-free would be an unsound hole.
	alien := fixtureFunc(t, mod, app, "CallAlien")
	if n := len(g.Unresolved[alien]); n != 1 {
		t.Errorf("CallAlien has %d unresolved sites, want 1", n)
	}
	if n := len(g.Edges[alien]); n != 0 {
		t.Errorf("CallAlien has %d edges, want 0", n)
	}
}
