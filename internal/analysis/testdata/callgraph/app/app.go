// Package cgapp is the caller side of the call-graph fixture: interface
// dispatch, calls through function-typed fields and variables, a method
// value, and recursion entry points.
package cgapp

import "phishare/internal/cgzoo"

// holder carries a function-typed field; calls through it must resolve to
// every address-taken function with a matching signature.
type holder struct{ f func(int) int }

// CallIface dispatches through the interface: the graph must edge to every
// implementation (Dog.Speak and (*Cat).Speak).
func CallIface(a cgzoo.Animal) string { return a.Speak() }

// CallField takes Transform's value into a field and Triple's into a local,
// then calls through the field: both become candidates, Unreferenced does
// not.
func CallField() int {
	h := holder{f: cgzoo.Transform}
	g := cgzoo.Triple
	_ = g
	return h.f(2)
}

// CallMethodValue calls through a bound method value: only Dog.Speak is
// taken as a value anywhere, so the dynamic call resolves to it alone.
func CallMethodValue(d cgzoo.Dog) string {
	mv := d.Speak
	return mv()
}

// CallRec enters both recursion shapes; reachability must close over the
// cycles without diverging.
func CallRec() int { return cgzoo.Rec(3) + cgzoo.MutualA(2) }

// UseCallback passes Transform's value into RunCallback: the taker edge
// charges Transform here, the one place that provably chose it.
func UseCallback() int { return RunCallback(cgzoo.Transform) }

// RunCallback calls through its function-typed parameter: no candidate
// edges and no unresolved site — coverage lives at each value origin.
func RunCallback(f func(int) int) int { return f(1) }

// LitLocal binds a local only to a function literal: the literal body is
// attributed here, so the dynamic call adds no edges.
func LitLocal() int {
	double := func(n int) int { return 2 * n }
	return double(21)
}

// CallStranger calls through a function value whose signature no module
// function is ever taken at: the site has no module target and adds no edge.
func CallStranger(tbl map[string]func() float64) float64 { return tbl["x"]() }

// Alien is satisfied by no module type.
type Alien interface{ Mutate() }

// CallAlien dispatches through an interface with zero module
// implementations: the site has no module target and adds no edge.
func CallAlien(a Alien) { a.Mutate() }
