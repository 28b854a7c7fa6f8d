package analysis

import "go/ast"

// WallClock forbids reading the host's clock. Simulated components must
// take time from the sim.Engine's virtual clock; a time.Now in a
// scheduling path makes outcomes depend on host speed and load, which is
// exactly the nondeterminism the replayable chaos triples and the
// bit-identical policy comparisons cannot tolerate.
//
// The rule is module-wide: sim-path packages must never need an
// exemption, while wall-clock-legitimate sites (the phibench timing
// harness reporting how long the *experiment driver* took) carry a
// per-line //philint:ignore wallclock annotation instead of a package
// exemption, so each use is individually reviewed.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock reads (time.Now, time.Since, timers, sleeps); " +
		"simulation code takes time from the sim.Engine clock",
	AppliesTo: allPackages,
	Run:       runWallClock,
}

// wallClockIdents are the time-package identifiers that observe or wait on
// the host clock. Pure-value identifiers (time.Duration, time.Millisecond)
// stay legal: they denote quantities, not clock reads.
var wallClockIdents = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// isWallClock reports whether the package member path.name reads the host
// clock.
func isWallClock(path, name string) bool { return path == "time" && wallClockIdents[name] }

func runWallClock(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		inspectMembers(pass.Info, file, func(ref ast.Expr, path, name string) {
			if isWallClock(path, name) {
				pass.Reportf("wallclock", ref.Pos(),
					"time.%s reads the wall clock; simulation state must advance on the sim.Engine clock", name)
			}
		})
	}
}
