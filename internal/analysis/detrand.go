package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

// DetRand forbids math/rand outside internal/rng, the sanctioned wrapper.
//
// Every random draw in the simulation must flow through an rng.Source
// seeded from the experiment configuration: that is what makes a
// (seed, profile, policy) triple replayable and every table in the paper
// reproducible. A bare rand.Intn — or worse, an unseeded global source —
// injects process-lifetime state into the run and silently breaks
// bit-identical replay.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid math/rand (and math/rand/v2) outside internal/rng; " +
		"all randomness must flow through a seeded rng.Source",
	AppliesTo: func(rel string) bool { return rel != "internal/rng" },
	Run:       runDetRand,
}

func runDetRand(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		inspectMembers(pass.Info, file, func(ref ast.Expr, path, name string) {
			if isRandPath(path) {
				pass.Reportf("detrand", ref.Pos(),
					"rand.%s uses math/rand directly; draw from an internal/rng.Source seeded by the experiment config",
					name)
			}
		})
		// A blank import has no reviewable use (only init-time side
		// effects); the import line itself is the finding.
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if isRandPath(path) && imp.Name != nil && imp.Name.Name == "_" {
				pass.Reportf("detrand", imp.Pos(),
					"_ import of %s outside internal/rng; use a seeded rng.Source", path)
			}
		}
	}
}

func isRandPath(path string) bool {
	return path == "math/rand" || strings.HasPrefix(path, "math/rand/")
}
