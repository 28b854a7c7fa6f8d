package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
)

// SimGoroutine forbids host concurrency in sim-path component packages:
// goroutines, channel operations and types, select statements, and the
// sync/sync⁄atomic primitives. Simulated concurrency is the event engine's
// job — components express "these things happen independently" by
// scheduling events on the one serial engine, whose (time, seq) queue fixes
// their order. A component that spawns its own goroutine or rendezvouses
// through a channel reintroduces host-scheduler nondeterminism the event
// queue cannot serialize, and a component that reaches for a mutex is
// defending against concurrency the serial engine says cannot exist.
//
// The rule covers every sim-path package except internal/sim itself, which
// is the one place the worker fork/join (Engine.Fanout) legitimately lives. A genuinely
// engine-adjacent site elsewhere carries a per-line
// //philint:ignore simgoroutine <reason> directive so each use is
// individually reviewed.
var SimGoroutine = &Analyzer{
	Name: "simgoroutine",
	Doc: "forbid goroutines, channels, select, and sync primitives in sim-path " +
		"packages; concurrency belongs to the event engine",
	AppliesTo: func(rel string) bool { return SimPath(rel) && rel != "internal/sim" },
	Run:       runSimGoroutine,
}

func runSimGoroutine(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		// Selector-based detection for the sync and sync/atomic packages,
		// keyed on this file's import names (mirrors the wallclock rule).
		syncNames := map[string]string{}
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path != "sync" && path != "sync/atomic" {
				continue
			}
			name := path
			if path == "sync/atomic" {
				name = "atomic"
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name != "_" && name != "." {
				syncNames[name] = path
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				pass.Reportf("simgoroutine", v.Pos(),
					"go statement spawns a host goroutine; schedule an event on the engine instead")
			case *ast.SendStmt:
				pass.Reportf("simgoroutine", v.Pos(),
					"channel send synchronizes through the host scheduler; pass results via scheduled callbacks")
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					pass.Reportf("simgoroutine", v.Pos(),
						"channel receive blocks on the host scheduler; pass results via scheduled callbacks")
				}
			case *ast.SelectStmt:
				pass.Reportf("simgoroutine", v.Pos(),
					"select races host goroutines; event ordering must come from the engine's (time, seq) queue")
			case *ast.ChanType:
				pass.Reportf("simgoroutine", v.Pos(),
					"channel type in a sim-path component; simulated hand-offs are scheduled events, not channels")
			case *ast.SelectorExpr:
				if id, ok := v.X.(*ast.Ident); ok {
					if path, hit := syncNames[id.Name]; hit {
						pass.Reportf("simgoroutine", v.Pos(),
							"%s.%s guards against host concurrency the serial engine rules out; sim-path state is single-threaded",
							pkgBase(path), v.Sel.Name)
					}
				}
			}
			return true
		})
	}
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
