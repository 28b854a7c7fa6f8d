package analysis

// Typed module loading: every rule reads types from here. The per-file
// rules take expression types and package members from Module.Info; the
// whole-program rules (dettaint, pureselect) also need the cross-package
// call targets the call graph builds on it. TypeCheck runs the stdlib
// go/types checker over every parsed package in dependency order, chaining
// to go/importer for the standard library, so go.mod stays dependency-free.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// ModulePath is the import-path prefix of this module's packages, matching
// the module directive in go.mod. Fixture modules reuse it so rules keyed
// on well-known paths (phishare/internal/classad.Match) resolve against stub packages in tests.
const ModulePath = "phishare"

// ImportPath returns the import path of a loaded package.
func ImportPath(pkg *Package) string {
	if pkg.Rel == "." {
		return ModulePath
	}
	return ModulePath + "/" + pkg.Rel
}

// Module is the fully type-checked program: every loaded package, one merged
// types.Info, and the declared-function table the call graph builds on.
type Module struct {
	Fset *token.FileSet
	// Pkgs holds the packages in dependency-first (topological) order.
	Pkgs []*Package
	// TPkg maps import path to the checked package.
	TPkg map[string]*types.Package
	// PkgOf maps import path back to the loaded source package.
	PkgOf map[string]*Package
	// Info is shared across all packages (one FileSet, disjoint ASTs).
	Info *types.Info
	// Funcs lists every function or method declared with a body in the
	// module, in deterministic (position) order.
	Funcs []*FuncInfo
	// FuncOf maps the types object of a declared function to its info.
	FuncOf map[*types.Func]*FuncInfo
}

// FuncInfo ties a declared function's types object to its syntax and its
// package. Function literals are not separate entries: their bodies are
// attributed to the enclosing declared function by the body walkers.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// TypeCheck type-checks the given packages as one module. Imports of other
// module packages resolve within the set; standard-library imports resolve
// through go/importer (export data when available, source otherwise). Any
// type error fails the whole run: the analyzers' soundness claims are
// conditional on a well-typed program.
func TypeCheck(pkgs []*Package) (*Module, error) {
	mod := &Module{
		TPkg:   map[string]*types.Package{},
		PkgOf:  map[string]*Package{},
		FuncOf: map[*types.Func]*FuncInfo{},
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
			Instances:  map[*ast.Ident]types.Instance{},
		},
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		if p.Fset == nil {
			return nil, fmt.Errorf("typecheck: package %s has no FileSet", p.Rel)
		}
		if mod.Fset == nil {
			mod.Fset = p.Fset
		} else if mod.Fset != p.Fset {
			return nil, fmt.Errorf("typecheck: packages share no FileSet (load them together)")
		}
		byPath[ImportPath(p)] = p
	}

	imp := &moduleImporter{mod: mod, byPath: byPath}
	order, err := topoOrder(pkgs, byPath)
	if err != nil {
		return nil, err
	}
	for _, p := range order {
		cfg := types.Config{Importer: imp}
		tp, err := cfg.Check(ImportPath(p), mod.Fset, p.Files, mod.Info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", p.Rel, err)
		}
		mod.Pkgs = append(mod.Pkgs, p)
		mod.TPkg[ImportPath(p)] = tp
		mod.PkgOf[ImportPath(p)] = p
	}

	for _, p := range mod.Pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := mod.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: p}
				mod.Funcs = append(mod.Funcs, fi)
				mod.FuncOf[fn] = fi
			}
		}
	}
	sort.Slice(mod.Funcs, func(i, j int) bool {
		return mod.Funcs[i].Decl.Pos() < mod.Funcs[j].Decl.Pos()
	})
	return mod, nil
}

// moduleImporter resolves module-internal imports from the checked set and
// delegates everything else to the standard library importers. The export
// -data importer is tried first (fast); the source importer is the fallback
// for toolchains or sandboxes without export data on disk.
type moduleImporter struct {
	mod    *Module
	byPath map[string]*Package

	std    types.Importer
	source types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == ModulePath || strings.HasPrefix(path, ModulePath+"/") {
		if tp, ok := m.mod.TPkg[path]; ok {
			return tp, nil
		}
		if _, ok := m.byPath[path]; ok {
			return nil, fmt.Errorf("import cycle or out-of-order check of %s", path)
		}
		return nil, fmt.Errorf("module package %s not loaded (fixture module missing a package?)", path)
	}
	if m.std == nil {
		m.std = importer.Default()
	}
	if tp, err := m.std.Import(path); err == nil {
		return tp, nil
	}
	if m.source == nil {
		m.source = importer.ForCompiler(m.mod.Fset, "source", nil)
	}
	return m.source.Import(path)
}

// topoOrder sorts packages dependency-first, following only module-internal
// import edges. Cycles are impossible in a compiling module, but a malformed
// fixture gets a real error instead of a hang.
func topoOrder(pkgs []*Package, byPath map[string]*Package) ([]*Package, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[*Package]int{}
	var order []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch color[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("typecheck: import cycle through %s", p.Rel)
		}
		color[p] = grey
		for _, dep := range moduleImports(p) {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		color[p] = black
		order = append(order, p)
		return nil
	}
	// Deterministic root order: Load* already sorts files; sort packages by Rel.
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rel < sorted[j].Rel })
	for _, p := range sorted {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImports lists p's module-internal import paths, sorted.
func moduleImports(p *Package) []string {
	seen := map[string]bool{}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == ModulePath || strings.HasPrefix(path, ModulePath+"/") {
				seen[path] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for path := range seen {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}
