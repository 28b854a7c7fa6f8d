package analysis

// DeadAPI is the whole-module rule against exported API that nothing calls.
// An exported package-level func, method, type, var or const declared under
// internal/ must have a reference from non-test code somewhere in the
// loaded module (cmd/, examples/, bench/ and the other internal packages
// included). Test files are never loaded, so an identifier that only tests
// read is reported: delete it, move it into the package's export_test.go,
// or — for a reference oracle or a cross-package test hook — annotate it
// with the test that reads it.
//
//   - A reference inside the identifier's own declaration does not count,
//     so recursion does not keep a function alive. A type's declaration
//     includes its methods.
//   - A method whose name and signature match a method of any interface
//     type the module uses, standard-library interfaces included, counts as
//     used: it may be called through that interface (fmt.Stringer,
//     go/types.Importer, sim.Handler).
//   - Struct fields are out of scope: encoding/json reads them by
//     reflection.
//   - On a partial load (a package directory of the module left unloaded)
//     the rule reports nothing, since unseen callers would look dead.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// DeadAPI is the whole-module unused-export rule.
var DeadAPI = &WholeAnalyzer{
	Name: "deadapi",
	Doc: "flag an exported package-level func, method, type, var or const " +
		"under internal/ that no non-test code in the module references " +
		"(methods an interface could call count as used); silent on a " +
		"partial load",
	Run: runDeadAPI,
}

// apiDecl is one exported identifier under internal/ and the source ranges
// of its own declaration.
type apiDecl struct {
	obj   types.Object
	name  *ast.Ident
	desc  string
	spans [][2]token.Pos
}

func (d *apiDecl) within(pos token.Pos) bool {
	for _, s := range d.spans {
		if s[0] <= pos && pos < s[1] {
			return true
		}
	}
	return false
}

func runDeadAPI(p *ModulePass) {
	if !loadedWhole(p.Mod.Pkgs) {
		return
	}
	decls, byObj := exportedDecls(p.Mod)
	used := map[types.Object]bool{}
	for id, obj := range p.Mod.Info.Uses { //philint:ignore mapiter builds a set: the only write is used[obj] = true
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a method of an instantiated generic type
		}
		if d, ok := byObj[obj]; ok && !d.within(id.Pos()) {
			used[obj] = true
		}
	}
	callable := interfaceMethods(p.Mod)
	for _, d := range decls {
		if used[d.obj] {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && callable.has(fn) {
			continue
		}
		p.Report(Finding{
			Pos:     p.Position(d.name.Pos()),
			Rule:    "deadapi",
			Message: d.desc + " has no reference from non-test code in the module",
		})
	}
}

// exportedDecls collects every exported package-level func, method, type,
// var and const declared under internal/, in source order.
func exportedDecls(mod *Module) ([]*apiDecl, map[types.Object]*apiDecl) {
	var decls []*apiDecl
	byObj := map[types.Object]*apiDecl{}
	add := func(pkg *Package, id *ast.Ident, kind, name string, node ast.Node) {
		obj := mod.Info.Defs[id]
		if obj == nil || !id.IsExported() {
			return
		}
		d := &apiDecl{obj: obj, name: id, desc: kind + " " + pkgBase(pkg.Rel) + "." + name,
			spans: [][2]token.Pos{{node.Pos(), node.End()}}}
		decls = append(decls, d)
		byObj[obj] = d
	}
	// A type's methods belong to its declaration; attach them once every
	// type of the package is known.
	type method struct {
		recv string
		decl *ast.FuncDecl
	}
	for _, pkg := range mod.Pkgs {
		if !strings.HasPrefix(pkg.Rel, "internal/") {
			continue
		}
		var methods []method
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					name := decl.Name.Name
					if decl.Recv != nil && len(decl.Recv.List) > 0 {
						recv := typeExprString(decl.Recv.List[0].Type)
						methods = append(methods, method{strings.TrimPrefix(recv, "*"), decl})
						name = "(" + recv + ")." + name
						add(pkg, decl.Name, "method", name, decl)
						continue
					}
					add(pkg, decl.Name, "func", name, decl)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(pkg, spec.Name, "type", spec.Name.Name, spec)
						case *ast.ValueSpec:
							kind := "var"
							if decl.Tok == token.CONST {
								kind = "const"
							}
							for _, id := range spec.Names {
								add(pkg, id, kind, id.Name, spec)
							}
						}
					}
				}
			}
		}
		scope := mod.TPkg[ImportPath(pkg)].Scope()
		for _, m := range methods {
			if d := byObj[scope.Lookup(m.recv)]; d != nil {
				d.spans = append(d.spans, [2]token.Pos{m.decl.Pos(), m.decl.End()})
			}
		}
	}
	return decls, byObj
}

// ifaceMethods maps a method name to the signatures of every interface
// method of that name.
type ifaceMethods map[string][]*types.Signature

func (m ifaceMethods) add(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		fn := iface.Method(i)
		m[fn.Name()] = append(m[fn.Name()], fn.Type().(*types.Signature))
	}
}

// has reports whether an interface method matches fn's name and signature
// (types.Identical ignores receivers).
func (m ifaceMethods) has(fn *types.Func) bool {
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	for _, sig := range m[fn.Name()] {
		if types.Identical(sig, fn.Type()) {
			return true
		}
	}
	return false
}

// interfaceMethods gathers the methods of every interface type the module
// uses: each interface-typed expression or type expression in the module,
// every package-level interface of every package the module imports,
// directly or not, and the predeclared error.
func interfaceMethods(mod *Module) ifaceMethods {
	m := ifaceMethods{}
	for _, tv := range mod.Info.Types { //philint:ignore mapiter has asks whether any signature matches, so slice order cannot show
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
			m.add(iface)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if iface := namedInterface(scope.Lookup(name)); iface != nil {
				m.add(iface)
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, path := range sortedKeys(mod.TPkg) {
		visit(mod.TPkg[path])
	}
	m.add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return m
}

// loadedWhole reports whether pkgs hold every package directory of the
// module they were loaded from: the packages agree on one module root, and
// LoadModule's walk of that root finds no unloaded directory with Go files.
func loadedWhole(pkgs []*Package) bool {
	root := ""
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		dir := filepath.ToSlash(filepath.Clean(pkg.Dir))
		r := dir
		if pkg.Rel != "." {
			if !strings.HasSuffix(dir, "/"+pkg.Rel) {
				return false
			}
			r = strings.TrimSuffix(dir, "/"+pkg.Rel)
		}
		if root != "" && r != root {
			return false
		}
		root = r
		loaded[pkg.Rel] = true
	}
	if root == "" {
		return false
	}
	whole := true
	err := walkDirs(filepath.FromSlash(root), func(dir, rel string) error {
		if loaded[rel] {
			return nil
		}
		names, err := goFiles(dir)
		if len(names) > 0 {
			whole = false
			return filepath.SkipAll
		}
		return err
	})
	return err == nil && whole
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

// pkgBase returns the last element of a slash-separated package path.
func pkgBase(path string) string {
	return path[strings.LastIndex(path, "/")+1:]
}

// typeExprString renders a receiver type as written ("*Pool", "Dog"),
// without type parameters.
func typeExprString(t ast.Expr) string {
	switch v := t.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return "*" + typeExprString(v.X)
	case *ast.IndexExpr:
		return typeExprString(v.X)
	case *ast.IndexListExpr:
		return typeExprString(v.X)
	case *ast.ParenExpr:
		return typeExprString(v.X)
	}
	return "?"
}

func sortedKeys[M map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
