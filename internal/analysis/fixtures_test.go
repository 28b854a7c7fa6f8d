package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtureModule loads a multi-package fixture: dir contains one
// subdirectory per package plus a packages.txt manifest mapping each
// subdirectory to the module-relative path it plays, e.g.
//
//	entry internal/core
//	helper internal/helperlib
//
// The fixture packages import each other under phishare/<rel>, exactly like
// real module packages, and the whole set is type-checked as a module.
func loadFixtureModule(t *testing.T, dir string) (*Module, []*Package) {
	t.Helper()
	manifest, err := os.ReadFile(filepath.Join(dir, "packages.txt"))
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, line := range strings.Split(string(manifest), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("fixture %s: malformed manifest line %q", dir, line)
		}
		sub, rel := fields[0], fields[1]
		pkg, err := LoadDir(fset, filepath.Join(dir, sub), rel)
		if err != nil {
			t.Fatalf("fixture %s/%s: %v", dir, sub, err)
		}
		if pkg == nil {
			t.Fatalf("fixture %s/%s: no Go files", dir, sub)
		}
		pkgs = append(pkgs, pkg)
	}
	mod, err := TypeCheck(pkgs)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	return mod, pkgs
}

// recvTypeName renders the receiver's bare type name ("Pool", "Dog").
func recvTypeName(fi *FuncInfo) string {
	return strings.TrimPrefix(recvTypeExpr(fi), "*")
}

// fixtureFunc finds a declared function by package rel and name; methods are
// addressed as "Type.Method" or "(*Type).Method"-style via their Name only
// when unambiguous, or "Recv.Name" otherwise.
func fixtureFunc(t *testing.T, mod *Module, rel, name string) *FuncInfo {
	t.Helper()
	var found *FuncInfo
	for _, fi := range mod.Funcs {
		if fi.Pkg.Rel != rel {
			continue
		}
		n := fi.Fn.Name()
		if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) > 0 {
			n = recvTypeName(fi) + "." + n
		}
		if n == name || fi.Fn.Name() == name {
			if found != nil {
				t.Fatalf("fixtureFunc: %s %s is ambiguous", rel, name)
			}
			found = fi
		}
	}
	if found == nil {
		t.Fatalf("fixtureFunc: no function %s in %s", name, rel)
	}
	return found
}
