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
func loadFixtureModule(t *testing.T, dir string) []*Package {
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
	if _, err := TypeCheck(pkgs); err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	return pkgs
}
