package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one directory's worth of parsed non-test Go files.
type Package struct {
	Fset *token.FileSet
	// Dir is the package directory on disk.
	Dir string
	// Rel is the directory relative to the module root ("." for the root
	// package); AppliesTo scoping keys off it.
	Rel string
	// Files holds the parsed files, sorted by file name.
	Files []*ast.File
	// Lines maps each parsed file name to its source lines, so directive
	// handling can tell a trailing comment from a standalone one.
	Lines map[string][]string
}

// LoadDir parses every non-test .go file directly in dir into a Package
// with the given module-relative path. Directories with no Go files yield
// a nil package.
func LoadDir(fset *token.FileSet, dir, rel string) (*Package, error) {
	names, err := goFiles(dir)
	if err != nil || len(names) == 0 {
		return nil, err
	}
	pkg := &Package{Fset: fset, Dir: dir, Rel: rel, Lines: map[string][]string{}}
	for _, name := range names {
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Lines[path] = strings.Split(string(src), "\n")
	}
	return pkg, nil
}

// goFiles lists the non-test .go files directly in dir, sorted.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// skipDirs are directory names never descended into: fixtures, VCS state
// and vendored code. The runnable demos under examples/ are loaded: the
// module-wide rules bind them like any main package, and their calls keep
// the API they exercise alive for deadapi.
var skipDirs = map[string]bool{
	".git":     true,
	"testdata": true,
	"vendor":   true,
}

// walkDirs calls fn for every directory under root that LoadModule may
// load, with its slash-separated module-relative path.
func walkDirs(root string, fn func(dir, rel string) error) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel != "." && (skipDirs[d.Name()] || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		return fn(path, filepath.ToSlash(rel))
	})
}

// LoadModule walks the module rooted at root and parses every package
// whose module-relative directory matches one of the patterns. Patterns
// follow the go tool's shape: "./..." (everything), "./dir/..." (a
// subtree), or "./dir" (one directory). Nil patterns mean "./...".
func LoadModule(root string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	err := walkDirs(root, func(dir, rel string) error {
		if !matchesAny(rel, patterns) {
			return nil
		}
		pkg, err := LoadDir(fset, dir, rel)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A pattern that selects no packages is a caller mistake (a typo'd
	// path in the lint gate would otherwise pass vacuously).
	for _, p := range patterns {
		matched := false
		for _, pkg := range pkgs {
			if matchesAny(pkg.Rel, []string{p}) {
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", p)
		}
	}
	return pkgs, nil
}

// MatchesPattern reports whether the module-relative directory rel is
// selected by the go-tool-shaped pattern ("./...", "./dir/...", "./dir").
// cmd/philint uses it to scope reporting after a whole-module analysis.
func MatchesPattern(rel, pattern string) bool { return matchesAny(rel, []string{pattern}) }

// matchesAny reports whether the module-relative directory rel is selected
// by any pattern.
func matchesAny(rel string, patterns []string) bool {
	rel = filepath.ToSlash(rel)
	for _, p := range patterns {
		p = strings.TrimPrefix(filepath.ToSlash(p), "./")
		switch {
		case p == "..." || p == "":
			return true
		case strings.HasSuffix(p, "/..."):
			base := strings.TrimSuffix(p, "/...")
			if rel == base || strings.HasPrefix(rel, base+"/") {
				return true
			}
		case rel == p:
			return true
		}
	}
	return false
}

// FindModuleRoot walks upward from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("philint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
