// Package analysis is the project's static analyzer: a stdlib-only
// (go/parser, go/ast, go/types via go/importer — no x/tools dependency)
// loader plus the graphlint rule set GL001..GL006 that machine-checks the
// determinism and hygiene invariants this repository's correctness claims
// rest on. See DESIGN.md §11 for the rule table and the rationale behind
// each rule.
//
// The entry points are NewLoader / (*Loader).Packages to type-check every
// non-test package of the module, and Check to run the rules over one
// loaded package. cmd/graphlint wires them into a CLI; the rules are also
// exercised against the bad/ok snippet corpus under testdata/.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked, build-tag-filtered, non-test package.
type Package struct {
	// Path is the package's import path (fabricated for snippet checks).
	Path string
	// Module is the path of the module the package was loaded from.
	Module string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions every file of every package loaded by one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test files that survived build-tag filtering.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression and identifier facts.
	Info *types.Info
}

// Loader parses and type-checks the packages of one module. Module-internal
// imports resolve recursively through the loader itself; standard-library
// imports resolve through go/importer's source importer, so no export data
// or x/tools machinery is needed.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	// tags are the build tags considered satisfied (GOOS/GOARCH implied).
	tags map[string]bool
	pkgs map[string]*Package
	// checking guards against import cycles during recursive checks.
	checking map[string]bool
	std      types.Importer
}

// NewLoader returns a loader rooted at the directory containing go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	modulePath, err := readModulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		tags:       map[string]bool{},
		pkgs:       map[string]*Package{},
		checking:   map[string]bool{},
		std:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// SetTags marks the given build tags as satisfied, so files gated on them
// (e.g. //go:build graphpart_invariants) load instead of their default
// twins. Must be called before any package is loaded — tags select which
// files exist, and a loader caches packages by import path.
func (l *Loader) SetTags(tags ...string) {
	if len(l.pkgs) > 0 {
		panic("analysis: SetTags after packages were loaded")
	}
	for _, t := range tags {
		l.tags[t] = true
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Packages loads every package of the module (skipping testdata, vendor,
// hidden and underscore directories), sorted by import path.
func (l *Loader) Packages() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleRoot &&
			(name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		has, err := l.hasBuildableGoFiles(path)
		if err != nil {
			return err
		}
		if has {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking module: %w", err)
	}
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.moduleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.modulePath
		if rel != "." {
			path = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.ensure(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// hasBuildableGoFiles reports whether dir holds at least one non-test .go
// file that survives build-tag filtering — a directory whose every file is
// gated on unsatisfied tags is not a package under the current tag set,
// exactly as `go build` treats it, and must be skipped rather than fail the
// load.
func (l *Loader) hasBuildableGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return false, err
		}
		ok, err := l.satisfiesConstraints(src)
		if err != nil {
			return false, fmt.Errorf("%s: %w", filepath.Join(dir, e.Name()), err)
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// isSourceFile matches the files `go build` would consider: .go, not a test
// file, and not .- or _-prefixed (the toolchain ignores both prefixes).
func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// ensure returns the checked package for a module-internal import path,
// loading it (and, recursively, its module-internal imports) on first use.
func (l *Loader) ensure(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	rel := strings.TrimPrefix(path, l.modulePath)
	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	pkg, err := l.checkDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// checkDir parses and type-checks the non-test files of dir as the package
// at import path path, without caching the result. The snippet corpus
// under testdata/ calls it with a made-up path, because its rule behaviour
// depends on the package's location in the module.
func (l *Loader) checkDir(dir, path string) (*Package, error) {
	l.checking[path] = true
	defer delete(l.checking, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		full := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		ok, err := l.satisfiesConstraints(src)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", full, err)
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:   path,
		Module: l.modulePath,
		Dir:    dir,
		Fset:   l.fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}, nil
}

// importPkg resolves one import during type-checking: module-internal paths
// recurse through the loader, everything else goes to the source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.ensure(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// satisfiesConstraints evaluates the file's //go:build line (if any) against
// the loader's tag set plus the host GOOS/GOARCH and release tags. Files
// gated on unsatisfied tags — e.g. the graphpart_invariants sanitizer
// variants — are excluded, exactly as `go build` would exclude them, so the
// default and tagged variants of a package never collide.
func (l *Loader) satisfiesConstraints(src []byte) (bool, error) {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if constraint.IsGoBuild(trimmed) {
			expr, err := constraint.Parse(trimmed)
			if err != nil {
				return false, err
			}
			return expr.Eval(l.tagSatisfied), nil
		}
		// The //go:build line must precede the package clause; stop looking
		// once code starts.
		if strings.HasPrefix(trimmed, "package ") {
			break
		}
	}
	return true, nil
}

func (l *Loader) tagSatisfied(tag string) bool {
	if l.tags[tag] {
		return true
	}
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc", "unix":
		return true
	}
	// Release tags: go1.N is satisfied for every N up to the toolchain's.
	if strings.HasPrefix(tag, "go1.") {
		return true
	}
	return false
}
