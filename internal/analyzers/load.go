// Package loading for the recipelint static-analysis suite, built on
// the stdlib go/parser + go/types toolchain only — the module stays
// zero-dependency (see DESIGN §11 for why golang.org/x/tools was not
// needed).
//
// The loader walks a directory tree for Go packages, parses every
// file, and type-checks the packages in dependency order. Imports
// that resolve inside the walked tree are served from the loader's
// own results (so intra-module types are shared); everything else —
// the standard library — is compiled from source by the stdlib
// "source" importer, which needs no pre-built export data.
//
// Test universes load too (DESIGN §16): every directory with
// _test.go files yields, beyond its base package, a test-augmented
// variant (base sources + in-package test files, type-checked
// together the way `go test` compiles them) and, when external
// package foo_test files exist, an external test package whose import
// of the base path resolves to the augmented variant — so
// export_test.go helpers type-check. Test packages carry Test=true
// and expose only their _test.go files for analysis, keeping base
// findings single-reported.

package analyzers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the analyzed tree.
type Package struct {
	// Path is the package's import path inside the loaded universe.
	// External test packages carry the base path + "_test".
	Path string
	// Dir is the directory the package's files live in.
	Dir string
	// Files are the files rules analyze and report on, sorted by file
	// name: the non-test sources for a base package, only the _test.go
	// files for a test package (the base sources are type-checked into
	// a test package's universe but their findings belong to the base
	// entry).
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression, use, and selection
	// facts for the package's files.
	Info *types.Info
	// Test marks a test universe (in-package augmented variant or
	// external _test package). Rules that don't opt into test
	// packages (Analyzer.Tests) skip these.
	Test bool
}

// LoadModule loads every non-test package of the Go module rooted at
// root (the directory holding go.mod), excluding testdata, vendor,
// and hidden directories. It returns the shared FileSet and the
// packages sorted by import path.
func LoadModule(root string) (*token.FileSet, []*Package, error) {
	modpath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	return LoadTree(root, modpath)
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analyzers: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analyzers: %s has no module directive", gomod)
}

// rawPkg is a parsed-but-not-yet-type-checked package.
type rawPkg struct {
	path  string
	dir   string
	files []*ast.File
	names []string // file names, parallel to files
	// testFiles are the in-package _test.go files (package foo);
	// xtestFiles the external ones (package foo_test).
	testFiles  []*ast.File
	xtestFiles []*ast.File
}

// LoadTree parses and type-checks every package under root, assigning
// import path basePath for root itself and basePath/<rel> for
// subdirectories. Directories named testdata or vendor, entries
// starting with "." or "_", and files the default build context's
// constraints exclude are skipped, mirroring the go tool.
func LoadTree(root, basePath string) (*token.FileSet, []*Package, error) {
	fset := token.NewFileSet()
	raw := map[string]*rawPkg{} // import path → package
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rp, err := parseDir(fset, path, root, basePath)
		if err != nil {
			return err
		}
		if rp != nil {
			raw[rp.path] = rp
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("analyzers: %w", err)
	}
	pkgs, err := typeCheck(fset, raw)
	if err != nil {
		return nil, nil, err
	}
	return fset, pkgs, nil
}

// parseDir parses the Go files of one directory — base sources plus
// the _test.go files, split into in-package and external (package
// foo_test) groups — returning nil when the directory holds none.
func parseDir(fset *token.FileSet, dir, root, basePath string) (*rawPkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := basePath
	if rel != "." {
		path = basePath + "/" + filepath.ToSlash(rel)
	}
	rp := &rawPkg{path: path, dir: dir}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// Build constraints decide membership as they do for the go
		// tool: a `//go:build ignore` generator (package main beside
		// the package it generates for) is not part of the package.
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			rp.files = append(rp.files, f)
			rp.names = append(rp.names, name)
		case strings.HasSuffix(f.Name.Name, "_test"):
			rp.xtestFiles = append(rp.xtestFiles, f)
		default:
			rp.testFiles = append(rp.testFiles, f)
		}
	}
	if len(rp.files) == 0 && len(rp.testFiles) == 0 && len(rp.xtestFiles) == 0 {
		return nil, nil
	}
	return rp, nil
}

// moduleImporter resolves imports during type checking: paths loaded
// from the walked tree come from the loader's own results (one
// types.Package per path, shared by every importer), everything else
// falls through to the stdlib source importer.
type moduleImporter struct {
	local    map[string]*types.Package
	fallback types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.local[path]; ok {
		return p, nil
	}
	return m.fallback.ImportFrom(path, dir, mode)
}

// typeCheck type-checks the raw packages in dependency order: first
// every base package, then the test universes (which may import any
// base package).
func typeCheck(fset *token.FileSet, raw map[string]*rawPkg) ([]*Package, error) {
	imp := &moduleImporter{
		local:    make(map[string]*types.Package, len(raw)),
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	newInfo := func() *types.Info {
		return &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}
	order, err := topoOrder(raw)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range order {
		rp := raw[path]
		if len(rp.files) == 0 {
			continue // test-only directory; handled below
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, rp.files, info)
		if err != nil {
			return nil, fmt.Errorf("analyzers: type-check %s: %w", path, err)
		}
		imp.local[path] = tpkg
		pkgs = append(pkgs, &Package{Path: path, Dir: rp.dir, Files: rp.files, Types: tpkg, Info: info})
	}

	// Test universes. The augmented variant re-checks the base sources
	// together with the in-package test files — the same compilation
	// unit `go test` builds — into a fresh types.Package that never
	// enters the import graph (other packages keep importing the base
	// result). External foo_test packages resolve their base import to
	// the augmented variant so export_test.go helpers are visible.
	for _, path := range order {
		rp := raw[path]
		var augmented *types.Package
		if len(rp.testFiles) > 0 {
			info := newInfo()
			conf := types.Config{Importer: imp}
			all := append(append([]*ast.File{}, rp.files...), rp.testFiles...)
			tpkg, err := conf.Check(path, fset, all, info)
			if err != nil {
				return nil, fmt.Errorf("analyzers: type-check %s [tests]: %w", path, err)
			}
			augmented = tpkg
			pkgs = append(pkgs, &Package{Path: path, Dir: rp.dir, Files: rp.testFiles, Types: tpkg, Info: info, Test: true})
		}
		if len(rp.xtestFiles) > 0 {
			info := newInfo()
			conf := types.Config{Importer: &overrideImporter{base: imp, path: path, pkg: augmented}}
			tpkg, err := conf.Check(path+"_test", fset, rp.xtestFiles, info)
			if err != nil {
				return nil, fmt.Errorf("analyzers: type-check %s_test: %w", path, err)
			}
			pkgs = append(pkgs, &Package{Path: path + "_test", Dir: rp.dir, Files: rp.xtestFiles, Types: tpkg, Info: info, Test: true})
		}
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if pkgs[i].Path != pkgs[j].Path {
			return pkgs[i].Path < pkgs[j].Path
		}
		return !pkgs[i].Test && pkgs[j].Test
	})
	return pkgs, nil
}

// overrideImporter resolves one import path to a specific package (the
// test-augmented variant an external _test package compiles against)
// and defers everything else to the module importer. A nil pkg (no
// in-package test files) falls through to the base package.
type overrideImporter struct {
	base *moduleImporter
	path string
	pkg  *types.Package
}

func (o *overrideImporter) Import(path string) (*types.Package, error) {
	return o.ImportFrom(path, "", 0)
}

func (o *overrideImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == o.path && o.pkg != nil {
		return o.pkg, nil
	}
	return o.base.ImportFrom(path, dir, mode)
}

// topoOrder sorts the raw packages so every package follows its
// intra-tree imports, failing on import cycles.
func topoOrder(raw map[string]*rawPkg) ([]string, error) {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current DFS path (a repeat visit is a cycle)
		black = 2 // done
	)
	state := map[string]int{}
	var order []string
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		switch state[path] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("analyzers: import cycle: %s", strings.Join(append(chain, path), " -> "))
		}
		state[path] = gray
		rp := raw[path]
		var deps []string
		for _, f := range rp.files {
			for _, spec := range f.Imports {
				dep := strings.Trim(spec.Path.Value, `"`)
				if _, ok := raw[dep]; ok {
					deps = append(deps, dep)
				}
			}
		}
		sort.Strings(deps)
		for _, dep := range deps {
			if err := visit(dep, append(chain, path)); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(raw))
	for p := range raw {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}
