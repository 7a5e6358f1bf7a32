package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a parsed view of the Go module under analysis. polarvet must
// work in an offline build sandbox, so package loading is hand-rolled on
// the standard library only: module packages are located by walking the
// tree, and type information comes from go/types with a recursive
// importer (module packages are type-checked from source; standard
// library packages go through go/importer's source compiler, which also
// reads source and needs no precompiled export data).
type Module struct {
	Root string // directory containing go.mod
	Path string // module path, e.g. "polardb"

	fset  *token.FileSet
	cache map[string]*Package
	std   types.ImporterFrom
}

// Package is one loaded, type-checked package (test files excluded).
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Mod   *Module // the module this package was loaded from
}

// LoadModule opens the module rooted at root (the directory holding
// go.mod) and prepares the loader.
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	path := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			path = strings.TrimSpace(rest)
			break
		}
	}
	if path == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Module{
		Root:  abs,
		Path:  path,
		fset:  fset,
		cache: map[string]*Package{},
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}, nil
}

// Loaded returns every module package loaded so far (including packages
// pulled in as dependencies of the requested patterns), sorted by import
// path. Module-level analyses use this as their whole-module view: a
// pattern-restricted run still sees every package its selection imports.
func (m *Module) Loaded() []*Package {
	var out []*Package
	for _, p := range m.cache {
		if p != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Packages expands package patterns ("./...", "./internal/...",
// "./internal/rmem") into the module's matching import paths, sorted.
func (m *Module) Packages(patterns ...string) ([]string, error) {
	all, err := m.walk()
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	matched := make([]bool, len(patterns))
	match := func(rel string) bool {
		hit := false
		for i, pat := range patterns {
			pat = strings.TrimPrefix(pat, "./")
			if strings.HasSuffix(pat, "...") {
				prefix := strings.TrimSuffix(pat, "...")
				prefix = strings.TrimSuffix(prefix, "/")
				if prefix == "" || rel == prefix || strings.HasPrefix(rel, prefix+"/") {
					matched[i] = true
					hit = true
				}
			} else if rel == pat || (pat == "." && rel == "") {
				matched[i] = true
				hit = true
			}
		}
		return hit
	}
	var out []string
	for _, rel := range all {
		if match(rel) {
			if rel == "" {
				out = append(out, m.Path)
			} else {
				out = append(out, m.Path+"/"+rel)
			}
		}
	}
	// A pattern that matches nothing is a typo'd path, and silently
	// linting zero packages would look like a clean run.
	for i, ok := range matched {
		if !ok {
			return nil, fmt.Errorf("lint: pattern %q matched no packages", patterns[i])
		}
	}
	sort.Strings(out)
	return out, nil
}

// walk lists module-relative directories containing non-test .go files.
func (m *Module) walk() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(m.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != m.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(m.Root, filepath.Dir(p))
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var uniq []string
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			uniq = append(uniq, d)
		}
	}
	return uniq, nil
}

// Load parses and type-checks one module package by import path.
func (m *Module) Load(importPath string) (*Package, error) {
	if p, ok := m.cache[importPath]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return p, nil
	}
	m.cache[importPath] = nil // cycle marker
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, m.Path), "/")
	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	cfg := types.Config{Importer: (*moduleImporter)(m)}
	tpkg, err := cfg.Check(importPath, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p := &Package{Path: importPath, Dir: dir, Fset: m.fset, Files: files, Pkg: tpkg, Info: info, Mod: m}
	m.cache[importPath] = p
	return p, nil
}

// moduleImporter resolves imports during type-checking: module-local
// packages recurse through Load, everything else is treated as standard
// library and loaded from GOROOT source.
type moduleImporter Module

func (i *moduleImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	m := (*Module)(i)
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		p, err := m.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return m.std.ImportFrom(path, dir, 0)
}
