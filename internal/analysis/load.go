package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package: the unit a Pass inspects.
type Package struct {
	Dir        string
	ImportPath string
	Name       string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks packages from directories. Dependencies
// are resolved by the standard library's source importer, which
// type-checks imports from source via go/build — fully offline, no
// export data or third-party machinery required. One Loader shares a
// FileSet and an importer across Load calls, so common dependencies
// (internal/sim, the standard library) are checked once per Loader, not
// once per package.
//
// The source importer consults the go command for module-aware import
// resolution, so Load must run with a working directory inside the
// module whose packages are being analyzed (any test or `go run`
// invocation satisfies this).
type Loader struct {
	fset *token.FileSet
	imp  types.ImporterFrom
}

// NewLoader returns a Loader with a fresh FileSet and importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset: fset,
		imp:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// Load parses and type-checks the non-test Go files in dir as the
// package importPath. Test files are excluded on purpose: the invariants
// lkvet enforces protect the simulation's measurement paths, and tests
// legitimately use wall clocks, environment variables and unsorted maps.
func (l *Loader) Load(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	bp, err := build.ImportDir(abs, 0)
	if err != nil {
		return nil, fmt.Errorf("lkvet: listing %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lkvet: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lkvet: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Dir:        abs,
		ImportPath: importPath,
		Name:       tpkg.Name(),
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
