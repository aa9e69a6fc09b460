// Package loader discovers, parses, and type-checks the packages of this
// module so the determinism analyzers in internal/lint can run over them
// without any dependency outside the standard library.
//
// Resolution is fully offline and deterministic: import paths inside the
// module (module path "repro") are type-checked from source in-place,
// standard-library imports are delegated to the compiler's source
// importer rooted at GOROOT, and no subprocess or network access is ever
// needed. That keeps `go run ./cmd/analyze ./...` usable in the same
// hermetic environments the experiments themselves target.
//
// A `/...` walk does not stop at a nested go.mod: a module nested under
// the root, such as the benchmark harness in bench/, is loaded as part
// of this one (bench/ as repro/bench), so `go run ./cmd/analyze ./...`
// from the root lints it too.
package loader

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

// Package is one loaded, type-checked analysis unit. In-package test
// files (_test.go of the same package) are included in the unit; an
// external test package (package foo_test) forms its own unit.
type Package struct {
	Dir  string
	Path string // import path ("repro/internal/stats", or dir-derived)

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads module packages. It caches type-checked import
// dependencies so loading the whole tree checks each package once.
type Loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string

	std      types.ImporterFrom
	imports  map[string]*types.Package // completed import units (no test files)
	checking map[string]bool           // cycle guard
}

// New returns a Loader rooted at the module containing dir (or the
// working directory if dir is empty).
func New(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("loader: source importer does not implement ImporterFrom")
	}
	return &Loader{
		fset:     fset,
		modRoot:  root,
		modPath:  path,
		std:      std,
		imports:  map[string]*types.Package{},
		checking: map[string]bool{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("loader: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("loader: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the given package patterns ("./...", "dir/...", plain
// directories) into type-checked analysis units, sorted by import path.
// Walked patterns skip testdata, vendor, hidden, and underscore
// directories, but not nested modules: a directory with its own go.mod
// is walked and gets an import path under this module's. Naming a
// testdata directory explicitly loads it, which is how analyzer fixtures
// are checked.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs.explicit {
		ps, err := l.loadDir(dir, true)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	for _, dir := range dirs.walked {
		ps, err := l.loadDir(dir, false)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

type dirSet struct {
	explicit []string // named directly: NoGo is an error
	walked   []string // found under a /... pattern: NoGo dirs are skipped
}

func (l *Loader) expand(patterns []string) (dirSet, error) {
	var ds dirSet
	seen := map[string]bool{}
	add := func(list *[]string, dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			*list = append(*list, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Clean(rest)
			if root == "" || root == "."+string(filepath.Separator) {
				root = "."
			}
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				add(&ds.walked, p)
				return nil
			})
			if err != nil {
				return ds, err
			}
			continue
		}
		add(&ds.explicit, pat)
	}
	return ds, nil
}

// importPathFor derives the import path of a directory.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(abs), nil
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir loads the analysis units of one directory: the package
// including its in-package test files and, if present, the external test
// package.
func (l *Loader) loadDir(dir string, explicit bool) ([]*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, noGo := err.(*build.NoGoError); noGo && !explicit {
			return nil, nil
		}
		return nil, fmt.Errorf("loader: %s: %w", dir, err)
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	if len(bp.GoFiles) > 0 || len(bp.TestGoFiles) > 0 {
		p, err := l.check(dir, path, bp.Name, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	if len(bp.XTestGoFiles) > 0 {
		p, err := l.check(dir, path+"_test", bp.Name+"_test", bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// check parses and type-checks one unit.
func (l *Loader) check(dir, path, name string, fileNames []string) (*Package, error) {
	sort.Strings(fileNames)
	files := make([]*ast.File, 0, len(fileNames))
	for _, fn := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, fn), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", path, err)
	}
	_ = name
	return &Package{Dir: dir, Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal packages are
// type-checked from source in-place; everything else is assumed to be
// standard library and resolved through the compiler's source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	if p, ok := l.imports[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	dir := filepath.Join(l.modRoot, filepath.FromSlash(rel))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("loader: resolving import %q: %w", path, err)
	}
	// Import dependencies are checked without their test files: that is
	// the package other code compiles against.
	p, err := l.check(dir, path, bp.Name, append([]string{}, bp.GoFiles...))
	if err != nil {
		return nil, err
	}
	l.imports[path] = p.Types
	return p.Types, nil
}
