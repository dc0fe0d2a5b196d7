package lint

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

// A Package is one loaded, parsed, type-checked package ready for
// analysis.
type Package struct {
	// Path is the import path (module path + directory).
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// ModuleRoot is the absolute directory holding go.mod.
	ModuleRoot string
	// Fset positions every file in the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package (partial when TypeErrs is not
	// empty).
	Types *types.Package
	// Info carries the expression types and ident resolutions the
	// analyzers consume.
	Info *types.Info
	// TypeErrs holds every type-checking error, in the checker's
	// order. Analysis proceeds best-effort on partial information, and
	// Run reports each error as a finding.
	TypeErrs []error
}

// A Loader parses and type-checks packages of the enclosing module
// using only the standard library: go/parser for syntax and go/types
// with the source importer for semantics (the importer shells out to
// the go tool for module-path resolution only — no third-party
// packages, matching the repo's stdlib-only rule).
type Loader struct {
	base       string // absolute dir patterns are resolved against
	moduleRoot string
	modulePath string
	fset       *token.FileSet
	imp        types.Importer
	loaded     map[string]*Package // by absolute dir
}

// NewLoader creates a loader anchored at dir (usually "."). The
// enclosing module is found by walking up to the nearest go.mod.
func NewLoader(dir string) (*Loader, error) {
	base, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, path, err := findModule(base)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		base:       base,
		moduleRoot: root,
		modulePath: path,
		fset:       fset,
		imp:        importer.ForCompiler(fset, "source", nil),
		loaded:     make(map[string]*Package),
	}, nil
}

// ModuleRoot returns the absolute directory containing go.mod.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// ModulePath returns the module's import path.
func (l *Loader) ModulePath() string { return l.modulePath }

func findModule(dir string) (root, modulePath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Load resolves filesystem patterns ("./...", "dir/...", "dir") to
// package directories, then parses and type-checks each one. Packages
// come back sorted by import path. As with the go tool, "..." walks
// skip testdata, vendor, and dot/underscore directories — load a
// testdata package by naming its directory explicitly.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirSet := make(map[string]bool)
	for _, pattern := range patterns {
		if rest, ok := strings.CutSuffix(pattern, "..."); ok {
			root := strings.TrimSuffix(rest, string(filepath.Separator))
			root = strings.TrimSuffix(root, "/")
			if root == "" {
				root = "."
			}
			if err := l.walk(l.abs(root), dirSet); err != nil {
				return nil, err
			}
			continue
		}
		dir := l.abs(pattern)
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: %q is not a package directory", pattern)
		}
		dirSet[dir] = true
	}
	return l.loadDirs(dirSet)
}

// LoadModule loads every package under the module root (the "./..."
// walk anchored at go.mod rather than at the loader's base directory).
func (l *Loader) LoadModule() ([]*Package, error) {
	dirSet := make(map[string]bool)
	if err := l.walk(l.moduleRoot, dirSet); err != nil {
		return nil, err
	}
	return l.loadDirs(dirSet)
}

func (l *Loader) loadDirs(dirSet map[string]bool) ([]*Package, error) {
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func (l *Loader) abs(p string) string {
	if filepath.IsAbs(p) {
		return filepath.Clean(p)
	}
	return filepath.Join(l.base, p)
}

func (l *Loader) walk(root string, dirSet map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
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
		if hasGoFiles(path) {
			dirSet[path] = true
		}
		return nil
	})
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

// isSourceFile reports whether name is a non-test Go source file. Test
// files are excluded from analysis: the invariants guard the product
// code; tests measure wall time and spawn goroutines legitimately.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

func (l *Loader) loadDir(dir string) (*Package, error) {
	if pkg, ok := l.loaded[dir]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		// Build constraints and _GOOS/_GOARCH suffixes select the files
		// the go command would compile here: a package may declare one
		// function in a file per architecture.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if ok {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		l.loaded[dir] = nil
		return nil, nil
	}
	sort.Strings(names) // deterministic file order → deterministic findings
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path:       l.importPath(dir),
		Dir:        dir,
		ModuleRoot: l.moduleRoot,
		Fset:       l.fset,
		Files:      files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{
		Importer: l.imp,
		// Collect every error but keep checking: analyzers work on
		// partial type information rather than refusing to run, and
		// the errors themselves fail the lint (Run).
		Error: func(err error) { pkg.TypeErrs = append(pkg.TypeErrs, err) },
	}
	pkg.Types, _ = conf.Check(pkg.Path, l.fset, files, pkg.Info)
	l.loaded[dir] = pkg
	return pkg, nil
}

func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}
