// Package lint is a stdlib-only static analyzer for the determinism
// invariants this repository rests on.
//
// Every result the pipeline produces — byte-identical traces, bit-identical
// WL feature vectors, reproducible kernel distances — depends on coding
// conventions that no compiler enforces: map iteration must be sorted
// before it can influence any output, the virtual-time world must never
// read the wall clock or the global RNG, and tracer/simulator structures
// are single-owner (only the scheduler starts rank goroutines).
// PRs 1–4 re-proved those properties after the fact with golden tests;
// this package enforces them up front, syntactically, on every build.
//
// The framework is deliberately small: packages are loaded with
// go/parser and type-checked with go/types (source importer — no
// external tooling), each Analyzer runs over a Pass carrying the ASTs
// and type info, and findings carry token.Position plus the suppression
// state derived from //anacin:allow directives. See docs/linting.md for
// the check catalogue and directive syntax.
package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// An Analyzer is one named determinism check.
type Analyzer struct {
	// Name is the check identifier used in findings, -checks selections,
	// and //anacin:allow directives.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Run inspects one package and reports findings on the pass.
	Run func(*Pass)
}

// analyzers is the registry of all checks, sorted by name.
var analyzers = []*Analyzer{
	FloatFold,
	GlobalRand,
	Goroutine,
	MapRange,
	SelectOrder,
	WallClock,
}

// Analyzers returns every registered check, sorted by name.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(analyzers))
	copy(out, analyzers)
	return out
}

// ByName resolves a comma-separated selection of check names. An empty
// selection means all checks.
func ByName(selection string) ([]*Analyzer, error) {
	if strings.TrimSpace(selection) == "" {
		return Analyzers(), nil
	}
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", name, strings.Join(checkNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

func checkNames() []string {
	out := make([]string, len(analyzers))
	for i, a := range analyzers {
		out[i] = a.Name
	}
	return out
}

func isKnownCheck(name string) bool {
	for _, a := range analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

// A Finding is one rule violation at one source position.
type Finding struct {
	// Check is the analyzer name ("maprange", "wallclock", ...),
	// "directive" for malformed //anacin:allow comments, or
	// "typecheck" for a package that does not type-check.
	Check string `json:"check"`
	// File is the path relative to the module root (forward slashes).
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message explains the violation and the sanctioned alternative.
	Message string `json:"message"`
	// Suppressed reports whether an //anacin:allow directive covers the
	// finding; suppressed findings do not fail the lint run.
	Suppressed bool `json:"suppressed"`
	// Reason is the justification text of the covering directive.
	Reason string `json:"reason,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Check, f.Message)
	if f.Suppressed {
		s += fmt.Sprintf(" (allowed: %s)", f.Reason)
	}
	return s
}

// A Pass carries one package through one analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the loaded package under analysis.
	Pkg *Package

	allows   map[string]allowSet // file path (as parsed) → suppressions
	findings *[]Finding
}

// Files returns the package's parsed files, in file-name order.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.Path }

// TypeOf returns the type of an expression, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// PkgFunc resolves a package-qualified selector (e.g. time.Now) to its
// import path and name. It returns ("", "") for anything else —
// method calls, locally-declared selectors, unresolved identifiers.
func (p *Pass) PkgFunc(e ast.Expr) (path, name string) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// Reportf records a finding at pos, applying directive suppression.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(p.Analyzer.Name, pos, fmt.Sprintf(format, args...))
}

func (p *Pass) report(check string, pos token.Pos, message string) {
	position := p.Pkg.Fset.Position(pos)
	f := Finding{
		Check:   check,
		File:    relToModule(p.Pkg.ModuleRoot, position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Message: message,
	}
	if allows, ok := p.allows[position.Filename]; ok {
		if reason, ok := allows.covers(position.Line, check); ok {
			f.Suppressed = true
			f.Reason = reason
		}
	}
	*p.findings = append(*p.findings, f)
}

// relToModule makes file paths stable across machines: relative to the
// module root, with forward slashes.
func relToModule(root, file string) string {
	if root == "" {
		return filepath.ToSlash(file)
	}
	rel, err := filepath.Rel(root, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}

// Run applies the analyzers to every package and returns all findings —
// suppressed ones included — sorted by file, line, column, and check.
// Malformed or unknown //anacin:allow directives are reported as
// findings of the pseudo-check "directive", and type-checking errors
// as findings of the pseudo-check "typecheck"; neither is
// suppressible, so a package the analyzers saw only partially fails
// the lint.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		runPackage(pkg, analyzers, &findings)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return findings
}

func runPackage(pkg *Package, analyzers []*Analyzer, findings *[]Finding) {
	for _, err := range pkg.TypeErrs {
		*findings = append(*findings, typeErrFinding(pkg, err))
	}
	allows := make(map[string]allowSet, len(pkg.Files))
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		allows[name] = collectAllows(pkg, f, findings)
	}
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, allows: allows, findings: findings}
		a.Run(pass)
	}
}

// typeErrFinding reports one type-checking error at its position, or
// at the package directory when the error carries none.
func typeErrFinding(pkg *Package, err error) Finding {
	f := Finding{Check: "typecheck", File: relToModule(pkg.ModuleRoot, pkg.Dir), Message: err.Error()}
	var terr types.Error
	if errors.As(err, &terr) && terr.Pos.IsValid() {
		position := pkg.Fset.Position(terr.Pos)
		f.File = relToModule(pkg.ModuleRoot, position.Filename)
		f.Line, f.Col = position.Line, position.Column
		f.Message = terr.Msg
	}
	return f
}

// Unsuppressed counts the findings not covered by an allow directive.
// This is the lint exit-status criterion.
func Unsuppressed(findings []Finding) int {
	n := 0
	for _, f := range findings {
		if !f.Suppressed {
			n++
		}
	}
	return n
}
