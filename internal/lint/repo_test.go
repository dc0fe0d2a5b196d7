package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositoryIsLintClean is the no-new-findings gate in test form:
// every determinism check over every package of this module must come
// back either clean or suppressed by an //anacin:allow directive with a
// reason. If this test fails, either fix the reported site or — when
// the code is right and the rule has a sanctioned exception — annotate
// it (docs/linting.md).
func TestRepositoryIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages — the module walk is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, err := range pkg.TypeErrs {
			t.Errorf("%s: type-check: %v", pkg.Path, err)
		}
	}
	findings := Run(pkgs, Analyzers())
	for _, f := range findings {
		if !f.Suppressed {
			t.Errorf("unsuppressed finding: %s", f)
		}
	}

	// The sanctioned exceptions are part of the contract: the wallclock
	// contrast runtime, the scheduler's rank launch, and the map-order
	// Dot oracle must be present AND annotated. Their disappearance
	// means either the code moved (update this test) or the directive
	// plumbing silently stopped matching (a linter bug).
	wantSuppressed := map[string]string{
		"internal/sim/wallclock.go": "wallclock",
		"internal/sim/sched.go":     "goroutine",
		"internal/kernel/kernel.go": "floatfold",
	}
	for file, check := range wantSuppressed {
		found := false
		for _, f := range findings {
			if f.File == file && f.Check == check && f.Suppressed && f.Reason != "" {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected a suppressed %s finding with a reason in %s", check, file)
		}
	}

	// The goroutine exceptions are exactly the two sanctioned launch
	// sites (docs/linting.md): a new suppressed `go` statement in the
	// single-owner packages must be argued into this list, not slip in
	// behind a directive.
	goroutineFiles := map[string]bool{}
	for _, f := range findings {
		if f.Check == "goroutine" && f.Suppressed {
			goroutineFiles[f.File] = true
		}
	}
	wantGoroutineFiles := map[string]bool{
		"internal/sim/sched.go":     true,
		"internal/sim/wallclock.go": true,
	}
	for file := range goroutineFiles {
		if !wantGoroutineFiles[file] {
			t.Errorf("suppressed goroutine finding in %s; the sanctioned sites are internal/sim/{sched,wallclock}.go", file)
		}
	}
	for file := range wantGoroutineFiles {
		if !goroutineFiles[file] {
			t.Errorf("expected a suppressed goroutine finding in %s", file)
		}
	}
}

// TestLoaderSkipsTestdata: the module walk must not descend into the
// fixture tree (fixtures are full of deliberate violations).
func TestLoaderSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("walk descended into %s", pkg.Path)
		}
	}
}

func TestLoaderRejectsBadPattern(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("no/such/dir"); err == nil {
		t.Error("bad pattern accepted")
	}
}

// The loader compiles the files the go command would: a file excluded
// by its build constraint is neither parsed into the package nor
// type-checked against the file that replaces it.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	pkg := loadFixture(t, "buildtags")
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want the one whose constraint holds", len(pkg.Files))
	}
	if name := filepath.Base(pkg.Fset.File(pkg.Files[0].Pos()).Name()); name != "pick.go" {
		t.Errorf("loaded %s, want pick.go", name)
	}
}
