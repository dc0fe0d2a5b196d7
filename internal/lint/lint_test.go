package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads one testdata package through the real loader.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages from %s, want 1", len(pkgs), dir)
	}
	if errs := pkgs[0].TypeErrs; len(errs) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", dir, errs[0])
	}
	return pkgs[0]
}

// wantsOf extracts the `// want "substr" ...` expectations of a
// package, keyed by (file base name, line).
func wantsOf(pkg *Package) map[string][]string {
	wants := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := posKey(filepath.Base(pos.Filename), pos.Line)
				for _, q := range regexp.MustCompile(`"[^"]+"`).FindAllString(c.Text[idx:], -1) {
					wants[key] = append(wants[key], strings.Trim(q, `"`))
				}
			}
		}
	}
	return wants
}

func posKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// checkWants runs the analyzers over the fixture and matches every
// unsuppressed finding against the want comments, both directions.
func checkWants(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, dir)
	findings := Run([]*Package{pkg}, analyzers)
	wants := wantsOf(pkg)
	matched := make(map[string]map[int]bool) // posKey → want index → hit
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		key := posKey(filepath.Base(f.File), f.Line)
		text := f.Check + ": " + f.Message
		hit := false
		for i, want := range wants[key] {
			if strings.Contains(text, want) {
				if matched[key] == nil {
					matched[key] = make(map[int]bool)
				}
				matched[key][i] = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected finding %s", f)
		}
	}
	for key, list := range wants {
		for i, want := range list {
			if !matched[key][i] {
				t.Errorf("%s: want %q not reported", key, want)
			}
		}
	}
}

func TestMapRangeFixture(t *testing.T)   { checkWants(t, "maprange", MapRange) }
func TestFloatFoldFixture(t *testing.T)  { checkWants(t, "floatfold", FloatFold) }
func TestGlobalRandFixture(t *testing.T) { checkWants(t, "globalrand", GlobalRand) }

func TestVirtualSimFixture(t *testing.T) {
	checkWants(t, filepath.Join("virtual", "sim"), WallClock, Goroutine)
}

func TestVirtualPatternsFixture(t *testing.T) {
	checkWants(t, filepath.Join("virtual", "patterns"), GlobalRand)
}

func TestVirtualKernelFixture(t *testing.T) {
	checkWants(t, filepath.Join("virtual", "kernel"), WallClock)
}

func TestVirtualVtimeFixture(t *testing.T) {
	checkWants(t, filepath.Join("virtual", "vtime"), SelectOrder)
}

// TestVtimeSuppression pins directive coverage for selectorder: the
// fixture's sanctioned select surfaces as a suppressed finding with its
// reason attached.
func TestVtimeSuppression(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("virtual", "vtime"))
	findings := Run([]*Package{pkg}, []*Analyzer{SelectOrder})
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			if !strings.HasPrefix(f.Reason, "fixture:") {
				t.Errorf("unexpected reason %q", f.Reason)
			}
		}
	}
	if suppressed != 1 {
		t.Errorf("suppressed = %d, want 1\n%v", suppressed, findings)
	}
}

// TestSelectOrderOutOfDomain: multi-case selects are fine outside the
// deterministic engine (the campaign service multiplexes legitimately).
func TestSelectOrderOutOfDomain(t *testing.T) {
	pkg := loadFixture(t, "serve")
	if findings := Run([]*Package{pkg}, []*Analyzer{SelectOrder}); len(findings) != 0 {
		t.Errorf("selectorder fired outside its domain: %v", findings)
	}
}

// TestVirtualSimSuppression pins the directive plumbing: the fixture's
// sanctioned sites must surface as suppressed findings, with reasons.
func TestVirtualSimSuppression(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("virtual", "sim"))
	findings := Run([]*Package{pkg}, []*Analyzer{WallClock, Goroutine})
	suppressed := 0
	for _, f := range findings {
		if !f.Suppressed {
			continue
		}
		suppressed++
		if f.Reason == "" {
			t.Errorf("suppressed finding without a reason: %s", f)
		}
		if !strings.HasPrefix(f.Reason, "fixture:") {
			t.Errorf("unexpected reason %q", f.Reason)
		}
	}
	if suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (one wallclock, one goroutine)\n%v", suppressed, findings)
	}
}

// TestDomainChecksDoNotApplyElsewhere: the same source that riddles the
// virtual/sim fixture with findings is silent in a package whose
// directory is outside the virtual-time set.
func TestDomainChecksDoNotApplyElsewhere(t *testing.T) {
	pkg := loadFixture(t, "maprange") // any non-virtual fixture
	for _, a := range []*Analyzer{WallClock, Goroutine} {
		if findings := Run([]*Package{pkg}, []*Analyzer{a}); len(findings) != 0 {
			t.Errorf("%s fired outside its domain: %v", a.Name, findings)
		}
	}
}

// TestServeStyleCodeOutOfDomain pins the linter's scoping for the
// campaign service: a serve-named package full of wall-clock reads,
// goroutines, and net/http produces no wallclock/goroutine findings —
// the service lives outside the simulated world by design (see
// virtualTimePkgs) — while the repo-wide maprange analyzer still fires
// on its one escaping map iteration.
func TestServeStyleCodeOutOfDomain(t *testing.T) {
	checkWants(t, "serve", WallClock, Goroutine, MapRange)
	pkg := loadFixture(t, "serve")
	if findings := Run([]*Package{pkg}, []*Analyzer{WallClock, Goroutine}); len(findings) != 0 {
		t.Errorf("domain analyzers fired on serve-style code: %v", findings)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 6 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 6", len(all), err)
	}
	two, err := ByName("maprange, wallclock")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset: %d, %v", len(two), err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown check accepted")
	}
}
