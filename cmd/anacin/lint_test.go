package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCmdLintList(t *testing.T) {
	out := captureStdout(t, func() error { return cmdLint([]string{"-list"}) })
	for _, check := range []string{"maprange", "wallclock", "globalrand", "goroutine", "floatfold", "selectorder"} {
		if !strings.Contains(out, check) {
			t.Errorf("lint -list missing %q:\n%s", check, out)
		}
	}
}

// TestCmdLintSelfClean lints this command's own package (which pulls in
// the full internal tree through the importer) and writes the JSON
// report: the tree must be clean, and the artifact well-formed.
func TestCmdLintSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the CLI and its dependency tree; skipped in -short")
	}
	jsonPath := filepath.Join(t.TempDir(), "lint.json")
	out := captureStdout(t, func() error { return cmdLint([]string{"-json", jsonPath, "."}) })
	if !strings.Contains(out, "ok: 1 package(s), 6 checks") {
		t.Errorf("lint output:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Version  int             `json:"version"`
		Module   string          `json:"module"`
		Findings json.RawMessage `json:"findings"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bad JSON report: %v", err)
	}
	if rep.Version != 1 || rep.Module != "github.com/anacin-go/anacinx" {
		t.Errorf("report header: %s", data)
	}
}

// TestCmdLintFailsOnFindings points the CLI at a fixture full of
// violations: the command must print them and return an error (the
// non-zero exit the CI gate relies on).
func TestCmdLintFailsOnFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks fixtures; skipped in -short")
	}
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "maprange")
	var err error
	out := captureStdout(t, func() error { err = cmdLint([]string{fixture}); return nil })
	if err == nil || !strings.Contains(err.Error(), "finding(s)") {
		t.Fatalf("err = %v, want findings error", err)
	}
	if !strings.Contains(out, "maprange: map iteration order escapes") {
		t.Errorf("findings not printed:\n%s", out)
	}
}

func TestCmdLintRejectsUnknownCheck(t *testing.T) {
	if err := cmdLint([]string{"-checks", "bogus"}); err == nil {
		t.Error("unknown check accepted")
	}
}

// TestCmdLintFailsOnTypeErrors points the CLI at a fixture that parses
// but does not type-check: each type error is a finding, and the
// command returns an error instead of reporting the package clean.
func TestCmdLintFailsOnTypeErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks fixtures; skipped in -short")
	}
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "typeerr")
	var err error
	out := captureStdout(t, func() error { err = cmdLint([]string{fixture}); return nil })
	if err == nil || !strings.Contains(err.Error(), "2 finding(s)") {
		t.Fatalf("err = %v, want 2 findings", err)
	}
	for _, want := range []string{
		"typeerr.go:5:27: typecheck: cannot use \"three\"",
		"typeerr.go:7:37: typecheck: undefined: undefined",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ok:") {
		t.Errorf("lint reported a package that does not type-check as ok:\n%s", out)
	}
}
