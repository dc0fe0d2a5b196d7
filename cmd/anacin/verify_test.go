package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCmdVerifyAllClean verifies every registered pattern and writes
// the JSON report: all patterns must pass, and the artifact must use
// the shared envelope shape.
func TestCmdVerifyAllClean(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "verify.json")
	out := captureStdout(t, func() error {
		return cmdVerify([]string{"-all", "-json", jsonPath})
	})
	if !strings.Contains(out, "ok: 11 pattern(s)") {
		t.Errorf("verify output:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Version   int             `json:"version"`
		Module    string          `json:"module"`
		Checks    []string        `json:"checks"`
		Findings  json.RawMessage `json:"findings"`
		Summaries []struct {
			Pattern   string `json:"pattern"`
			Procs     int    `json:"procs"`
			Exactness string `json:"exactness"`
		} `json:"summaries"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bad JSON report: %v", err)
	}
	if rep.Version != 1 || rep.Module != modulePath || len(rep.Checks) == 0 {
		t.Errorf("report header: %s", data[:200])
	}
	if len(rep.Summaries) == 0 || rep.Summaries[0].Pattern == "" || rep.Summaries[0].Procs == 0 {
		t.Errorf("artifact carries no per-configuration summaries: %s", data[:200])
	}
}

func TestCmdVerifyVerboseSummaries(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdVerify([]string{"-v", "-procs", "4", "-iters", "1", "message_race"})
	})
	if !strings.Contains(out, "message_race") || !strings.Contains(out, "matchings 6") {
		t.Errorf("missing summary line:\n%s", out)
	}
	if !strings.Contains(out, "nd-structure") {
		t.Errorf("verbose mode must print the ND-source report:\n%s", out)
	}
}

func TestCmdVerifyRejectsUnknownPattern(t *testing.T) {
	if err := cmdVerify([]string{"bogus"}); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestCmdVerifyRequiresPatterns(t *testing.T) {
	if err := cmdVerify([]string{}); err == nil {
		t.Error("no-argument invocation accepted")
	}
	if err := cmdVerify([]string{"-all", "message_race"}); err == nil {
		t.Error("-all with explicit names accepted")
	}
}

func TestCmdVerifyRejectsBadSweep(t *testing.T) {
	if err := cmdVerify([]string{"-procs", "0", "message_race"}); err == nil {
		t.Error("-procs 0 accepted")
	}
	if err := cmdVerify([]string{"-iters", "x", "message_race"}); err == nil {
		t.Error("non-numeric -iters accepted")
	}
}

// TestCmdVerifyDedupesSweep checks that a repeated process or
// iteration count is verified once: one summary row, one configuration.
func TestCmdVerifyDedupesSweep(t *testing.T) {
	for _, args := range [][]string{
		{"-v", "-procs", "2,2", "-iters", "1", "message_race"},
		{"-v", "-procs", "2", "-iters", "1,1", "message_race"},
	} {
		out := captureStdout(t, func() error { return cmdVerify(args) })
		if rows := strings.Count(out, " P=2 "); rows != 1 {
			t.Errorf("%v: %d summary rows, want 1:\n%s", args, rows, out)
		}
		if !strings.Contains(out, "ok: 1 pattern(s), 1 configuration(s)") {
			t.Errorf("%v: want 1 configuration:\n%s", args, out)
		}
	}
}
