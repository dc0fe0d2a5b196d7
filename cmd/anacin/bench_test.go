package main

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/anacin-go/anacinx/internal/perf"
)

func TestCmdBenchList(t *testing.T) {
	out := captureStdout(t, func() error { return cmdBench([]string{"-list"}) })
	for _, want := range []string{"sim/32rank-stacks", "sim/32rank-nostacks", "trace-to-graph/32rank",
		"wl-features/h2/r32", "dot/wl-h2", "gram/w1",
		"slice-profile/32rank", "figure/fig2"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench -list output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdBenchWritesReportAndGates runs the quick scenario set, checks
// the written BENCH.json is loadable and complete, then exercises the
// regression gate in both directions: identical baseline → pass,
// injected 2x slowdown (baseline medians halved) → non-zero exit —
// plus the allocs/op gate via an alloc-only injection.
func TestCmdBenchWritesReportAndGates(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "BENCH.json")
	out := captureStdout(t, func() error {
		return cmdBench([]string{"-scenarios", "quick", "-reps", "3", "-warmup", "1", "-o", benchPath})
	})
	if !strings.Contains(out, "wrote "+benchPath) {
		t.Errorf("bench output does not mention the report:\n%s", out)
	}
	report, err := perf.Load(benchPath)
	if err != nil {
		t.Fatalf("written BENCH.json is invalid: %v", err)
	}
	if len(report.Scenarios) != 18 {
		t.Fatalf("quick report has %d scenarios, want 18", len(report.Scenarios))
	}
	for _, res := range report.Scenarios {
		if res.MedianNs <= 0 {
			t.Errorf("%s: non-positive median %d", res.Name, res.MedianNs)
		}
	}

	// Self-comparison: a report can never regress against itself.
	selfPath := filepath.Join(dir, "self.json")
	if err := report.WriteFile(selfPath); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() error {
		return cmdBench([]string{"-scenarios", "quick", "-reps", "2", "-warmup", "0",
			"-o", filepath.Join(dir, "again.json"), "-compare", selfPath, "-threshold", "100"})
	})
	if !strings.Contains(out, "no regressions") {
		t.Errorf("self-comparison regressed:\n%s", out)
	}

	// Injected 2x slowdown: halving the baseline medians makes the
	// current run look twice as slow; the 25% gate must trip.
	slow := *report
	slow.Scenarios = append([]perf.Result(nil), report.Scenarios...)
	for i := range slow.Scenarios {
		slow.Scenarios[i].MedianNs /= 2
		if slow.Scenarios[i].MedianNs == 0 {
			slow.Scenarios[i].MedianNs = 1
		}
	}
	slowPath := filepath.Join(dir, "baseline-fast.json")
	if err := slow.WriteFile(slowPath); err != nil {
		t.Fatal(err)
	}
	err = cmdBench([]string{"-scenarios", "quick", "-reps", "2", "-warmup", "0",
		"-o", filepath.Join(dir, "gated.json"), "-compare", slowPath})
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("injected 2x slowdown did not trip the gate: err=%v", err)
	}

	// Same injection on the min statistic, gated via -stat min (the CI
	// configuration).
	slowMin := *report
	slowMin.Scenarios = append([]perf.Result(nil), report.Scenarios...)
	for i := range slowMin.Scenarios {
		slowMin.Scenarios[i].MinNs /= 2
		if slowMin.Scenarios[i].MinNs == 0 {
			slowMin.Scenarios[i].MinNs = 1
		}
	}
	slowMinPath := filepath.Join(dir, "baseline-fast-min.json")
	if err := slowMin.WriteFile(slowMinPath); err != nil {
		t.Fatal(err)
	}
	err = cmdBench([]string{"-scenarios", "quick", "-reps", "2", "-warmup", "0",
		"-o", filepath.Join(dir, "gated-min.json"), "-compare", slowMinPath, "-stat", "min"})
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("injected 2x min slowdown did not trip the -stat min gate: err=%v", err)
	}

	// Alloc-only injection: a baseline with 1 alloc/op but 1000x the
	// measured time can never trip the timed gate, so the failure below
	// can only come from the allocs/op gate.
	var lean perf.Report
	lean.Schema = report.Schema
	for _, res := range report.Scenarios {
		if res.Name != "sim/32rank-stacks" {
			continue
		}
		res.MedianNs *= 1000
		res.MinNs *= 1000
		res.AllocsPerOp = 1
		lean.Scenarios = append(lean.Scenarios, res)
	}
	if len(lean.Scenarios) != 1 {
		t.Fatal("quick report lacks sim/32rank-stacks")
	}
	leanPath := filepath.Join(dir, "baseline-lean.json")
	if err := lean.WriteFile(leanPath); err != nil {
		t.Fatal(err)
	}
	err = cmdBench([]string{"-scenarios", "sim/32rank-stacks", "-reps", "2", "-warmup", "0",
		"-o", filepath.Join(dir, "gated-allocs.json"), "-compare", leanPath})
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("injected alloc regression did not trip the gate: err=%v", err)
	}
}

// TestCmdBenchSummary exercises the -summary flag both ways: a plain
// run appends a results table, a -compare run appends a delta table,
// and the file accumulates (append semantics, like
// $GITHUB_STEP_SUMMARY).
func TestCmdBenchSummary(t *testing.T) {
	dir := t.TempDir()
	summaryPath := filepath.Join(dir, "summary.md")
	benchPath := filepath.Join(dir, "BENCH.json")
	captureStdout(t, func() error {
		return cmdBench([]string{"-scenarios", "dot/wl-h2", "-reps", "2", "-warmup", "0",
			"-o", benchPath, "-summary", summaryPath})
	})
	first, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), "### Benchmark results") ||
		!strings.Contains(string(first), "dot/wl-h2") {
		t.Fatalf("summary missing results table:\n%s", first)
	}

	captureStdout(t, func() error {
		return cmdBench([]string{"-scenarios", "dot/wl-h2", "-reps", "2", "-warmup", "0",
			"-o", filepath.Join(dir, "again.json"), "-compare", benchPath,
			"-threshold", "100", "-summary", summaryPath})
	})
	both, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) <= len(first) {
		t.Fatal("-summary truncated the file instead of appending")
	}
	if !strings.Contains(string(both), "### Benchmark comparison") ||
		!strings.Contains(string(both), "| Scenario | Baseline | Current |") {
		t.Fatalf("summary missing delta table:\n%s", both)
	}
}

func TestCmdBenchRejectsUnknownStat(t *testing.T) {
	if err := cmdBench([]string{"-scenarios", "quick", "-stat", "p99"}); err == nil ||
		!strings.Contains(err.Error(), "statistic") {
		t.Errorf("unknown -stat accepted: %v", err)
	}
}

func TestCmdBenchRejectsUnknownScenario(t *testing.T) {
	if err := cmdBench([]string{"-scenarios", "no-such"}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestRevisionOfMarksUncommittedBuilds pins the commit a BENCH.json
// report names: the short vcs.revision, with "-dirty" appended when
// the binary was built from a tree with uncommitted changes.
func TestRevisionOfMarksUncommittedBuilds(t *testing.T) {
	const full = "9836606f511fa2519fcd7ffeff87701e786dbbb9"
	rev := debug.BuildSetting{Key: "vcs.revision", Value: full}
	cases := []struct {
		name     string
		settings []debug.BuildSetting
		want     string
	}{
		{"no vcs info", nil, ""},
		{"clean", []debug.BuildSetting{rev, {Key: "vcs.modified", Value: "false"}}, "9836606f511f"},
		{"dirty", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, rev}, "9836606f511f-dirty"},
		{"no modified key", []debug.BuildSetting{rev}, "9836606f511f"},
		{"short revision", []debug.BuildSetting{{Key: "vcs.revision", Value: "abc"}, {Key: "vcs.modified", Value: "true"}}, "abc-dirty"},
		{"modified without revision", []debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
	}
	for _, c := range cases {
		if got := revisionOf(c.settings); got != c.want {
			t.Errorf("%s: revisionOf = %q, want %q", c.name, got, c.want)
		}
	}
}
