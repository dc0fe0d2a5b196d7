package perf

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenReport is a fully-populated report used by the serialization
// tests.
func goldenReport() *Report {
	return &Report{
		Schema:     Schema,
		Commit:     "abc1234",
		Date:       "2026-08-06T12:00:00Z",
		GoVersion:  "go1.22.0",
		GOOS:       "linux",
		GOARCH:     "amd64",
		GOMAXPROCS: 8,
		Reps:       10,
		Warmup:     2,
		Scenarios: []Result{
			{Name: "wl-features/h2/r32", MedianNs: 120000, P95Ns: 150000, MinNs: 110000, MeanNs: 125000, AllocsPerOp: 4, BytesPerOp: 9560},
			{Name: "gram/w1", MedianNs: 900000, P95Ns: 1100000, MinNs: 850000, MeanNs: 930000, AllocsPerOp: 200, BytesPerOp: 420000},
		},
	}
}

// TestReportRoundTrip pins the BENCH.json golden property: marshal →
// write → load → re-marshal is byte-stable and loses nothing.
func TestReportRoundTrip(t *testing.T) {
	r := goldenReport()
	first, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(first, []byte("\n")) {
		t.Error("marshal output lacks trailing newline")
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, r) {
		t.Fatal("loaded report differs from written report")
	}
	second, err := loaded.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-marshal is not byte-stable:\n%s\nvs\n%s", first, second)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	r := goldenReport()
	r.Schema = "anacinx-bench/v0"
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("Load accepted wrong schema (err=%v)", err)
	}
}

// reportWith builds a minimal report with one median per scenario name.
func reportWith(medians map[string]int64) *Report {
	r := &Report{Schema: Schema}
	// Deterministic order is irrelevant to Compare; insert as given.
	for name, m := range medians {
		r.Scenarios = append(r.Scenarios, Result{Name: name, MedianNs: m})
	}
	return r
}

func deltaByName(t *testing.T, deltas []Delta, name string) Delta {
	t.Helper()
	for _, d := range deltas {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no delta for %q", name)
	return Delta{}
}

func TestCompareEdgeCases(t *testing.T) {
	baseline := &Report{Schema: Schema, Scenarios: []Result{
		{Name: "at-threshold", MedianNs: 100},
		{Name: "just-over", MedianNs: 100},
		{Name: "improved", MedianNs: 100},
		{Name: "vanished", MedianNs: 100},
		{Name: "zero-base", MedianNs: 0},
	}}
	current := &Report{Schema: Schema, Scenarios: []Result{
		{Name: "at-threshold", MedianNs: 125}, // exactly +25%: passes
		{Name: "just-over", MedianNs: 126},    // +26%: fails
		{Name: "improved", MedianNs: 40},
		{Name: "zero-base", MedianNs: 999},
		{Name: "brand-new", MedianNs: 50},
	}}
	deltas, err := Compare(baseline, current, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if d := deltaByName(t, deltas, "at-threshold"); d.Regressed {
		t.Error("exactly-at-threshold regression must pass the gate")
	}
	if d := deltaByName(t, deltas, "just-over"); !d.Regressed {
		t.Error("+26% at 25% threshold must fail the gate")
	}
	if d := deltaByName(t, deltas, "improved"); d.Regressed || d.Ratio != 0.4 {
		t.Errorf("improvement misreported: %+v", d)
	}
	if d := deltaByName(t, deltas, "vanished"); !d.Regressed || d.Note == "" {
		t.Errorf("scenario missing from current must regress: %+v", d)
	}
	if d := deltaByName(t, deltas, "zero-base"); d.Regressed || d.Note == "" {
		t.Errorf("zero baseline must be noted, never regressed: %+v", d)
	}
	if d := deltaByName(t, deltas, "brand-new"); d.Regressed || d.Note == "" {
		t.Errorf("new scenario must be noted, never regressed: %+v", d)
	}
	if got := Regressions(deltas); len(got) != 2 {
		t.Errorf("Regressions returned %d deltas, want 2", len(got))
	}
	var buf bytes.Buffer
	if err := WriteDeltas(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Error("delta table does not flag regressions")
	}

	if _, err := Compare(baseline, current, -1); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := Compare(&Report{Schema: "bogus"}, current, 0.25); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestCompareByMinStat pins the CI gate configuration: the min
// statistic is the one compared, independent of the medians.
func TestCompareByMinStat(t *testing.T) {
	baseline := &Report{Schema: Schema, Scenarios: []Result{
		{Name: "s", MedianNs: 100, MinNs: 80},
	}}
	current := &Report{Schema: Schema, Scenarios: []Result{
		{Name: "s", MedianNs: 300, MinNs: 90}, // median tripled, min +12.5%
	}}
	deltas, err := CompareBy(baseline, current, 0.25, StatMin)
	if err != nil {
		t.Fatal(err)
	}
	d := deltaByName(t, deltas, "s")
	if d.Regressed || d.BaselineNs != 80 || d.CurrentNs != 90 {
		t.Errorf("min-stat gate misread the reports: %+v", d)
	}
	deltas, err = CompareBy(baseline, current, 0.10, StatMin)
	if err != nil {
		t.Fatal(err)
	}
	if d := deltaByName(t, deltas, "s"); !d.Regressed {
		t.Errorf("min +12.5%% at 10%% threshold must regress: %+v", d)
	}
	if _, err := CompareBy(baseline, current, 0.25, Stat("p95")); err == nil {
		t.Error("unknown stat accepted")
	}
}

// TestCompareAllocGate pins the allocs/op gate: a regression must clear
// both the relative threshold and the absolute allocSlack, so leaks on
// big counts trip the gate while a few stray allocations on tiny counts
// do not.
func TestCompareAllocGate(t *testing.T) {
	baseline := &Report{Schema: Schema, Scenarios: []Result{
		{Name: "big-leak", MedianNs: 100, AllocsPerOp: 1000},
		{Name: "big-at-threshold", MedianNs: 100, AllocsPerOp: 1000},
		{Name: "small-jitter", MedianNs: 100, AllocsPerOp: 4},
		{Name: "small-leak", MedianNs: 100, AllocsPerOp: 4},
		{Name: "zero-alloc-grown", MedianNs: 100, AllocsPerOp: 0},
		{Name: "improved", MedianNs: 100, AllocsPerOp: 1000},
	}}
	current := &Report{Schema: Schema, Scenarios: []Result{
		{Name: "big-leak", MedianNs: 100, AllocsPerOp: 1300},         // +30%: fails
		{Name: "big-at-threshold", MedianNs: 100, AllocsPerOp: 1250}, // exactly +25%: passes
		{Name: "small-jitter", MedianNs: 100, AllocsPerOp: 20},       // 5x but +16 ≤ slack: passes
		{Name: "small-leak", MedianNs: 100, AllocsPerOp: 21},         // 5.25x and +17 > slack: fails
		{Name: "zero-alloc-grown", MedianNs: 100, AllocsPerOp: 100},  // 0 → 100: fails
		{Name: "improved", MedianNs: 100, AllocsPerOp: 100},
	}}
	deltas, err := Compare(baseline, current, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{
		"big-leak":         true,
		"big-at-threshold": false,
		"small-jitter":     false,
		"small-leak":       true,
		"zero-alloc-grown": true,
		"improved":         false,
	} {
		d := deltaByName(t, deltas, name)
		if d.AllocRegressed != want {
			t.Errorf("%s: AllocRegressed = %v, want %v (%d -> %d allocs)",
				name, d.AllocRegressed, want, d.BaselineAllocs, d.CurrentAllocs)
		}
		if d.Regressed {
			t.Errorf("%s: timed gate tripped, but only allocs moved: %+v", name, d)
		}
	}
	if d := deltaByName(t, deltas, "improved"); d.AllocRatio != 0.1 {
		t.Errorf("improved: AllocRatio = %v, want 0.1", d.AllocRatio)
	}
	if got := Regressions(deltas); len(got) != 3 {
		t.Errorf("Regressions returned %d deltas, want 3 alloc regressions", len(got))
	}
	var buf bytes.Buffer
	if err := WriteDeltas(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "REGRESSED allocs") {
		t.Errorf("delta table does not flag alloc regressions:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "allocs 1000 -> 1300 (+30.0%)") {
		t.Errorf("delta table does not show alloc movement:\n%s", buf.String())
	}
}

// TestCompareBytesGate pins the output-size gate: growth past the
// threshold fails only when both sides measured a size, so old
// baselines without the field and wall-clock-only scenarios stay inert.
func TestCompareBytesGate(t *testing.T) {
	baseline := &Report{Schema: Schema, Scenarios: []Result{
		{Name: "bloated", MedianNs: 100, OutputBytes: 1000},
		{Name: "at-threshold", MedianNs: 100, OutputBytes: 1000},
		{Name: "shrunk", MedianNs: 100, OutputBytes: 1000},
		{Name: "no-baseline-size", MedianNs: 100},
		{Name: "size-dropped", MedianNs: 100, OutputBytes: 1000},
	}}
	current := &Report{Schema: Schema, Scenarios: []Result{
		{Name: "bloated", MedianNs: 100, OutputBytes: 1300},      // +30%: fails
		{Name: "at-threshold", MedianNs: 100, OutputBytes: 1250}, // exactly +25%: passes
		{Name: "shrunk", MedianNs: 100, OutputBytes: 600},
		{Name: "no-baseline-size", MedianNs: 100, OutputBytes: 5000}, // no anchor: inert
		{Name: "size-dropped", MedianNs: 100},                        // measurement removed: inert
	}}
	deltas, err := Compare(baseline, current, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{
		"bloated":          true,
		"at-threshold":     false,
		"shrunk":           false,
		"no-baseline-size": false,
		"size-dropped":     false,
	} {
		d := deltaByName(t, deltas, name)
		if d.BytesRegressed != want {
			t.Errorf("%s: BytesRegressed = %v, want %v (%d -> %d bytes)",
				name, d.BytesRegressed, want, d.BaselineBytes, d.CurrentBytes)
		}
		if d.Regressed || d.AllocRegressed {
			t.Errorf("%s: wrong gate tripped, only output size moved: %+v", name, d)
		}
	}
	if d := deltaByName(t, deltas, "shrunk"); d.BytesRatio != 0.6 {
		t.Errorf("shrunk: BytesRatio = %v, want 0.6", d.BytesRatio)
	}
	if got := Regressions(deltas); len(got) != 1 {
		t.Errorf("Regressions returned %d deltas, want 1 size regression", len(got))
	}
	var buf bytes.Buffer
	if err := WriteDeltas(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "REGRESSED bytes") {
		t.Errorf("delta table does not flag size regressions:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "bytes 1000 -> 1300 (+30.0%)") {
		t.Errorf("delta table does not show size movement:\n%s", buf.String())
	}
}

// TestMarkdownWriters pins the step-summary tables: a results table
// row per scenario, and a delta table that labels regressions,
// improvements, and ungated (noted) scenarios distinctly.
func TestMarkdownWriters(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMarkdownReport(&buf, goldenReport()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"### Benchmark results (10 reps, 2 warmup, GOMAXPROCS 8)",
		"| Scenario | Median | P95 | Min | Allocs/op | Output |",
		"| wl-features/h2/r32 | 120µs | 150µs | 110µs | 4 |  |",
		"| gram/w1 | 900µs | 1.1ms | 850µs | 200 |  |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("results table missing %q:\n%s", want, got)
		}
	}

	deltas := []Delta{
		{Name: "worse", BaselineNs: 100, CurrentNs: 200, Ratio: 2, Regressed: true},
		{Name: "better", BaselineNs: 200, CurrentNs: 100, Ratio: 0.5},
		{Name: "flat", BaselineNs: 100, CurrentNs: 100, Ratio: 1},
		{Name: "leaky", BaselineNs: 100, CurrentNs: 100, Ratio: 1,
			BaselineAllocs: 10, CurrentAllocs: 500, AllocRatio: 50, AllocRegressed: true},
		{Name: "bloat", BaselineNs: 100, CurrentNs: 100, Ratio: 1,
			BaselineBytes: 1000, CurrentBytes: 2000, BytesRatio: 2, BytesRegressed: true},
		{Name: "new", CurrentNs: 50, Note: "new scenario (not gated)"},
	}
	buf.Reset()
	if err := WriteMarkdownDeltas(&buf, deltas, StatMin, 0.25); err != nil {
		t.Fatal(err)
	}
	got = buf.String()
	for _, want := range []string{
		"### Benchmark comparison (gate: +25% min)",
		"| worse | 100ns | 200ns | +100.0% | 0 → 0 |  | ❌ regressed (time) |",
		"| better | 200ns | 100ns | -50.0% | 0 → 0 |  | ✅ faster |",
		"| flat | 100ns | 100ns | +0.0% | 0 → 0 |  | ✅ |",
		"| leaky | 100ns | 100ns | +0.0% | 10 → 500 |  | ❌ regressed (allocs) |",
		"| bloat | 100ns | 100ns | +0.0% | 0 → 0 | 1000 → 2000 B (+100.0%) | ❌ regressed (bytes) |",
		"| new | 0s | 50ns | n/a | 0 → 0 |  | ➖ new scenario (not gated) |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("delta table missing %q:\n%s", want, got)
		}
	}
}

func TestParseStat(t *testing.T) {
	for _, ok := range []string{"median", "min"} {
		if s, err := ParseStat(ok); err != nil || string(s) != ok {
			t.Errorf("ParseStat(%q) = %q, %v", ok, s, err)
		}
	}
	if _, err := ParseStat("mean"); err == nil {
		t.Error("ParseStat accepted unsupported statistic")
	}
}

// TestRunHarness smoke-tests the measurement loop on synthetic
// scenarios: statistics must be ordered, warmup must not be counted,
// and setup/op failures must surface with scenario context.
func TestRunHarness(t *testing.T) {
	calls := 0
	rep, err := Run([]Scenario{{
		Name: "counting",
		Setup: func() (func() error, error) {
			return func() error { calls++; return nil }, nil
		},
	}}, Options{Reps: 5, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Errorf("op ran %d times, want 5 timed + 2 warmup + 1 alloc", calls)
	}
	if rep.Schema != Schema || rep.Reps != 5 || rep.Warmup != 2 || rep.GOMAXPROCS < 1 {
		t.Errorf("report metadata wrong: %+v", rep)
	}
	res := rep.Scenarios[0]
	if res.MinNs > res.MedianNs || res.MedianNs > res.P95Ns {
		t.Errorf("statistics out of order: min %d median %d p95 %d", res.MinNs, res.MedianNs, res.P95Ns)
	}

	boom := errors.New("boom")
	if _, err := Run([]Scenario{{Name: "bad-setup", Setup: func() (func() error, error) { return nil, boom }}}, Options{Reps: 1}); !errors.Is(err, boom) {
		t.Errorf("setup error not propagated: %v", err)
	}
	if _, err := Run([]Scenario{{Name: "bad-op", Setup: func() (func() error, error) {
		return func() error { return boom }, nil
	}}}, Options{Reps: 1}); !errors.Is(err, boom) || !strings.Contains(err.Error(), "bad-op") {
		t.Errorf("op error lacks scenario context: %v", err)
	}
}

func TestStatisticsHelpers(t *testing.T) {
	if m := median([]int64{1, 2, 3}); m != 2 {
		t.Errorf("odd median = %d", m)
	}
	if m := median([]int64{1, 2, 3, 10}); m != 2 {
		t.Errorf("even median = %d, want 2", m)
	}
	if p := percentile([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); p != 10 {
		t.Errorf("p95 of 1..10 = %d, want 10", p)
	}
	if p := percentile([]int64{7}, 0.95); p != 7 {
		t.Errorf("p95 of singleton = %d", p)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(AllScenarios()) {
		t.Fatalf("Select(all): %d scenarios, err %v", len(all), err)
	}
	quick, err := Select("quick")
	if err != nil {
		t.Fatal(err)
	}
	if len(quick) == 0 || len(quick) >= len(all) {
		t.Errorf("quick set has %d scenarios, want a strict non-empty subset of %d", len(quick), len(all))
	}
	named, err := Select("gram/w1, wl-features/h2/r32")
	if err != nil || len(named) != 2 || named[0].Name != "gram/w1" {
		t.Fatalf("explicit selection failed: %v, %v", named, err)
	}
	if _, err := Select("no-such-scenario"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario accepted: %v", err)
	}
	if _, err := Select("gram/w1,gram/w1"); err == nil {
		t.Error("duplicate scenario accepted")
	}
}

// TestScenarioSetupsRun executes one timed rep of the quick set —
// end-to-end coverage that scenario wiring (simulator, kernel,
// figures) actually works.
func TestScenarioSetupsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario execution in -short mode")
	}
	quick, err := Select("quick")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(quick, Options{Reps: 1, Warmup: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Scenarios {
		if res.MinNs <= 0 {
			t.Errorf("%s: non-positive timing %d", res.Name, res.MinNs)
		}
	}
}
