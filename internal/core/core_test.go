package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/sim"
)

func TestDefaultExperimentValid(t *testing.T) {
	e := DefaultExperiment("message_race", 4, 100)
	if err := e.Validate(); err != nil {
		t.Fatalf("default experiment invalid: %v", err)
	}
}

func TestValidateRejectsBadExperiments(t *testing.T) {
	cases := []Experiment{
		{Pattern: "nope", Procs: 4, Nodes: 1, Runs: 1},
		{Pattern: "message_race", Procs: 1, Nodes: 1, Runs: 1}, // below MinProcs
		{Pattern: "message_race", Procs: 4, Nodes: 1, Runs: 0}, // no runs
		{Pattern: "message_race", Procs: 4, Nodes: 9, Runs: 1}, // nodes > procs
		{Pattern: "message_race", Procs: 4, Nodes: 1, Runs: 1, NDPercent: 200},
		{Pattern: "message_race", Procs: 4, Nodes: 1, Runs: 1, Iterations: -1},
	}
	for i, e := range cases {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, e)
		}
	}
}

func TestExecuteProducesIndexedRuns(t *testing.T) {
	e := DefaultExperiment("amg2013", 6, 100)
	e.Runs = 8
	rs, err := e.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Traces) != 8 || len(rs.Graphs) != 8 || len(rs.Stats) != 8 {
		t.Fatalf("run set sizes %d/%d/%d", len(rs.Traces), len(rs.Graphs), len(rs.Stats))
	}
	for i, tr := range rs.Traces {
		if tr == nil || rs.Graphs[i] == nil || rs.Stats[i] == nil {
			t.Fatalf("run %d missing outputs", i)
		}
		if tr.Meta.Seed != e.BaseSeed+int64(i) {
			t.Errorf("run %d has seed %d", i, tr.Meta.Seed)
		}
		if tr.Meta.Pattern != "amg2013" {
			t.Errorf("run %d pattern %q", i, tr.Meta.Pattern)
		}
	}
}

func TestExecuteDeterministicAcrossCalls(t *testing.T) {
	// Concurrency must not leak into results: two Execute calls give
	// identical traces run-by-run.
	e := DefaultExperiment("unstructured_mesh", 8, 100)
	e.Runs = 6
	a, err := e.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Traces {
		if a.Traces[i].Hash() != b.Traces[i].Hash() {
			t.Fatalf("run %d differs across Execute calls", i)
		}
	}
}

func TestExecuteErrorsPropagate(t *testing.T) {
	e := DefaultExperiment("message_race", 4, 100)
	e.Runs = 3
	e.Replay = &sim.Schedule{PerRank: make([][]sim.MatchKey, 4)} // schedule too short → rank panic
	if _, err := e.Execute(); err == nil || !strings.Contains(err.Error(), "run") {
		t.Errorf("err = %v, want wrapped run error", err)
	}
}

func TestExecuteShortCircuitsOnFailure(t *testing.T) {
	// Every run of this experiment fails (the empty replay schedule
	// panics a rank immediately). The run pool must stop dispatching
	// once the first failure is recorded instead of burning through the
	// whole sample: with W workers, at most the in-flight runs plus a
	// small dispatch margin may start, never all of them. ExecuteContext
	// and embedded samples, archived or not, share the Sample.
	e := DefaultExperiment("message_race", 4, 100)
	e.Runs = 64
	e.Workers = 2
	e.Replay = &sim.Schedule{PerRank: make([][]sim.MatchKey, 4)}
	execs := map[string]func() error{
		"materializing": func() error { _, err := e.Execute(); return err },
		"embedded": func() error {
			_, err := executeEmbedded(context.Background(), e, nil, "")
			return err
		},
		"archived": func() error {
			_, err := executeEmbedded(context.Background(), e, nil, t.TempDir())
			return err
		},
	}
	for name, exec := range execs {
		var started atomic.Int64
		executeRunHook = func(int) { started.Add(1) }
		err := exec()
		executeRunHook = nil
		if err == nil {
			t.Fatalf("%s: failing sample returned nil error", name)
		}
		// Generous bound: workers + a couple of dispatches that may race
		// the cancellation. Without short-circuiting this is always 64.
		if n := started.Load(); n > 8 {
			t.Errorf("%s: %d of %d runs started after first failure (want early stop)", name, n, e.Runs)
		}
	}
}

// TestSampleRunsInAnyOrder drives a Sample the way a grid queue does:
// runs in an order of the caller's choosing, then Finish. The reduced
// runs must equal Execute's run set, and a sample whose every run
// completed is a result even if its context ends before Finish.
func TestSampleRunsInAnyOrder(t *testing.T) {
	e := DefaultExperiment("unstructured_mesh", 8, 100)
	e.Runs = 5
	want, err := e.Execute()
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.NewWL(2)
	ctx, cancel := context.WithCancel(context.Background())
	s, ers, err := e.StartEmbedded(ctx, k, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 0, 4, 2, 1} {
		s.Run(i)
	}
	cancel()
	if err := s.Finish(); err != nil {
		t.Fatalf("completed sample: Finish = %v", err)
	}
	for i := range want.Traces {
		if ers.OrderHashes[i] != want.Traces[i].OrderHash() || !reflect.DeepEqual(ers.Features[i], k.Features(want.Graphs[i])) {
			t.Errorf("run %d differs from Execute's", i)
		}
	}
}

func TestExecuteContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := DefaultExperiment("message_race", 4, 100)
	e.Runs = 8
	if _, err := e.ExecuteContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestExecuteWorkersCapRespected(t *testing.T) {
	// Workers = 1 must serialize runs and still produce the identical
	// indexed output (determinism is scheduling-independent).
	e := DefaultExperiment("unstructured_mesh", 8, 100)
	e.Runs = 4
	serial := e
	serial.Workers = 1
	a, err := e.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := serial.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Traces {
		if a.Traces[i].Hash() != b.Traces[i].Hash() {
			t.Fatalf("run %d differs between worker counts", i)
		}
	}
}

func TestDistancesAndSummary(t *testing.T) {
	e := DefaultExperiment("unstructured_mesh", 8, 100)
	e.Iterations = 2
	e.Runs = 6
	rs, err := e.Execute()
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.NewWL(2)
	d := rs.Distances(k)
	if len(d) != 15 { // C(6,2)
		t.Fatalf("len(distances) = %d", len(d))
	}
	s := rs.DistanceSummary(k)
	if s.N != 15 || s.Max <= 0 {
		t.Errorf("summary = %+v, want positive max at 100%% ND", s)
	}
	if rs.DistinctStructures() < 2 {
		t.Error("expected structural diversity at 100% ND")
	}
}

func TestZeroNDGivesZeroDistances(t *testing.T) {
	e := DefaultExperiment("unstructured_mesh", 8, 0)
	e.Runs = 5
	rs, err := e.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rs.Distances(kernel.NewWL(2)) {
		if d != 0 {
			t.Fatalf("0%% ND distance %v", d)
		}
	}
	if rs.DistinctStructures() != 1 {
		t.Errorf("DistinctStructures = %d, want 1", rs.DistinctStructures())
	}
}

// TestRunSetCacheShared pins the run set's embedding cache contract:
// one lazily-created cache instance is shared by every analysis entry
// point, so Distances embeds each run's graph once and DistanceSummary
// (and a repeated Distances) reuse those embeddings instead of
// recomputing them.
func TestRunSetCacheShared(t *testing.T) {
	e := DefaultExperiment("unstructured_mesh", 8, 100)
	e.Iterations = 2
	e.Runs = 5
	rs, err := e.Execute()
	if err != nil {
		t.Fatal(err)
	}
	c := rs.Cache()
	if c == nil || rs.Cache() != c {
		t.Fatal("Cache() is not a stable singleton")
	}
	k := kernel.NewWL(2)
	first := rs.Distances(k)
	if c.Len() != e.Runs || c.Misses() != uint64(e.Runs) {
		t.Fatalf("after Distances: len=%d misses=%d, want %d each", c.Len(), c.Misses(), e.Runs)
	}
	misses := c.Misses()
	second := rs.Distances(k)
	s := rs.DistanceSummary(k)
	if c.Misses() != misses {
		t.Fatalf("repeat analyses recomputed embeddings: misses %d -> %d", misses, c.Misses())
	}
	if c.Hits() == 0 {
		t.Fatal("repeat analyses recorded no cache hits")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached Distances diverge from first call")
	}
	if s.N != len(first) {
		t.Fatalf("summary over %d distances, want %d", s.N, len(first))
	}
}

func TestRootSourcesEndToEnd(t *testing.T) {
	e := DefaultExperiment("amg2013", 8, 100)
	e.Iterations = 3
	e.Runs = 5
	rs, err := e.Execute()
	if err != nil {
		t.Fatal(err)
	}
	profile, ranked, err := rs.RootSources(kernel.NewWL(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	if profile == nil || len(ranked) == 0 {
		t.Fatal("no root sources")
	}
	if !strings.Contains(ranked[0].Callstack, "gatherWork") {
		t.Errorf("top callstack %q", ranked[0].Callstack)
	}
}

func TestReplayThroughExperiment(t *testing.T) {
	// Record one run, then replay the whole sample: every run collapses
	// onto the recorded structure even at 100% ND.
	base := DefaultExperiment("message_race", 6, 100)
	base.Iterations = 2
	base.Runs = 1
	recorded, err := base.Execute()
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.RecordSchedule(recorded.Traces[0])

	replayed := base
	replayed.Runs = 5
	replayed.BaseSeed = 9000
	replayed.Replay = sched
	rs, err := replayed.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if rs.DistinctStructures() != 1 {
		t.Errorf("replayed sample has %d structures, want 1", rs.DistinctStructures())
	}
	for _, d := range rs.Distances(kernel.NewWL(2)) {
		if d != 0 {
			t.Fatalf("replayed distance %v, want 0", d)
		}
	}
}

func TestParseKernel(t *testing.T) {
	cases := map[string]string{
		"":       "wlst-h2d",
		"wl":     "wlst-h2d",
		"wl0":    "wlst-h0d",
		"wl3":    "wlst-h3d",
		"wlu2":   "wlst-h2u",
		"vertex": "vertex-hist",
		"edge":   "edge-hist",
		"sp":     "shortest-path",
	}
	for spec, want := range cases {
		k, err := ParseKernel(spec)
		if err != nil {
			t.Errorf("ParseKernel(%q): %v", spec, err)
			continue
		}
		if k.Name() != want {
			t.Errorf("ParseKernel(%q) = %s, want %s", spec, k.Name(), want)
		}
	}
	for _, bad := range []string{"x", "wl-1", "wl10", "wlu", "wlfoo"} {
		if _, err := ParseKernel(bad); err == nil {
			t.Errorf("ParseKernel(%q) accepted", bad)
		}
	}
	if KernelSpecs() == "" {
		t.Error("empty KernelSpecs")
	}
}

func BenchmarkExecute20Runs(b *testing.B) {
	e := DefaultExperiment("unstructured_mesh", 16, 100)
	e.Runs = 20
	e.CaptureStacks = false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}
