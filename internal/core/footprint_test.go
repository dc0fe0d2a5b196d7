package core

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// streamFootprint runs one ring_halo experiment through the real
// one-pass pipeline — simulate, teeing every event into a v2 file and
// into the WL push stream — and returns the two working-set measures
// alongside the event count: the kernel's peak refinement window (from
// the push stream's own stats) and the file's largest segment (a
// cursor decodes one segment of columns at a time).
func streamFootprint(t *testing.T, iterations int) (events, maxWindow, maxSegment int) {
	t.Helper()
	e := DefaultExperiment("ring_halo", 8, 50)
	e.Iterations = iterations
	e.Runs = 1
	pat, err := patterns.ByName(e.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	program, err := pat.Program(e.params())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.anctr")
	ws := kernel.NewWL(2).NewStream(e.Procs)
	if _, _, _, err := e.streamRun(context.Background(), 0, pat, sim.Adapt(program), path, ws); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Finish(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if ws.Stats().Events != r.NumEvents() {
		t.Fatalf("push stream saw %d events, archive holds %d", ws.Stats().Events, r.NumEvents())
	}
	return r.NumEvents(), ws.Stats().MaxWindow, r.Stats().MaxSegmentEvents
}

// TestStreamPipelineFootprintFlat pins the streaming pipeline's memory
// contract end to end: growing a balanced run 10x in iterations must
// not grow the pipeline's working set. The simulator never materializes
// a trace (events stream into the v2 encoder, whose rank buffers flush
// every segment, and into the WL push stream, whose refinement window
// retires nodes as receives match), and a reader cursor holds one
// decoded segment — so every stage is bounded by structure, not run
// length.
func TestStreamPipelineFootprintFlat(t *testing.T) {
	smallEvents, smallWindow, smallSeg := streamFootprint(t, 4)
	bigEvents, bigWindow, bigSeg := streamFootprint(t, 40)
	t.Logf("iters=4:  events=%d window=%d seg=%d", smallEvents, smallWindow, smallSeg)
	t.Logf("iters=40: events=%d window=%d seg=%d", bigEvents, bigWindow, bigSeg)

	if bigEvents < 8*smallEvents {
		t.Fatalf("10x iterations grew events only %dx (%d -> %d); workload not scaling",
			bigEvents/max(smallEvents, 1), smallEvents, bigEvents)
	}
	// The kernel window tracks in-flight structure, not history; allow a
	// little slack for boundary effects but nothing close to the 10x
	// event growth.
	if bigWindow > 2*smallWindow {
		t.Errorf("kernel window grew %d -> %d under 10x iterations; streaming footprint not flat",
			smallWindow, bigWindow)
	}
	// A cursor's decode buffer is one segment of columns, capped by the
	// writer's flush threshold regardless of run length.
	if bigSeg > 1024 {
		t.Errorf("largest segment %d events exceeds the 1024-event flush threshold", bigSeg)
	}
}

// windowStats runs pattern at 32 ranks, 2 nodes, ND 0 and the given
// iterations through streamRun with a WL push stream teed beside the
// archive writer, and returns the stream's embedding and stats.
func windowStats(t *testing.T, pattern string, iterations int) (kernel.FeatureVector, kernel.StreamStats) {
	t.Helper()
	e := DefaultExperiment(pattern, 32, 0)
	e.Nodes = 2
	e.Iterations = iterations
	e.Runs = 1
	e.CaptureStacks = false
	pat, program, err := e.program()
	if err != nil {
		t.Fatal(err)
	}
	ws := kernel.NewWL(2).NewStream(e.Procs)
	path := filepath.Join(t.TempDir(), "run.anctr")
	if _, _, _, err := e.streamRun(context.Background(), 0, pat, program, path, ws); err != nil {
		t.Fatal(err)
	}
	fv, err := ws.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return fv, ws.Stats()
}

// windowGrowth classes every registered pattern's streaming window
// from 8 to 32 iterations (32 ranks, 2 nodes, ND 0). "flat" means the
// peak window at 32 iterations is at most twice the one at 8; a
// pattern that "grows" carries the measured reason. In every growing
// pattern the ranks drift apart: at the window's peak the fastest rank
// is iterations ahead of the slowest, a node cannot be released until
// its message partner on a lagging rank is refined, and the spread
// widens with the run (unstructured_mesh 4.3, 10.4 and 35.7 iterations
// at 8, 32 and 128; mcb 3.3, 12.0 and 46.4).
var windowGrowth = map[string]string{
	"amg2013":         "flat",
	"collective_tree": "flat",
	"master_worker":   "flat",
	"miniamr":         "flat",
	"reduce_pipeline": "flat",
	"ring_halo":       "flat",
	"stencil2d":       "flat",
	"sweep3d":         "flat",
	// Eager fan-in: the senders run ahead of rank 0, whose wildcard
	// receives drain them one at a time, and every unmatched send is
	// held (MaxInFlight 214 -> 834).
	"message_race": "grows: fan-in to rank 0",
	// Eager sends to random out-neighbours, drained by wildcard
	// receives, let ranks drift apart without bound.
	"unstructured_mesh": "grows: rank drift",
	// Under 2x at 32 iterations (346 -> 600) but driven by the same
	// drift as the mesh: 3057 nodes at 128.
	"mcb": "grows: rank drift",
}

// TestStreamWindowByPattern runs every registered pattern through the
// tee path (streamRun) at 8 and 32 iterations and checks its window
// against its growth class. Each run is embedded twice, first on fresh
// stream scratch (the pool is emptied by two collections) and then on
// the scratch the first stream handed back: the embedding and every
// StreamStats figure must not depend on which.
func TestStreamWindowByPattern(t *testing.T) {
	for _, pat := range patterns.All() {
		class, ok := windowGrowth[pat.Name()]
		if !ok {
			t.Errorf("%s: no window growth class", pat.Name())
			continue
		}
		var window [2]int
		for j, iters := range []int{8, 32} {
			runtime.GC()
			runtime.GC()
			freshFV, fresh := windowStats(t, pat.Name(), iters)
			recycledFV, recycled := windowStats(t, pat.Name(), iters)
			if fresh != recycled || !reflect.DeepEqual(freshFV, recycledFV) {
				t.Errorf("%s at %d iterations: recycled scratch gave %+v, fresh %+v", pat.Name(), iters, recycled, fresh)
			}
			window[j] = fresh.MaxWindow
		}
		t.Logf("%-18s window %5d -> %5d (%s)", pat.Name(), window[0], window[1], class)
		if class == "flat" {
			if window[1] > 2*window[0] {
				t.Errorf("%s: window %d -> %d from 8 to 32 iterations, more than 2x for a flat pattern", pat.Name(), window[0], window[1])
			}
		} else if window[1] <= window[0] {
			t.Errorf("%s: window %d -> %d no longer grows; reclassify it as flat", pat.Name(), window[0], window[1])
		}
	}
}
