package core

import (
	"context"
	"path/filepath"
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
	if _, err := e.streamRun(context.Background(), 0, pat, sim.Adapt(program), path, ws); err != nil {
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
