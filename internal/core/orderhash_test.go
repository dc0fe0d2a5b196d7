package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/trace"
)

// raceLongRankIterations makes rank 0 of an 8-rank message_race run,
// which receives every racing message, pass one v2 segment: 2 + 7·160
// events against 1,024.
const raceLongRankIterations = 160

// heldHashRun streams run 0 of e through streamRun, teed into an
// in-memory trace, and returns the writer's hash, whether it was held,
// and both oracles: Reader.OrderHash of the file and Trace.OrderHash of
// the teed trace.
func heldHashRun(t *testing.T, e Experiment) (oh uint64, held bool, fromFile, fromTrace uint64) {
	t.Helper()
	pat, program, err := e.program()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewWithCapacity(e.meta(0), e.config(0, pat).EventsPerRankHint)
	path := filepath.Join(t.TempDir(), "run.anctr")
	_, oh, held, err = e.streamRun(context.Background(), 0, pat, program, path, tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if fromFile, err = r.OrderHash(); err != nil {
		t.Fatal(err)
	}
	return oh, held, fromFile, tr.OrderHash()
}

// TestHeldOrderHashMatchesOracles runs every registered pattern, with
// stacks on and off, through the archiving writer: its held-column
// order hash must equal the hash read back from the file and the hash
// of the same run materialized. A run with a rank past one segment
// must report no held hash, and its oracles must still agree.
func TestHeldOrderHashMatchesOracles(t *testing.T) {
	for _, pat := range patterns.All() {
		for _, stacks := range []bool{true, false} {
			name := fmt.Sprintf("%s stacks=%v", pat.Name(), stacks)
			e := DefaultExperiment(pat.Name(), max(8, pat.MinProcs()), 50)
			e.Iterations = 3
			e.Nodes = 2
			e.CaptureStacks = stacks
			oh, held, fromFile, fromTrace := heldHashRun(t, e)
			if fromFile != fromTrace {
				t.Fatalf("%s: Reader.OrderHash %#x, Trace.OrderHash %#x", name, fromFile, fromTrace)
			}
			if !held {
				t.Fatalf("%s: no held order hash, though every rank fits in one segment", name)
			}
			if oh != fromFile {
				t.Errorf("%s: held order hash %#x, file and trace %#x", name, oh, fromFile)
			}
		}
	}

	e := DefaultExperiment("message_race", 8, 50)
	e.Iterations = raceLongRankIterations
	_, held, fromFile, fromTrace := heldHashRun(t, e)
	if held {
		t.Error("a run whose rank 0 flushed a segment reported a held order hash")
	}
	if fromFile != fromTrace {
		t.Errorf("flushed run: Reader.OrderHash %#x, Trace.OrderHash %#x", fromFile, fromTrace)
	}
}

// TestArchivedRunReadsBackOnlyFlushedRanks pins when an archived run
// reopens its file for the order hash: never when its ranks all fit in
// one segment, once per run when a rank flushed one. The order hashes
// equal the in-memory pipeline's either way.
func TestArchivedRunReadsBackOnlyFlushedRanks(t *testing.T) {
	for _, tc := range []struct {
		iterations int
		reads      int64
	}{
		{3, 0},
		{raceLongRankIterations, 1},
	} {
		e := DefaultExperiment("message_race", 8, 50)
		e.Iterations = tc.iterations
		e.Runs = 3
		mem, err := executeEmbedded(context.Background(), e, kernel.NewWL(2), "")
		if err != nil {
			t.Fatal(err)
		}
		before := orderHashFileReads.Load()
		archived, err := executeEmbedded(context.Background(), e, kernel.NewWL(2), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := orderHashFileReads.Load()-before, tc.reads*int64(e.Runs); got != want {
			t.Errorf("%d iterations: %d archived runs read their file back %d times, want %d",
				tc.iterations, e.Runs, got, want)
		}
		for i, oh := range archived.OrderHashes {
			if oh != mem.OrderHashes[i] {
				t.Errorf("%d iterations, run %d: archived order hash %#x, in memory %#x", tc.iterations, i, oh, mem.OrderHashes[i])
			}
		}
	}
}
