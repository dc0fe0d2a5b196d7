package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// TestExecuteStreamMatchesExecute pins the tentpole equivalence: the
// streaming pipeline (sim → v2 file → reader → streaming WL) produces
// exactly the embeddings, order hashes, and distances of the
// materializing pipeline (sim → *Trace → *Graph → WL), and each
// archived v2 file decodes to exactly the trace the materializing
// pipeline would have produced. (File bytes legitimately differ from a
// rank-major WriteBinaryV2 — the callstack dictionary numbers stacks
// in first-seen order, which follows the scheduler interleave when
// streaming — so equivalence is pinned on the decoded trace hash,
// and TestExecuteStreamDeterministicBytes pins the bytes themselves.)
func TestExecuteStreamMatchesExecute(t *testing.T) {
	for _, pat := range []string{"message_race", "amg2013"} {
		t.Run(pat, func(t *testing.T) {
			e := DefaultExperiment(pat, 6, 60)
			e.Runs = 5
			e.CaptureStacks = true
			rs, err := e.ExecuteContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			k := kernel.NewWL(2)
			dir := t.TempDir()
			srs, err := e.ExecuteStreamContext(context.Background(), k, dir)
			if err != nil {
				t.Fatal(err)
			}
			if srs.KernelName != k.Name() {
				t.Errorf("KernelName %q, want %q", srs.KernelName, k.Name())
			}
			for i := range rs.Traces {
				if want := k.Features(rs.Graphs[i]); !reflect.DeepEqual(srs.Features[i], want) {
					t.Errorf("run %d: streamed features differ from materialized", i)
				}
				if want := rs.Traces[i].OrderHash(); srs.OrderHashes[i] != want {
					t.Errorf("run %d: order hash %#x, want %#x", i, srs.OrderHashes[i], want)
				}
				if srs.Stats[i] == nil || srs.Stats[i].Events != rs.Stats[i].Events {
					t.Errorf("run %d: stats events differ", i)
				}

				// The archived file decodes to exactly the live trace.
				want := filepath.Join(dir, fmt.Sprintf("run-%d.anctr", i))
				if srs.TracePaths[i] != want {
					t.Fatalf("run %d archived at %q, want %q", i, srs.TracePaths[i], want)
				}
				decoded, err := trace.LoadBinaryFile(srs.TracePaths[i])
				if err != nil {
					t.Fatal(err)
				}
				if decoded.Hash() != rs.Traces[i].Hash() {
					t.Errorf("run %d: archived trace decodes to a different trace than the live run", i)
				}
			}
			if got, want := srs.Distances(), rs.Distances(k); !reflect.DeepEqual(got, want) {
				t.Errorf("distances differ: %v vs %v", got, want)
			}
			if got, want := srs.DistanceSummary(), rs.DistanceSummary(k); got != want {
				t.Errorf("summary %+v, want %+v", got, want)
			}
			if got, want := srs.DistinctStructures(), rs.DistinctStructures(); got != want {
				t.Errorf("distinct structures %d, want %d", got, want)
			}
		})
	}
}

// TestExecuteStreamScratchLeavesNothing checks the unarchived mode:
// results match the archived run, TracePaths stays nil, and the
// scratch directory is gone.
func TestExecuteStreamScratchLeavesNothing(t *testing.T) {
	e := DefaultExperiment("unstructured_mesh", 4, 100)
	e.Runs = 3
	scratch, err := e.ExecuteStreamContext(context.Background(), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if scratch.TracePaths != nil {
		t.Errorf("scratch run recorded trace paths %v", scratch.TracePaths)
	}
	if scratch.KernelName != kernel.NewWL(2).Name() {
		t.Errorf("nil kernel defaulted to %q", scratch.KernelName)
	}
	archived, err := e.ExecuteStreamContext(context.Background(), nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scratch.Features, archived.Features) {
		t.Error("scratch and archived runs disagree on features")
	}
	if !reflect.DeepEqual(scratch.OrderHashes, archived.OrderHashes) {
		t.Error("scratch and archived runs disagree on order hashes")
	}
}

// TestExecuteStreamDeterministicBytes pins that the streamed encoding
// itself is reproducible: two archived executions of the same
// experiment produce byte-identical trace files run-for-run — the
// property `anacin replay` and the archival store rely on.
func TestExecuteStreamDeterministicBytes(t *testing.T) {
	e := DefaultExperiment("message_race", 6, 60)
	e.Runs = 3
	e.CaptureStacks = true
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := e.ExecuteStreamContext(context.Background(), nil, dirA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ExecuteStreamContext(context.Background(), nil, dirB)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TracePaths {
		ab, err := os.ReadFile(a.TracePaths[i])
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(b.TracePaths[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("run %d: archived bytes differ across executions", i)
		}
	}
}

func TestExecuteStreamCancellation(t *testing.T) {
	e := DefaultExperiment("message_race", 8, 100)
	e.Runs = 50
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.ExecuteStreamContext(ctx, nil, "")
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled stream execution returned %v", err)
	}
}

func TestExecuteStreamRejectsBadConfig(t *testing.T) {
	e := DefaultExperiment("message_race", 4, 100)
	e.Runs = 0
	if _, err := e.ExecuteStreamContext(context.Background(), nil, ""); err == nil {
		t.Error("Runs=0 accepted")
	}
	e = DefaultExperiment("nope", 4, 100)
	e.Runs = 1
	if _, err := e.ExecuteStreamContext(context.Background(), nil, ""); err == nil {
		t.Error("unknown pattern accepted")
	}
}

// TestExecuteStreamFailedEncodeLeavesNoFile pins that a run whose
// encode fails leaves no partial trace in the archive: the directory
// is content-addressed, so a truncated run-<i>.anctr there would pass
// for a finished one.
func TestExecuteStreamFailedEncodeLeavesNoFile(t *testing.T) {
	e := DefaultExperiment("message_race", 4, 50)
	e.Runs = 2
	e.Codec = trace.CodecOptions{Level: 42}
	dir := t.TempDir()
	if _, err := e.ExecuteStreamContext(context.Background(), nil, dir); err == nil {
		t.Fatal("out-of-range codec level accepted")
	}
	left, err := filepath.Glob(filepath.Join(dir, "run-*.anctr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("failed encode left %v in the archive", left)
	}
}

// TestExecuteStreamFailedRunLeavesNoGoroutines pins that a streamed run
// that fails mid-simulation leaves no goroutine behind: runs compress
// inline, so a failed run (which never closes its writer) leaves
// nothing parked holding the writer's buffers. The run fails
// deterministically — a replay schedule cut short panics the rank that
// asks for the missing match — after the rank has flushed a full
// segment, so the writer has compressed and written a block when the
// run fails.
func TestExecuteStreamFailedRunLeavesNoGoroutines(t *testing.T) {
	const segmentEvents = 1024 // the v2 writer's per-rank flush threshold
	e := DefaultExperiment("message_race", 8, 100)
	e.Runs = 1
	e.Iterations = 200
	rs, err := e.ExecuteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.RecordSchedule(rs.Traces[0])
	cut := -1
	for rank, evs := range rs.Traces[0].Events {
		recvs := 0
		for i := range evs {
			if evs[i].Kind.IsReceive() && evs[i].MsgID != trace.NoMsg {
				if i >= segmentEvents {
					sched.PerRank[rank] = sched.PerRank[rank][:recvs]
					cut = rank
					break
				}
				recvs++
			}
		}
		if cut >= 0 {
			break
		}
	}
	if cut < 0 {
		t.Fatalf("no rank receives after its first %d events; enlarge the run", segmentEvents)
	}
	e.Replay = sched
	// Every run replays the same cut schedule, so every run fails; with
	// more runs than one, the run pool's size decides how many fail at
	// once, and none of them may leave a goroutine behind.
	e.Runs = 4

	for _, workers := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := e
			e.Workers = workers
			dir := t.TempDir()
			base := runtime.NumGoroutine()
			_, err := e.ExecuteStreamContext(context.Background(), nil, dir)
			var pe *sim.PanicError
			if !errors.As(err, &pe) || pe.Rank != cut {
				t.Fatalf("err = %v, want rank %d's replay panic", err, cut)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the failed run, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "run-*.anctr")); len(left) > 0 {
				t.Errorf("failed run left %v in the archive", left)
			}
		})
	}
}
