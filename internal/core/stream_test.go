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
	"github.com/anacin-go/anacinx/internal/par"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// executeEmbedded drives StartEmbedded's sample on e.Workers
// goroutines, the way RunCell drives a cell.
func executeEmbedded(ctx context.Context, e Experiment, k kernel.Kernel, archiveDir string) (*EmbeddedRunSet, error) {
	s, ers, err := e.StartEmbedded(ctx, k, archiveDir)
	if err != nil {
		return nil, err
	}
	par.ForEach(e.Workers, e.Runs, s.Run)
	if err := s.Finish(); err != nil {
		return nil, err
	}
	return ers, nil
}

// TestExecuteStreamMatchesExecute pins the tentpole equivalence: runs
// reduced to embeddings, in memory (sim → *Trace → *Graph → kernel) or
// archived (sim → v2 file, teed into the WL push stream, or into an
// in-memory *Trace under a kernel that cannot stream), produce exactly
// the embeddings, order hashes, and distances of the RunSet that
// ExecuteContext keeps, at every worker count; and each archived
// v2 file decodes to exactly the trace ExecuteContext materialized.
// (File bytes legitimately differ from a rank-major WriteBinaryV2 —
// the callstack dictionary numbers stacks in first-seen order, which
// follows the scheduler interleave when streaming — so equivalence is
// pinned on the decoded trace hash, and
// TestExecuteStreamDeterministicBytes pins the bytes themselves.)
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
			for _, k := range []kernel.Kernel{kernel.NewWL(2), kernel.VertexHistogram{}} {
				for _, workers := range []int{1, 2, 4} {
					for _, archived := range []bool{false, true} {
						e := e
						e.Workers = workers
						dir := ""
						if archived {
							dir = t.TempDir()
						}
						at := fmt.Sprintf("%s workers=%d archived=%v", k.Name(), workers, archived)
						ers, err := executeEmbedded(context.Background(), e, k, dir)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						if ers.KernelName != k.Name() {
							t.Errorf("%s: KernelName %q, want %q", at, ers.KernelName, k.Name())
						}
						for i := range rs.Traces {
							if want := k.Features(rs.Graphs[i]); !reflect.DeepEqual(ers.Features[i], want) {
								t.Errorf("%s: run %d: features differ from the RunSet's", at, i)
							}
							if want := rs.Traces[i].OrderHash(); ers.OrderHashes[i] != want {
								t.Errorf("%s: run %d: order hash %#x, want %#x", at, i, ers.OrderHashes[i], want)
							}
							if ers.Stats[i] == nil || ers.Stats[i].Events != rs.Stats[i].Events {
								t.Errorf("%s: run %d: stats events differ", at, i)
							}
						}
						if got, want := ers.Distances(), rs.Distances(k); !reflect.DeepEqual(got, want) {
							t.Errorf("%s: distances differ: %v vs %v", at, got, want)
						}
						if got, want := ers.DistanceSummary(), rs.DistanceSummary(k); got != want {
							t.Errorf("%s: summary %+v, want %+v", at, got, want)
						}
						if got, want := ers.DistinctStructures(), rs.DistinctStructures(); got != want {
							t.Errorf("%s: distinct structures %d, want %d", at, got, want)
						}
						if !archived {
							if ers.TracePaths != nil {
								t.Errorf("%s: unarchived runs recorded trace paths %v", at, ers.TracePaths)
							}
							continue
						}
						// The archived file decodes to exactly the live trace.
						for i := range rs.Traces {
							want := filepath.Join(dir, fmt.Sprintf("run-%d.anctr", i))
							if ers.TracePaths[i] != want {
								t.Fatalf("%s: run %d archived at %q, want %q", at, i, ers.TracePaths[i], want)
							}
							decoded, err := trace.LoadBinaryFile(ers.TracePaths[i])
							if err != nil {
								t.Fatal(err)
							}
							if decoded.Hash() != rs.Traces[i].Hash() {
								t.Errorf("%s: run %d: archived trace decodes to a different trace than the live run", at, i)
							}
						}
					}
				}
			}
		})
	}
}

// TestExecuteStreamScratchLeavesNothing checks the unarchived mode:
// its runs reduce in memory and create nothing, not even in the
// temporary directory, which here does not exist (so a run that
// needed scratch space would fail); TracePaths stays nil, a nil kernel
// defaults to WL depth 2, and the results match the archived runs.
func TestExecuteStreamScratchLeavesNothing(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", filepath.Join(tmp, "missing"))
	e := DefaultExperiment("unstructured_mesh", 4, 100)
	e.Runs = 3
	unarchived, err := executeEmbedded(context.Background(), e, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
		t.Errorf("unarchived runs left %d entries in TMPDIR (err %v)", len(left), err)
	}
	if unarchived.TracePaths != nil {
		t.Errorf("unarchived runs recorded trace paths %v", unarchived.TracePaths)
	}
	if unarchived.KernelName != kernel.NewWL(2).Name() {
		t.Errorf("nil kernel defaulted to %q", unarchived.KernelName)
	}
	archived, err := executeEmbedded(context.Background(), e, nil, filepath.Join(t.TempDir(), "archive"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unarchived.Features, archived.Features) {
		t.Error("unarchived and archived runs disagree on features")
	}
	if !reflect.DeepEqual(unarchived.OrderHashes, archived.OrderHashes) {
		t.Error("unarchived and archived runs disagree on order hashes")
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
	a, err := executeEmbedded(context.Background(), e, nil, dirA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := executeEmbedded(context.Background(), e, nil, dirB)
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
	for _, dir := range []string{"", t.TempDir()} {
		_, err := executeEmbedded(ctx, e, nil, dir)
		if err == nil || !strings.Contains(err.Error(), "cancelled") || !errors.Is(err, context.Canceled) {
			t.Fatalf("archive %q: cancelled execution returned %v", dir, err)
		}
	}
}

func TestExecuteStreamRejectsBadConfig(t *testing.T) {
	e := DefaultExperiment("message_race", 4, 100)
	e.Runs = 0
	if _, _, err := e.StartEmbedded(context.Background(), nil, ""); err == nil {
		t.Error("Runs=0 accepted")
	}
	e = DefaultExperiment("nope", 4, 100)
	e.Runs = 1
	if _, _, err := e.StartEmbedded(context.Background(), nil, ""); err == nil {
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
	if _, err := executeEmbedded(context.Background(), e, nil, dir); err == nil {
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

// TestExecuteStreamFailedRunLeavesNoGoroutines pins that a run that
// fails mid-simulation leaves no goroutine behind, archived or not:
// archived runs compress inline, so a failed run (which never closes
// its writer) leaves nothing parked holding the writer's buffers. The
// run fails
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
			for _, dir := range []string{"", t.TempDir()} {
				base := runtime.NumGoroutine()
				_, err := executeEmbedded(context.Background(), e, nil, dir)
				var pe *sim.PanicError
				if !errors.As(err, &pe) || pe.Rank != cut {
					t.Fatalf("archive %q: err = %v, want rank %d's replay panic", dir, err, cut)
				}
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						t.Fatalf("archive %q: %d goroutines after the failed run, %d before", dir, runtime.NumGoroutine(), base)
					}
					time.Sleep(time.Millisecond)
				}
				if dir == "" {
					continue
				}
				if left, _ := filepath.Glob(filepath.Join(dir, "run-*.anctr")); len(left) > 0 {
					t.Errorf("failed run left %v in the archive", left)
				}
			}
		})
	}
}
