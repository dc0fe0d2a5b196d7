package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestRunnerReleasesCellsInCellMajorOrder pins the queue's dispatch
// order and its release point. Cells start in cell-major order and
// each is released (embeddings, order hashes and stats) by the run
// that completes its countdown, so at most Workers+1 cells ever hold
// run state: Workers cells with a run in flight, plus the next cell
// whose first runs were just claimed. A run-major queue, or a release
// deferred to the end of the grid, holds every cell at once. Archived
// or not, no cell creates anything in the temporary directory.
func TestRunnerReleasesCellsInCellMajorOrder(t *testing.T) {
	g := smallGrid()
	g.NDPercents = []float64{0, 50, 100}
	cells := g.Cells()
	scratch := t.TempDir()
	t.Setenv("TMPDIR", scratch)
	for _, workers := range []int{1, 2, 4} {
		for _, archived := range []bool{false, true} {
			r := &Runner{Workers: workers}
			if archived {
				r.ArchiveDir = t.TempDir()
			}
			var (
				mu                 sync.Mutex
				open, peak, starts int
				peakDirs           int
			)
			runStateHook = func(delta int) {
				mu.Lock()
				defer mu.Unlock()
				open += delta
				if delta > 0 {
					starts++
				}
				peak = max(peak, open)
				if dirs, err := os.ReadDir(scratch); err == nil {
					peakDirs = max(peakDirs, len(dirs))
				}
			}
			_, err := r.Run(context.Background(), g)
			runStateHook = nil
			if err != nil {
				t.Fatalf("workers=%d archived=%v: %v", workers, archived, err)
			}
			if starts != cells || open != 0 {
				t.Errorf("workers=%d archived=%v: %d cells started, %d still hold run state; want %d and 0",
					workers, archived, starts, open, cells)
			}
			if peak > workers+1 {
				t.Errorf("workers=%d archived=%v: %d cells held run state at once, want <= %d",
					workers, archived, peak, workers+1)
			}
			if peakDirs > 0 {
				t.Errorf("workers=%d archived=%v: %d entries in TMPDIR while cells ran, want none",
					workers, archived, peakDirs)
			}
			if left, _ := os.ReadDir(scratch); len(left) > 0 {
				t.Errorf("workers=%d archived=%v: %d entries left in TMPDIR", workers, archived, len(left))
			}
		}
	}
}

// TestRunnerFailedRunFailsOnlyItsCell injects a failure into one run
// of one cell: a directory squats on the archive path of run 2, so
// that run cannot create its trace file. That cell must fail with run
// 2's error, and every other cell must come out byte-identical to a
// clean grid, at every worker count.
func TestRunnerFailedRunFailsOnlyItsCell(t *testing.T) {
	g, err := smallGrid().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := (&Runner{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	bad := g.CellSpecs()[1]
	badKey := (&Cell{Pattern: bad.Pattern, Procs: bad.Procs, Iterations: bad.Iterations,
		Nodes: bad.Nodes, NDPercent: bad.NDPercent}).key()
	for _, workers := range []int{1, 2, 4} {
		dir := t.TempDir()
		squat := filepath.Join(dir, g.CellFingerprint(bad).String(), "run-2.anctr")
		if err := os.MkdirAll(squat, 0o755); err != nil {
			t.Fatal(err)
		}
		got, err := (&Runner{Workers: workers, ArchiveDir: dir}).Run(context.Background(), g)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Cells) != len(clean.Cells) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(got.Cells), len(clean.Cells))
		}
		failed := got.Failed()
		if len(failed) != 1 || failed[0].key() != badKey || !strings.Contains(failed[0].Err.Error(), "core: run 2:") {
			t.Fatalf("workers=%d: failed cells %+v, want only %s failing in run 2", workers, failed, badKey)
		}
		if want, have := csvWithout(t, clean, badKey), csvWithout(t, got, badKey); !bytes.Equal(have, want) {
			t.Errorf("workers=%d: healthy cells differ from a clean grid:\n%s\nvs\n%s", workers, have, want)
		}
	}
}

// csvWithout renders r's CSV without the cell whose key is skip.
func csvWithout(t *testing.T, r *Result, skip string) []byte {
	t.Helper()
	out := &Result{KernelName: r.KernelName}
	for _, c := range r.Cells {
		if c.key() != skip {
			out.Cells = append(out.Cells, c)
		}
	}
	var b bytes.Buffer
	if err := out.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRunnerCancelledKeepsOnlyCompleteCells cancels the grid from its
// first progress report, while other cells still have runs in flight.
// The partial result must hold exactly the reported cells, each
// identical to a clean grid's: a cell cut short by the cancellation is
// dropped, never rendered with a "cancelled" error.
func TestRunnerCancelledKeepsOnlyCompleteCells(t *testing.T) {
	g := smallGrid()
	clean, err := (&Runner{}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]Cell, len(clean.Cells))
	for _, c := range clean.Cells {
		want[c.key()] = c
	}
	for _, workers := range []int{1, 2, 4} {
		for _, archived := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			reported := 0
			r := &Runner{Workers: workers, Progress: func(Progress) {
				reported++
				cancel()
			}}
			if archived {
				r.ArchiveDir = t.TempDir()
			}
			res, err := r.Run(ctx, g)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d archived=%v: err = %v, want context.Canceled", workers, archived, err)
			}
			if len(res.Cells) != reported || reported == 0 || reported >= g.Cells() {
				t.Errorf("workers=%d archived=%v: %d cells kept, %d reported, grid of %d",
					workers, archived, len(res.Cells), reported, g.Cells())
			}
			for _, c := range res.Cells {
				if !reflect.DeepEqual(c, want[c.key()]) {
					t.Errorf("workers=%d archived=%v: kept cell %s = %+v, want %+v",
						workers, archived, c.key(), c, want[c.key()])
				}
			}
		}
	}
}
