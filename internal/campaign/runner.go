package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/anacin-go/anacinx/internal/par"
	"github.com/anacin-go/anacinx/internal/trace"
)

// Progress is one observation of a running campaign, delivered to
// Runner.Progress after each cell completes. Callbacks are serialized
// (never concurrent), so the handler may write to a terminal or mutate
// its own state without locking.
type Progress struct {
	// TotalCells and DoneCells count grid cells; DoneCells includes the
	// cell reported by this observation.
	TotalCells, DoneCells int
	// TotalRuns and DoneRuns count individual simulated executions
	// (cells × runs-per-cell).
	TotalRuns, DoneRuns int
	// Cell is the just-completed cell, including its summary (or error).
	Cell Cell
	// CellWall is the wall-clock time from the dispatch of the cell's
	// first run to the end of its kernel-distance reduction.
	CellWall time.Duration
	// Elapsed is the wall-clock time since the campaign started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the mean
	// completed-cell rate. It is 0 once the campaign is done.
	ETA time.Duration
}

// Runner executes campaign grids. The zero value is ready to use.
//
// Every (cell, run) pair of the grid is one item of a single queue,
// dispatched in cell-major order (all runs of cell 0, then cell 1, …)
// to Workers goroutines. A cell starts when its first run is
// dispatched. Each run reduces to its embedding and order hash inside
// the run, keeping neither trace nor graph; the run that completes a
// cell's countdown reduces the cell's embeddings to its summary,
// releases its run state and reports it to Progress. So no core idles
// while the grid's last cell runs, and only about Workers cells hold
// run state (one embedding per run) at a time. Each cell's runs share a context of their
// own: a failed run cancels its cell's remaining runs, never another
// cell's.
//
// Cell results depend only on the cell's configuration (the simulator
// is deterministic in its seed), each run writes its own slot, and the
// result slice is sorted, so a Runner produces byte-identical CSV and
// markdown output for every worker count — including Workers = 1, the
// sequential path.
type Runner struct {
	// Workers is the number of runs in flight at once
	// (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, observes every completed cell.
	Progress func(Progress)
	// ArchiveDir, when non-empty, archives every run's v2 trace under
	// <ArchiveDir>/<cell-fingerprint>/run-<i>.anctr (as RunCellArchive).
	// Without it, each run reduces to its embedding in memory and
	// writes no file. Cell results are byte-identical either way.
	ArchiveDir string
	// Codec tunes archived-trace compression: its one option is the
	// DEFLATE level (zero is the v2 format default). Each run compresses
	// inline on the goroutine that simulates it.
	Codec trace.CodecOptions
}

// runStateHook, when non-nil, observes every change in the number of
// cells that hold run state: +1 when a cell's first run starts it, -1
// when its last run releases it. Tests use it to pin cell-major
// dispatch and the release.
var runStateHook func(delta int)

// gridCell is one cell's slot in the Runner's queue.
type gridCell struct {
	once  sync.Once    // starts the cell at its first dispatched run
	left  atomic.Int64 // runs not yet returned
	start time.Time
	run   *cellRun // nil when the grid was cancelled before the cell started
}

// Run executes every cell of the grid and returns the cells sorted by
// (pattern, procs, iterations, nodes, nd). Per-cell failures are
// recorded in Cell.Err and do not stop the campaign; cancelling ctx
// does, aborting in-flight runs and returning an error satisfying
// errors.Is(err, ctx.Err()) — together with a partial Result holding
// the cells that completed before cancellation (every run finished, or
// the cell failed on its own), so callers can report how far a
// truncated campaign got instead of discarding it.
func (r *Runner) Run(ctx context.Context, g Grid) (*Result, error) {
	q := g.withDefaults()
	if err := q.validate(); err != nil {
		return nil, err
	}
	specs := q.CellSpecs()
	runs := q.Runs
	cells := make([]gridCell, len(specs))
	for c := range cells {
		cells[c].left.Store(int64(runs))
	}

	res := &Result{KernelName: q.Kernel.Name(), Cells: make([]Cell, 0, len(specs))}
	start := time.Now()
	var mu sync.Mutex // guards res.Cells and the progress callback
	par.ForEach(r.Workers, len(specs)*runs, func(item int) {
		gc := &cells[item/runs]
		gc.once.Do(func() {
			if ctx.Err() != nil {
				return // a cancelled grid starts no more cells
			}
			gc.start = time.Now()
			gc.run = startCell(ctx, &q, specs[item/runs], r.ArchiveDir, r.Codec)
			if runStateHook != nil {
				runStateHook(1)
			}
		})
		if gc.run != nil {
			gc.run.run(item % runs)
		}
		if gc.left.Add(-1) > 0 || gc.run == nil {
			return
		}
		// This run completed the cell's countdown: reduce the cell and
		// drop its run state before reporting it.
		cell := gc.run.finish()
		gc.run = nil
		if runStateHook != nil {
			runStateHook(-1)
		}
		if err := ctx.Err(); err != nil && errors.Is(cell.Err, err) {
			return // cut short by the grid's cancellation: not a result
		}
		mu.Lock()
		defer mu.Unlock()
		res.Cells = append(res.Cells, cell)
		r.report(cell, time.Since(gc.start), start, len(specs), runs, len(res.Cells))
	})
	SortCells(res.Cells)
	if err := ctx.Err(); err != nil {
		// The partial grid is sorted like a complete result, so it is
		// directly renderable.
		return res, fmt.Errorf("campaign: cancelled after %d/%d cells: %w", len(res.Cells), len(specs), err)
	}
	return res, nil
}

// report invokes the progress callback for the done-th completed cell.
// The caller holds the Runner's mutex, which serializes observations.
func (r *Runner) report(cell Cell, cellWall time.Duration, start time.Time, totalCells, runsPerCell, done int) {
	if r.Progress == nil {
		return
	}
	elapsed := time.Since(start)
	r.Progress(Progress{
		TotalCells: totalCells,
		DoneCells:  done,
		TotalRuns:  totalCells * runsPerCell,
		DoneRuns:   done * runsPerCell,
		Cell:       cell,
		CellWall:   cellWall,
		Elapsed:    elapsed,
		ETA:        etaFrom(elapsed, done, totalCells-done),
	})
}

// etaFrom extrapolates remaining wall-clock time from the mean pace of
// the completed cells. The multiply happens before the divide: the old
// elapsed/done*remaining form truncated the per-cell pace to whole
// nanoseconds first, which collapsed the estimate toward zero whenever
// many fast cells had completed (elapsed/done rounds down, and the
// error is multiplied by remaining).
func etaFrom(elapsed time.Duration, done, remaining int) time.Duration {
	if done <= 0 || remaining <= 0 {
		return 0
	}
	return time.Duration(int64(elapsed) * int64(remaining) / int64(done))
}
