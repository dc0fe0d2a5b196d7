package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
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
	// CellWall is the wall-clock time the cell took, including its
	// kernel-distance reduction.
	CellWall time.Duration
	// Elapsed is the wall-clock time since the campaign started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the mean
	// completed-cell rate. It is 0 once the campaign is done.
	ETA time.Duration
}

// Runner executes campaign grids on a worker pool. The zero value is
// ready to use: cells run on up to GOMAXPROCS workers and each cell's
// runs get the remaining share of the machine, so the two levels of
// parallelism multiply out to roughly GOMAXPROCS goroutines instead of
// cells × runs.
//
// Cell results depend only on the cell's configuration (the simulator
// is deterministic in its seed), and the result slice is keyed and
// sorted, so a Runner produces byte-identical CSV and markdown output
// for every worker count — including Workers = 1, the sequential path.
type Runner struct {
	// Workers is the number of cells in flight at once.
	// 0 = min(GOMAXPROCS, number of cells).
	Workers int
	// RunWorkers caps the per-cell run concurrency. 0 budgets the
	// machine across cell workers (CoreBudget).
	RunWorkers int
	// Progress, when non-nil, observes every completed cell.
	Progress func(Progress)
	// Stream routes cells through the streaming pipeline (RunCellStream):
	// runs simulate straight into v2 trace files and are embedded by
	// streaming them back, holding per-cell memory flat in run length.
	// Cell results are byte-identical to the materializing path.
	Stream bool
	// ArchiveDir, when non-empty, archives every run's v2 trace under
	// <ArchiveDir>/<cell-fingerprint>/run-<i>.anctr and implies Stream.
	ArchiveDir string
	// Codec tunes archived-trace compression on the streaming path.
	// Only Level applies (zero is the v2 format default); each run
	// compresses inline on the goroutine that simulates it.
	Codec trace.CodecOptions
}

// CoreBudget splits the machine between the two levels of a grid run:
// at most cellWorkers cells in flight (<= 0 means GOMAXPROCS), capped
// at the cell count, and max(1, GOMAXPROCS / cells in flight) runs per
// cell, so the levels multiply out to roughly GOMAXPROCS goroutines
// instead of cells × runs. The Runner and anacind's jobs both use it.
func CoreBudget(cellWorkers, cells int) (cellsInFlight, runWorkers int) {
	procs := runtime.GOMAXPROCS(0)
	if cellWorkers < 1 {
		cellWorkers = procs
	}
	cellsInFlight = max(1, min(cellWorkers, cells))
	return cellsInFlight, max(1, procs/cellsInFlight)
}

// Run executes every cell of the grid and returns the cells sorted by
// (pattern, procs, iterations, nodes, nd). Per-cell failures are
// recorded in Cell.Err and do not stop the campaign; cancelling ctx
// does, aborting in-flight cells and returning an error satisfying
// errors.Is(err, ctx.Err()) — together with a partial Result holding
// the cells that completed before cancellation, so callers can report
// how far a truncated campaign got instead of discarding it.
func (r *Runner) Run(ctx context.Context, g Grid) (*Result, error) {
	q := g.withDefaults()
	if err := q.validate(); err != nil {
		return nil, err
	}
	cells := q.CellSpecs()
	workers, runWorkers := CoreBudget(r.Workers, len(cells))
	if r.RunWorkers > 0 {
		runWorkers = r.RunWorkers
	}

	res := &Result{KernelName: q.Kernel.Name(), Cells: make([]Cell, len(cells))}
	start := time.Now()
	var (
		mu       sync.Mutex // guards the progress counters and callback
		done     int
		doneRuns int
	)
	par.ForEach(workers, len(cells), func(idx int) {
		if ctx.Err() != nil {
			return
		}
		cellStart := time.Now()
		if r.Stream || r.ArchiveDir != "" {
			res.Cells[idx] = RunCellStream(ctx, q, cells[idx], runWorkers, r.ArchiveDir, r.Codec)
		} else {
			res.Cells[idx] = RunCell(ctx, q, cells[idx], runWorkers)
		}
		r.report(&mu, res.Cells[idx], time.Since(cellStart), start, len(cells), q.Runs, &done, &doneRuns)
	})
	if err := ctx.Err(); err != nil {
		// Keep only the cells that actually ran (skipped dispatches leave
		// zero-valued cells), sorted like a complete result, so the
		// partial grid is directly renderable.
		kept := res.Cells[:0]
		for _, c := range res.Cells {
			if c.Pattern != "" {
				kept = append(kept, c)
			}
		}
		res.Cells = kept
		SortCells(res.Cells)
		return res, fmt.Errorf("campaign: cancelled after %d/%d cells: %w", len(res.Cells), len(cells), err)
	}
	SortCells(res.Cells)
	return res, nil
}

// report updates the shared progress counters and invokes the callback
// under the mutex, serializing observations.
func (r *Runner) report(mu *sync.Mutex, cell Cell, cellWall time.Duration, start time.Time, totalCells, runsPerCell int, done, doneRuns *int) {
	mu.Lock()
	defer mu.Unlock()
	*done++
	*doneRuns += runsPerCell
	if r.Progress == nil {
		return
	}
	elapsed := time.Since(start)
	eta := etaFrom(elapsed, *done, totalCells-*done)
	r.Progress(Progress{
		TotalCells: totalCells,
		DoneCells:  *done,
		TotalRuns:  totalCells * runsPerCell,
		DoneRuns:   *doneRuns,
		Cell:       cell,
		CellWall:   cellWall,
		Elapsed:    elapsed,
		ETA:        eta,
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
