package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/par"
	"github.com/anacin-go/anacinx/internal/trace"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusCancelled Status = "cancelled"
)

// ErrDraining is returned by Submit once shutdown has begun: the
// server finishes in-flight jobs but admits no new ones.
var ErrDraining = errors.New("serve: draining, not accepting new campaigns")

// runCellFn indirects campaign.RunCellArchive so tests can substitute
// slow, blocking, or instrumented cells without simulating.
var runCellFn = campaign.RunCellArchive

// SummaryView is analysis.Summary with wire-friendly field names.
type SummaryView struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
}

func summaryView(s analysis.Summary) SummaryView {
	return SummaryView{N: s.N, Min: s.Min, Q1: s.Q1, Median: s.Median,
		Q3: s.Q3, Max: s.Max, Mean: s.Mean, StdDev: s.StdDev}
}

// CellView is one cell's wire representation: its coordinates, where
// its result came from (computed / joined / store), and its reduced
// measurements.
type CellView struct {
	Index              int          `json:"index"`
	Pattern            string       `json:"pattern"`
	Procs              int          `json:"procs"`
	Iterations         int          `json:"iterations"`
	Nodes              int          `json:"nodes"`
	NDPercent          float64      `json:"nd_percent"`
	Runs               int          `json:"runs"`
	Fingerprint        string       `json:"fingerprint"`
	Done               bool         `json:"done"`
	Source             Source       `json:"source,omitempty"`
	WallMS             int64        `json:"wall_ms"`
	Summary            *SummaryView `json:"summary,omitempty"`
	DistinctStructures int          `json:"distinct_structures,omitempty"`
	Error              string       `json:"error,omitempty"`
}

// JobView is a job's wire representation.
type JobView struct {
	ID         string    `json:"id"`
	Status     Status    `json:"status"`
	Kernel     string    `json:"kernel"`
	TotalCells int       `json:"total_cells"`
	DoneCells  int       `json:"done_cells"`
	Runs       int       `json:"runs"`
	BaseSeed   int64     `json:"base_seed"`
	Created    time.Time `json:"created"`
	ElapsedMS  int64     `json:"elapsed_ms"`
	ETAMS      int64     `json:"eta_ms"`
}

// cellEvent is the payload of every SSE `cell` event: the completed
// cell plus the job-level progress counters at that moment, so a
// client needs no other stream to render a live progress bar and ETA.
type cellEvent struct {
	CellView
	DoneCells  int   `json:"done_cells"`
	TotalCells int   `json:"total_cells"`
	ElapsedMS  int64 `json:"elapsed_ms"`
	ETAMS      int64 `json:"eta_ms"`
}

// Job is one submitted campaign: a grid expanded to cell specs, run
// through the content-addressed store, narrated on an EventLog.
type Job struct {
	ID     string
	grid   campaign.Grid
	specs  []campaign.CellSpec
	log    *EventLog
	cancel context.CancelFunc
	doneCh chan struct{}

	mu        sync.Mutex
	status    Status
	cells     []CellView
	doneCells int
	created   time.Time
	started   time.Time
	finished  time.Time
	result    *campaign.Result
}

// View snapshots the job for JSON.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() JobView {
	v := JobView{
		ID:         j.ID,
		Status:     j.status,
		Kernel:     j.grid.Kernel.Name(),
		TotalCells: len(j.specs),
		DoneCells:  j.doneCells,
		Runs:       j.grid.Runs,
		BaseSeed:   j.grid.BaseSeed,
		Created:    j.created,
	}
	switch {
	case j.status == StatusQueued:
	case j.finished.IsZero():
		elapsed := time.Since(j.started)
		v.ElapsedMS = elapsed.Milliseconds()
		v.ETAMS = etaMS(elapsed, j.doneCells, len(j.specs)-j.doneCells)
	default:
		v.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	}
	return v
}

// Cells snapshots the per-cell states in spec order.
func (j *Job) Cells() []CellView {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]CellView, len(j.cells))
	copy(out, j.cells)
	return out
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the assembled campaign result, or nil until the job
// is done.
func (j *Job) Result() *campaign.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Events returns the job's event log for SSE streaming.
func (j *Job) Events() *EventLog { return j.log }

// Cancel aborts the job: in-flight cells whose computations no other
// job is waiting on are cancelled, and the job finishes with status
// cancelled.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// etaMS extrapolates remaining milliseconds from the completed pace
// (multiply before divide, like campaign's etaFrom).
func etaMS(elapsed time.Duration, done, remaining int) int64 {
	if done <= 0 || remaining <= 0 {
		return 0
	}
	return time.Duration(int64(elapsed) * int64(remaining) / int64(done)).Milliseconds()
}

// Registry owns every job and the worker budget they share. It is the
// drain point for graceful shutdown.
type Registry struct {
	store       *Store
	cellWorkers int
	archiveDir  string
	codec       trace.CodecOptions
	simSlots    chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	draining bool
	wg       sync.WaitGroup
}

// NewRegistry returns a registry running jobs against store.
// cellWorkers caps concurrent cells per job; simWorkers caps cell
// computations in flight across all jobs, each running up to
// max(1, GOMAXPROCS / cells in flight in its job) simulations (both
// default to GOMAXPROCS). When archiveDir is non-empty, every run's v2
// trace is kept under <archiveDir>/<cell-fingerprint>/run-<i>.anctr,
// replayable with `anacin replay`; otherwise runs write no file. Cell
// results are byte-identical either way. codec sets the archived
// traces' DEFLATE level (zero = the v2 format default); runs compress
// inline.
func NewRegistry(store *Store, cellWorkers, simWorkers int, archiveDir string, codec trace.CodecOptions) *Registry {
	if simWorkers < 1 {
		simWorkers = runtime.GOMAXPROCS(0)
	}
	return &Registry{
		store:       store,
		cellWorkers: cellWorkers,
		archiveDir:  archiveDir,
		codec:       codec,
		simSlots:    make(chan struct{}, simWorkers),
		jobs:        make(map[string]*Job),
	}
}

// Submit admits a normalized grid as a new job and starts it.
func (r *Registry) Submit(grid campaign.Grid) (*Job, error) {
	specs := grid.CellSpecs()
	if len(specs) == 0 {
		return nil, errors.New("serve: grid has no cells")
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		grid:    grid,
		specs:   specs,
		log:     NewEventLog(),
		cancel:  cancel,
		doneCh:  make(chan struct{}),
		status:  StatusQueued,
		cells:   make([]CellView, len(specs)),
		created: time.Now(),
	}
	for i, spec := range specs {
		j.cells[i] = CellView{
			Index: i, Pattern: spec.Pattern, Procs: spec.Procs,
			Iterations: spec.Iterations, Nodes: spec.Nodes,
			NDPercent: spec.NDPercent, Runs: grid.Runs,
			Fingerprint: grid.CellFingerprint(spec).String(),
		}
	}

	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	r.nextID++
	j.ID = fmt.Sprintf("job-%d", r.nextID)
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	r.wg.Add(1)
	r.mu.Unlock()

	go func() {
		defer r.wg.Done()
		j.run(ctx, r)
	}()
	return j, nil
}

// Get looks a job up by id.
func (r *Registry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (r *Registry) Jobs() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.jobs[id])
	}
	return out
}

// Drain stops admitting jobs and waits for the running ones. If ctx
// expires first, every remaining job is cancelled and Drain still
// waits for them to unwind before returning ctx's error.
func (r *Registry) Drain(ctx context.Context) error {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, j := range r.Jobs() {
			j.Cancel()
		}
		<-done
		return ctx.Err()
	}
}

// run executes the job's cells through the store on a worker pool and
// narrates progress on the event log.
func (j *Job) run(ctx context.Context, r *Registry) {
	defer close(j.doneCh)
	defer j.log.Close()

	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	view := j.viewLocked()
	j.mu.Unlock()
	j.log.Append("job", view)

	workers, runWorkers := coreBudget(r.cellWorkers, len(j.specs))
	par.ForEach(workers, len(j.specs), func(idx int) {
		if ctx.Err() == nil {
			j.runCell(ctx, r, idx, runWorkers)
		}
	})

	j.mu.Lock()
	j.finished = time.Now()
	if ctx.Err() != nil {
		j.status = StatusCancelled
	} else {
		j.status = StatusDone
		cells := make([]campaign.Cell, 0, len(j.specs))
		for i, spec := range j.specs {
			cv := j.cells[i]
			cell := campaign.Cell{
				Pattern: spec.Pattern, Procs: spec.Procs, Iterations: spec.Iterations,
				Nodes: spec.Nodes, NDPercent: spec.NDPercent, Runs: j.grid.Runs,
				DistinctStructures: cv.DistinctStructures,
			}
			if cv.Summary != nil {
				cell.Summary = analysis.Summary{N: cv.Summary.N, Min: cv.Summary.Min,
					Q1: cv.Summary.Q1, Median: cv.Summary.Median, Q3: cv.Summary.Q3,
					Max: cv.Summary.Max, Mean: cv.Summary.Mean, StdDev: cv.Summary.StdDev}
			}
			if cv.Error != "" {
				cell.Err = errors.New(cv.Error)
			}
			cells = append(cells, cell)
		}
		campaign.SortCells(cells)
		j.result = &campaign.Result{KernelName: j.grid.Kernel.Name(), Cells: cells}
	}
	view = j.viewLocked()
	j.mu.Unlock()
	j.log.Append("done", view)
}

// coreBudget splits the machine between a job's two levels: at most
// cellWorkers cells in flight (<= 0 means GOMAXPROCS), capped at the
// cell count, and max(1, GOMAXPROCS / cells in flight) runs per cell,
// so the levels multiply out to roughly GOMAXPROCS goroutines instead
// of cells × runs. A job keeps whole cells as its unit of work because
// the store deduplicates whole cells across jobs.
func coreBudget(cellWorkers, cells int) (cellsInFlight, runWorkers int) {
	procs := runtime.GOMAXPROCS(0)
	if cellWorkers < 1 {
		cellWorkers = procs
	}
	cellsInFlight = max(1, min(cellWorkers, cells))
	return cellsInFlight, max(1, procs/cellsInFlight)
}

// runCell resolves one cell through the store and records it.
func (j *Job) runCell(ctx context.Context, r *Registry, idx, runWorkers int) {
	spec := j.specs[idx]
	fp := j.grid.CellFingerprint(spec)
	start := time.Now()
	cell, src, err := r.store.GetOrCompute(ctx, fp, func(cctx context.Context) campaign.Cell {
		// The global slot bounds concurrent cell computations across
		// jobs (each runs up to runWorkers simulations); dedupe happens
		// before the queue, so waiting here never duplicates work.
		select {
		case r.simSlots <- struct{}{}:
		case <-cctx.Done():
			return campaign.Cell{Pattern: spec.Pattern, Procs: spec.Procs,
				Iterations: spec.Iterations, Nodes: spec.Nodes,
				NDPercent: spec.NDPercent, Runs: j.grid.Runs, Err: cctx.Err()}
		}
		defer func() { <-r.simSlots }()
		return runCellFn(cctx, j.grid, spec, runWorkers, r.archiveDir, r.codec)
	})
	if err != nil {
		// Our job was cancelled; the terminal event reports it.
		return
	}

	j.mu.Lock()
	cv := &j.cells[idx]
	cv.Done = true
	cv.Source = src
	cv.WallMS = time.Since(start).Milliseconds()
	sv := summaryView(cell.Summary)
	cv.Summary = &sv
	cv.DistinctStructures = cell.DistinctStructures
	if cell.Err != nil {
		cv.Error = cell.Err.Error()
	}
	j.doneCells++
	elapsed := time.Since(j.started)
	ev := cellEvent{
		CellView:   *cv,
		DoneCells:  j.doneCells,
		TotalCells: len(j.specs),
		ElapsedMS:  elapsed.Milliseconds(),
		ETAMS:      etaMS(elapsed, j.doneCells, len(j.specs)-j.doneCells),
	}
	// Append under the job mutex: worker goroutines complete cells
	// concurrently, and the event stream must narrate done_cells in
	// strictly increasing order.
	j.log.Append("cell", ev)
	j.mu.Unlock()
}
