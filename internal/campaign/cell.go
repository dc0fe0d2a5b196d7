package campaign

import (
	"context"
	"path/filepath"
	"sort"

	"github.com/anacin-go/anacinx/internal/core"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/par"
	"github.com/anacin-go/anacinx/internal/trace"
)

// CellSpec is one grid point's coordinates: the dimensions a Grid
// crosses, without the grid-level scalar knobs (Runs, BaseSeed,
// Kernel). A (Grid, CellSpec) pair fully determines a cell's
// measurement — see Grid.CellFingerprint.
type CellSpec struct {
	Pattern    string
	Procs      int
	Iterations int
	Nodes      int
	NDPercent  float64
}

// Normalized returns the grid with dimension defaults and the default
// kernel applied, validated. Serving layers call it once at admission
// so that every later CellSpecs/CellFingerprint/RunCell call sees the
// same concrete configuration the Runner would execute.
func (g Grid) Normalized() (Grid, error) {
	q := g.withDefaults()
	if err := q.validate(); err != nil {
		return Grid{}, err
	}
	return q, nil
}

// CellSpecs expands the grid's cross product in declaration order
// (patterns, then procs, iterations, nodes, nd). Dimension defaults
// are applied first, so the result matches what Run would execute.
func (g *Grid) CellSpecs() []CellSpec {
	q := g.withDefaults()
	out := make([]CellSpec, 0, q.Cells())
	for _, pattern := range q.Patterns {
		for _, procs := range q.Procs {
			for _, iters := range q.Iterations {
				for _, nodes := range q.Nodes {
					for _, nd := range q.NDPercents {
						out = append(out, CellSpec{pattern, procs, iters, nodes, nd})
					}
				}
			}
		}
	}
	return out
}

// cellFingerprintVersion tags the fold schema below. Bump it whenever
// the schema — or the semantics of any folded knob — changes, so stale
// stores can never serve results computed under different rules.
const cellFingerprintVersion = "anacin/cell/v1"

// CellFingerprint is the content address of one cell's measurement: a
// fingerprint of everything that determines its Summary — the cell
// coordinates plus the grid's scalar knobs (runs, base seed, stack
// capture, kernel configuration; kernel names encode depth,
// directedness, and seed). Two submissions whose grids overlap on a
// cell produce equal fingerprints for it, which is what lets a result
// store dedupe concurrent campaigns and serve repeat queries without
// re-simulating. The grid should be Normalized first; a nil kernel is
// fingerprinted as the default (matching what Run would execute).
func (g *Grid) CellFingerprint(spec CellSpec) kernel.Fingerprint {
	k := g.Kernel
	if k == nil {
		k = kernel.NewWL(2)
	}
	fp := kernel.NewFingerprinter()
	fp.String(cellFingerprintVersion)
	fp.String(k.Name())
	fp.String(spec.Pattern)
	fp.Int(int64(spec.Procs))
	fp.Int(int64(spec.Iterations))
	fp.Int(int64(spec.Nodes))
	fp.Float(spec.NDPercent)
	fp.Int(int64(g.Runs))
	fp.Int(g.BaseSeed)
	fp.Bool(g.CaptureStacks)
	return fp.Sum()
}

// RunCell executes one grid cell of g and reduces it to its summary.
// Failures are recorded in Cell.Err, not returned: a cell is an
// independent measurement and its caller (a serving layer's store, or
// a benchmark) decides what a failure means for the whole. runWorkers
// caps the cell's run concurrency (<=0 means one worker per core). The
// Runner does not call it: it interleaves every cell's runs on one
// queue, through the same per-cell run state.
func RunCell(ctx context.Context, g Grid, spec CellSpec, runWorkers int) Cell {
	return runCell(ctx, g, spec, runWorkers, false, "", trace.CodecOptions{})
}

// RunCellStream is RunCell through the streaming pipeline: every run
// simulates straight into a v2 trace file, is embedded by streaming the
// file back, and is reduced without a trace or graph ever materializing
// — flat memory in run length. When archiveDir is non-empty, the cell's
// traces are archived there under the cell's fingerprint
// (<archiveDir>/<fingerprint>/run-<i>.anctr), making the directory a
// content-addressed store replayable with `anacin replay`. The
// resulting Cell is byte-identical to RunCell's (the embeddings, and
// therefore the summary, match exactly — a property the tests pin).
// codec tunes archived-trace compression; only its Level applies
// (zero = format default), and runs compress inline.
func RunCellStream(ctx context.Context, g Grid, spec CellSpec, runWorkers int, archiveDir string, codec trace.CodecOptions) Cell {
	return runCell(ctx, g, spec, runWorkers, true, archiveDir, codec)
}

// runCell runs every run of one cell on runWorkers goroutines.
func runCell(ctx context.Context, g Grid, spec CellSpec, runWorkers int, stream bool, archiveDir string, codec trace.CodecOptions) Cell {
	q := g.withDefaults()
	c := startCell(ctx, &q, spec, stream, archiveDir, codec)
	par.ForEach(runWorkers, q.Runs, c.run)
	return c.finish()
}

// cellRun is one cell's run state: its result row, still without a
// measurement, and the sample that measures it. A cell that could not
// start (an unknown pattern, say) has no sample and carries the error.
type cellRun struct {
	cell   Cell
	sample *core.Sample
	reduce func(*Cell)
}

// startCell starts the cell spec of the defaulted grid q (see
// Grid.withDefaults). With stream set, its runs go through the
// streaming pipeline, archived under the cell's fingerprint in
// archiveDir when that is non-empty.
func startCell(ctx context.Context, q *Grid, spec CellSpec, stream bool, archiveDir string, codec trace.CodecOptions) *cellRun {
	c := &cellRun{cell: Cell{
		Pattern: spec.Pattern, Procs: spec.Procs, Iterations: spec.Iterations,
		Nodes: spec.Nodes, NDPercent: spec.NDPercent, Runs: q.Runs,
	}}
	e := core.DefaultExperiment(spec.Pattern, spec.Procs, spec.NDPercent)
	e.Iterations = spec.Iterations
	e.Nodes = spec.Nodes
	e.Runs = q.Runs
	e.BaseSeed = q.BaseSeed
	e.CaptureStacks = q.CaptureStacks
	k := q.Kernel
	var err error
	if stream {
		e.Codec = codec
		dir := ""
		if archiveDir != "" {
			dir = filepath.Join(archiveDir, q.CellFingerprint(spec).String())
		}
		var srs *core.StreamRunSet
		c.sample, srs, err = e.StartStream(ctx, k, dir)
		c.reduce = func(cell *Cell) {
			cell.Summary = srs.DistanceSummary()
			cell.DistinctStructures = srs.DistinctStructures()
		}
	} else {
		var rs *core.RunSet
		c.sample, rs, err = e.Start(ctx)
		c.reduce = func(cell *Cell) {
			// DistanceSummary routes through the run set's embedding
			// cache, so a future per-cell root-source pass would reuse
			// these embeddings.
			cell.Summary = rs.DistanceSummary(k)
			cell.DistinctStructures = rs.DistinctStructures()
		}
	}
	c.cell.Err = err
	return c
}

// run executes run i of the cell; a cell that could not start has
// nothing to run.
func (c *cellRun) run(i int) {
	if c.sample != nil {
		c.sample.Run(i)
	}
}

// finish ends the cell once every run has returned: it reduces the
// runs to the cell's summary, or records why they failed, and releases
// the sample's scratch space.
func (c *cellRun) finish() Cell {
	if c.sample != nil {
		if err := c.sample.Finish(); err != nil {
			c.cell.Err = err
		} else {
			c.reduce(&c.cell)
		}
	}
	return c.cell
}

// SortCells orders cells by their deterministic key — the order Run
// returns and WriteCSV/WriteMarkdown expect. Layers that assemble a
// Result from individually-executed cells (the serve store path) sort
// with this so their output is byte-identical to a batch Run of the
// same grid.
func SortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool { return cells[i].key() < cells[j].key() })
}
