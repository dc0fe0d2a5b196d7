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
// caps the cell's run concurrency (<=0 means one worker per core). Each
// run reduces to its embedding and order hash in memory, inside the
// run, and writes no file. The Runner does not call it: it interleaves
// every cell's runs on one queue, through the same per-cell run state.
func RunCell(ctx context.Context, g Grid, spec CellSpec, runWorkers int) Cell {
	return RunCellArchive(ctx, g, spec, runWorkers, "", trace.CodecOptions{})
}

// RunCellArchive is RunCell with trace archiving: when archiveDir is
// non-empty, every run simulates straight into a v2 trace file under
// the cell's fingerprint (<archiveDir>/<fingerprint>/run-<i>.anctr) and
// is embedded by streaming the file back, so the directory is a
// content-addressed store replayable with `anacin replay`. With an
// empty archiveDir it is RunCell. The resulting Cell is byte-identical
// either way (a property the tests pin). codec sets the archived
// traces' DEFLATE level (zero = format default); runs compress inline.
func RunCellArchive(ctx context.Context, g Grid, spec CellSpec, runWorkers int, archiveDir string, codec trace.CodecOptions) Cell {
	q := g.withDefaults()
	c := startCell(ctx, &q, spec, archiveDir, codec)
	par.ForEach(runWorkers, q.Runs, c.run)
	return c.finish()
}

// cellRun is one cell's run state: its result row, still without a
// measurement, and the sample that measures it. A cell that could not
// start (an unknown pattern, say) has no sample and carries the error.
type cellRun struct {
	cell   Cell
	sample *core.Sample
	runs   *core.EmbeddedRunSet
}

// startCell starts the cell spec of the defaulted grid q (see
// Grid.withDefaults), archived under the cell's fingerprint in
// archiveDir when that is non-empty.
func startCell(ctx context.Context, q *Grid, spec CellSpec, archiveDir string, codec trace.CodecOptions) *cellRun {
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
	e.Codec = codec
	dir := ""
	if archiveDir != "" {
		dir = filepath.Join(archiveDir, q.CellFingerprint(spec).String())
	}
	c.sample, c.runs, c.cell.Err = e.StartEmbedded(ctx, q.Kernel, dir)
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
// runs' embeddings to the cell's summary, or records why they failed.
func (c *cellRun) finish() Cell {
	if c.sample != nil {
		if err := c.sample.Finish(); err != nil {
			c.cell.Err = err
		} else {
			c.cell.Summary = c.runs.DistanceSummary()
			c.cell.DistinctStructures = c.runs.DistinctStructures()
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
