package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/verify"
)

// The three workloads stress opposite ends of the pipeline, so that a
// change to one layer has a workload that exercises it and one that
// bypasses it:
//
//   - race-1024 is the ROADMAP's end-to-end cell, computed the way
//     anacind computes it (materializing RunCell). Few, huge runs: it is
//     bound by the simulator and the parallel trace→graph build, and its
//     kernel stage does almost nothing (4 runs, 6 pairs). It never
//     touches the v2 codec, so it is the bypass workload for codec work.
//   - mesh-sweep-stream is a Runner grid on the streaming, archiving
//     path: many small runs below the parallel-graph threshold, v2
//     encode/decode with a callstack dictionary, the wlstream embedder,
//     190 Gram pairs per cell and the Runner's two-level worker budget.
//     It builds no graph, so it is the bypass workload for graph work.
//   - verify-sweep is the static verifier, the only layer that never
//     runs the scheduler.
//
// Every op is a closed loop with one client: the next op starts when
// the previous one has returned. Nothing cancels an op, so the layers
// get context.Background.

// workload runs one benchmark workload.
type workload interface {
	// batch runs batch b untraced. A batch is one op for race-1024 and
	// verify-sweep and one grid pass (five ops, run concurrently by the
	// campaign Runner) for mesh-sweep-stream.
	batch(b int) batchResult
	// replica re-drives batch b stage by stage through each layer's
	// public functions, recording spans in tr. Its outputs must equal
	// the untraced batch's.
	replica(b int, tr *tracer) ([]output, error)
	// check validates the output of op i of a batch by invariants that
	// hold at every seed.
	check(i int, o output) error
	// runWorkers is an op's run concurrency.
	runWorkers() int
	close() error
}

// batchResult is one untraced batch.
type batchResult struct {
	wall time.Duration
	ops  []opResult
	// cellWall sums the ops' walls of a concurrent batch (mesh only).
	cellWall time.Duration
	err      error
}

// opResult is one op of a batch.
type opResult struct {
	wall   time.Duration
	events int64 // trace events through the pipeline
	out    output
	err    error
}

var workloadNames = []string{"race-1024", "mesh-sweep-stream", "verify-sweep"}

// newWorkload sets workload name up for seed; dir holds its archives.
func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "race-1024":
		return newRace(seed)
	case "mesh-sweep-stream":
		return newMesh(seed, dir)
	case "verify-sweep":
		return verifySweep{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// maxOpsPerBatch bounds how many ops one batch holds: span op numbers
// are batch*maxOpsPerBatch + op.
const maxOpsPerBatch = 8

// baseSeed derives batch b's base run seed from the workload seed. Runs
// use baseSeed+i (i < 32), batches >= -setupReps never share a run seed,
// and no op can be served from an earlier op's result.
func baseSeed(seed int64, b int) int64 {
	return seed<<20 + int64(b+setupReps+1)*32
}

// cellPlan is everything a replica needs to re-drive one campaign cell
// through the layers' public functions: the same program, simulator
// configuration and trace metadata that core.Experiment derives.
type cellPlan struct {
	spec   campaign.CellSpec
	runs   int
	stacks bool
	kernel kernel.WL
}

func newCellPlan(g campaign.Grid, spec campaign.CellSpec) (cellPlan, error) {
	wl, ok := g.Kernel.(kernel.WL)
	if !ok {
		return cellPlan{}, fmt.Errorf("kernel %s is not WL", g.Kernel.Name())
	}
	return cellPlan{spec: spec, runs: g.Runs, stacks: g.CaptureStacks, kernel: wl}, nil
}

func (c cellPlan) params() patterns.Params {
	p := patterns.DefaultParams(c.spec.Procs)
	p.Iterations = c.spec.Iterations
	return p
}

// program builds the cell's rank program.
func (c cellPlan) program() (patterns.Pattern, sim.Program, error) {
	pat, err := patterns.ByName(c.spec.Pattern)
	if err != nil {
		return nil, nil, err
	}
	prog, err := pat.Program(c.params())
	if err != nil {
		return nil, nil, err
	}
	return pat, sim.Adapt(prog), nil
}

// config is run i's simulator configuration.
func (c cellPlan) config(pat patterns.Pattern, base int64, i int) sim.Config {
	return sim.Config{
		Procs:             c.spec.Procs,
		Nodes:             c.spec.Nodes,
		NDPercent:         c.spec.NDPercent,
		Seed:              base + int64(i),
		CaptureStacks:     c.stacks,
		EventsPerRankHint: pat.EventsPerRankHint(c.params()),
	}
}

// meta is run i's trace metadata as the streaming path writes it.
func (c cellPlan) meta(base int64, i int) trace.Meta {
	p := c.params()
	return trace.Meta{
		Pattern: c.spec.Pattern, Iterations: p.Iterations, MsgSize: p.MsgSize,
		Procs: c.spec.Procs, Nodes: c.spec.Nodes, NDPercent: c.spec.NDPercent,
		Seed: base + int64(i),
	}
}

// eventsPerRun simulates run 0 once: every workload cell records the
// same number of events in every run, whatever the seed.
func (c cellPlan) eventsPerRun() (int64, error) {
	pat, prog, err := c.program()
	if err != nil {
		return 0, err
	}
	_, stats, err := sim.Run(c.config(pat, 0, 0), c.meta(0, 0), prog)
	if err != nil {
		return 0, err
	}
	return int64(stats.Events), nil
}

// programSpan builds the cell's program inside a patterns.program span.
func (c cellPlan) programSpan(tr *tracer, parent, op int) (patterns.Pattern, sim.Program, error) {
	s := tr.begin("patterns.program", parent, op, -1)
	defer s.end()
	return c.program()
}

// reduce runs the kernel and analysis stages on a cell's embeddings, as
// RunCell and RunCellStream do, and returns the cell's summary.
func (c cellPlan) reduce(tr *tracer, parent, op int, feats []kernel.FeatureVector) *analysis.Summary {
	s := tr.begin("kernel.gram", parent, op, -1)
	d := kernel.MatrixFromFeatures(c.kernel.Name(), feats).PairwiseDistances()
	s.end()
	s = tr.begin("analysis.summarize", parent, op, -1)
	sum := analysis.Summarize(d)
	s.end()
	return &sum
}

// forEach calls fn(i) for i in [0, n) on up to workers goroutines and
// returns the first error.
func forEach(n, workers int, fn func(i int) error) error {
	workers = max(1, min(workers, n))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// ---- race-1024 ----

// race is one 1024-rank message-race cell per op: 24 iterations, 4
// nodes, 50% ND, 4 runs, stacks off, WL-2, run workers = nproc.
type race struct {
	seed   int64
	grid   campaign.Grid
	plan   cellPlan
	events int64 // per run
}

func newRace(seed int64) (*race, error) {
	g, err := campaign.Grid{
		Patterns: []string{"message_race"}, Procs: []int{1024}, Iterations: []int{24},
		Nodes: []int{4}, NDPercents: []float64{50}, Runs: 4,
	}.Normalized()
	if err != nil {
		return nil, err
	}
	plan, err := newCellPlan(g, g.CellSpecs()[0])
	if err != nil {
		return nil, err
	}
	events, err := plan.eventsPerRun()
	if err != nil {
		return nil, err
	}
	return &race{seed: seed, grid: g, plan: plan, events: events}, nil
}

func (w *race) runWorkers() int { return runtime.GOMAXPROCS(0) }
func (w *race) close() error    { return nil }

func (w *race) batch(b int) batchResult {
	g := w.grid
	g.BaseSeed = baseSeed(w.seed, b)
	t0 := time.Now()
	cell := campaign.RunCell(context.Background(), g, w.plan.spec, w.runWorkers())
	wall := time.Since(t0)
	op := opResult{wall: wall, events: int64(w.plan.runs) * w.events, err: cell.Err}
	if cell.Err == nil {
		op.out = output{Summary: &cell.Summary, Distinct: cell.DistinctStructures}
	}
	return batchResult{wall: wall, ops: []opResult{op}}
}

// replica re-drives the cell as core.Experiment.ExecuteContext and
// RunSet's reductions do: runs (simulate, then graph) on the run
// workers; then embeddings through a kernel cache on the same number of
// workers; then the Gram matrix, the summary and the order hashes.
func (w *race) replica(b int, tr *tracer) ([]output, error) {
	base := baseSeed(w.seed, b)
	opSpan := tr.begin("op", 0, b, -1)
	opSpan.count("run_workers", int64(w.runWorkers()))
	defer opSpan.end()
	pat, prog, err := w.plan.programSpan(tr, opSpan.ID, b)
	if err != nil {
		return nil, err
	}
	runs := w.plan.runs
	traces := make([]*trace.Trace, runs)
	graphs := make([]*graph.Graph, runs)
	meta := trace.Meta{Pattern: w.plan.spec.Pattern, Iterations: w.plan.spec.Iterations, MsgSize: w.plan.params().MsgSize}
	err = forEach(runs, w.runWorkers(), func(i int) error {
		run := tr.begin("run", opSpan.ID, b, i)
		defer run.end()
		s := tr.begin("sim.run", run.ID, b, i)
		t, stats, err := sim.Run(w.plan.config(pat, base, i), meta, prog)
		if err != nil {
			s.end()
			return err
		}
		countStats(s, stats)
		s.end()
		if int64(stats.Events) != w.events {
			return fmt.Errorf("run %d recorded %d events, want %d", i, stats.Events, w.events)
		}
		s = tr.begin("graph.build", run.ID, b, i)
		g, err := graph.FromTrace(t)
		if err == nil {
			s.count("nodes", int64(g.NumNodes()))
			s.count("edges", int64(g.NumEdges()))
		}
		s.end()
		traces[i], graphs[i] = t, g
		return err
	})
	if err != nil {
		return nil, err
	}
	cache := kernel.NewCache()
	feats := make([]kernel.FeatureVector, runs)
	_ = forEach(runs, w.runWorkers(), func(i int) error {
		s := tr.begin("kernel.embed", opSpan.ID, b, i)
		feats[i] = cache.Features(w.plan.kernel, graphs[i])
		s.count("features", int64(feats[i].Len()))
		s.end()
		return nil
	})
	sum := w.plan.reduce(tr, opSpan.ID, b, feats)
	hashes := make([]uint64, runs)
	for i, t := range traces {
		s := tr.begin("trace.order_hash", opSpan.ID, b, i)
		hashes[i] = t.OrderHash()
		s.end()
	}
	return []output{{Summary: sum, Distinct: distinct(hashes), OrderHashes: hexHashes(hashes)}}, nil
}

// check: the 1024 senders are symmetric, so WL-2 barely tells the runs
// apart (distances are small, often but not always all 0) while the
// match orders differ. The order hashes, checked against the expected
// outputs and between replica and op, carry this workload's check.
func (w *race) check(_ int, o output) error {
	return checkCell(o, w.plan.runs)
}

// ---- mesh-sweep-stream ----

// meshND is the grid's ND sweep; one op per level.
var meshND = []float64{0, 25, 50, 75, 100}

// mesh is a campaign Runner grid pass per batch on the streaming,
// archiving path: unstructured_mesh, 32 ranks, 8 iterations, 2 nodes,
// stacks on, 20 runs per cell, ND in meshND. One op is one cell.
type mesh struct {
	seed    int64
	grid    campaign.Grid
	plans   []cellPlan
	events  int64 // per run
	archive string
}

func newMesh(seed int64, dir string) (*mesh, error) {
	g, err := campaign.Grid{
		Patterns: []string{"unstructured_mesh"}, Procs: []int{32}, Iterations: []int{8},
		Nodes: []int{2}, NDPercents: meshND, Runs: 20, CaptureStacks: true,
	}.Normalized()
	if err != nil {
		return nil, err
	}
	w := &mesh{seed: seed, grid: g}
	for _, spec := range g.CellSpecs() {
		plan, err := newCellPlan(g, spec)
		if err != nil {
			return nil, err
		}
		w.plans = append(w.plans, plan)
	}
	if w.events, err = w.plans[0].eventsPerRun(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if w.archive, err = os.MkdirTemp(dir, "archive-"); err != nil {
		return nil, err
	}
	return w, nil
}

// cellWorkers and runWorkers mirror the Runner's two-level budget.
func (w *mesh) cellWorkers() int { return min(runtime.GOMAXPROCS(0), len(w.plans)) }
func (w *mesh) runWorkers() int  { return max(1, runtime.GOMAXPROCS(0)/w.cellWorkers()) }
func (w *mesh) close() error     { return os.RemoveAll(w.archive) }

func (w *mesh) batch(b int) batchResult {
	g := w.grid
	g.BaseSeed = baseSeed(w.seed, b)
	res := batchResult{ops: make([]opResult, len(w.plans))}
	r := campaign.Runner{ArchiveDir: w.archive, Progress: func(p campaign.Progress) {
		i := ndIndex(p.Cell.NDPercent)
		op := opResult{wall: p.CellWall, events: int64(w.plans[i].runs) * w.events, err: p.Cell.Err}
		// The archive is deleted once its size is recorded.
		dir := filepath.Join(w.archive, g.CellFingerprint(w.plans[i].spec).String())
		size, err := archiveBytes(dir, w.plans[i].runs)
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if op.err == nil {
			op.err = err
		}
		if op.err == nil {
			op.out = output{Summary: &p.Cell.Summary, Distinct: p.Cell.DistinctStructures, ArchiveBytes: size}
		}
		res.ops[i] = op
		res.cellWall += p.CellWall
	}}
	t0 := time.Now()
	_, res.err = r.Run(context.Background(), g)
	res.wall = time.Since(t0)
	return res
}

func ndIndex(nd float64) int {
	for i, v := range meshND {
		if v == nd {
			return i
		}
	}
	return -1
}

// archiveBytes sums the sizes of a cell's archived runs.
func archiveBytes(dir string, runs int) (int64, error) {
	var total int64
	for i := 0; i < runs; i++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("run-%d.anctr", i)))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// replica re-drives the pass as the Runner and RunCellStream do: cells
// on the Runner's cell workers, each cell's runs on its run workers,
// every run simulating into a v2 archive (through the timing sink),
// then streaming it back into the WL embedder and the order hash.
func (w *mesh) replica(b int, tr *tracer) ([]output, error) {
	base := baseSeed(w.seed, b)
	outs := make([]output, len(w.plans))
	err := forEach(len(w.plans), w.cellWorkers(), func(c int) error {
		op := b*maxOpsPerBatch + c
		out, err := w.replicaCell(w.plans[c], base, op, tr)
		outs[c] = out
		return err
	})
	return outs, err
}

func (w *mesh) replicaCell(plan cellPlan, base int64, op int, tr *tracer) (output, error) {
	opSpan := tr.begin("op", 0, op, -1)
	opSpan.count("run_workers", int64(w.runWorkers()))
	defer opSpan.end()
	pat, prog, err := plan.programSpan(tr, opSpan.ID, op)
	if err != nil {
		return output{}, err
	}
	dir := filepath.Join(w.archive, fmt.Sprintf("replica-%d", op))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return output{}, err
	}
	defer os.RemoveAll(dir)
	feats := make([]kernel.FeatureVector, plan.runs)
	hashes := make([]uint64, plan.runs)
	sizes := make([]int64, plan.runs)
	err = forEach(plan.runs, w.runWorkers(), func(i int) error {
		run := tr.begin("run", opSpan.ID, op, i)
		defer run.end()
		path := filepath.Join(dir, fmt.Sprintf("run-%d.anctr", i))
		var err error
		sizes[i], err = w.encodeRun(plan, pat, prog, base, i, path, tr, run.ID, op)
		if err != nil {
			return err
		}
		feats[i], hashes[i], err = w.decodeRun(path, plan, tr, run.ID, op, i)
		return err
	})
	if err != nil {
		return output{}, err
	}
	out := output{Summary: plan.reduce(tr, opSpan.ID, op, feats), Distinct: distinct(hashes), OrderHashes: hexHashes(hashes)}
	for _, n := range sizes {
		out.ArchiveBytes += n
	}
	return out, nil
}

// encodeRun simulates run i into a v2 archive at path and returns its
// size.
func (w *mesh) encodeRun(plan cellPlan, pat patterns.Pattern, prog sim.Program,
	base int64, i int, path string, tr *tracer, parent, op int) (int64, error) {
	meta := plan.meta(base, i)
	s := tr.begin("trace.open", parent, op, i)
	f, err := os.Create(path)
	if err != nil {
		s.end()
		return 0, err
	}
	sw := trace.NewStreamWriterOptions(f, meta, trace.CodecOptions{})
	s.end()

	cfg := plan.config(pat, base, i)
	sink := &timedSink{t: tr, sw: sw}
	cfg.Sink = sink
	s = tr.begin("sim.run", parent, op, i)
	_, stats, err := sim.Run(cfg, meta, prog)
	if err != nil {
		s.end()
		f.Close()
		return 0, err
	}
	countStats(s, stats)
	tr.aggregate("trace.append", s.ID, op, i, sink.first, sink.total, sink.calls)
	s.end()
	if int64(stats.Events) != w.events {
		f.Close()
		return 0, fmt.Errorf("run %d recorded %d events, want %d", i, stats.Events, w.events)
	}

	s = tr.begin("trace.close", parent, op, i)
	defer s.end()
	if err := sw.Close(); err != nil {
		f.Close()
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	s.count("archive_bytes", fi.Size())
	return fi.Size(), nil
}

// decodeRun streams the archive at path into the WL embedder and the
// order hash.
func (w *mesh) decodeRun(path string, plan cellPlan, tr *tracer, parent, op, i int) (kernel.FeatureVector, uint64, error) {
	s := tr.begin("trace.open", parent, op, i)
	r, err := trace.OpenReader(path)
	if err != nil {
		s.end()
		return kernel.FeatureVector{}, 0, err
	}
	st := r.Stats()
	s.count("segments", int64(st.Segments))
	s.count("dict_entries", int64(st.DictEntries))
	s.end()
	defer func() {
		s := tr.begin("trace.close", parent, op, i)
		r.Close()
		s.end()
	}()

	s = tr.begin("kernel.embed", parent, op, i)
	fv, ss, err := plan.kernel.FeaturesFromReaderStats(r)
	s.count("features", int64(fv.Len()))
	s.count("window", int64(ss.MaxWindow))
	s.end()
	if err != nil {
		return kernel.FeatureVector{}, 0, err
	}
	s = tr.begin("trace.order_hash", parent, op, i)
	oh, err := r.OrderHash()
	s.end()
	return fv, oh, err
}

// check: without injected ND every run matches identically, so the ND 0
// cell has one structure and zero distances at every seed.
func (w *mesh) check(i int, o output) error {
	if err := checkCell(o, w.plans[i].runs); err != nil {
		return err
	}
	if o.ArchiveBytes <= 0 {
		return fmt.Errorf("archive bytes %d", o.ArchiveBytes)
	}
	if meshND[i] == 0 && (o.Distinct != 1 || o.Summary.Max != 0) {
		return fmt.Errorf("ND 0 cell: %d structures, max distance %v; want 1 and 0", o.Distinct, o.Summary.Max)
	}
	return nil
}

// ---- verify-sweep ----

// verifyPasses is one verify-sweep op: the default sweep (76
// configurations) plus a 32-rank point. The inputs are the pattern
// registry, so the workload seed has nothing to vary here.
var verifyPasses = []verify.Options{{}, {Procs: []int{32}, Iters: []int{1}}}

type verifySweep struct{}

func (verifySweep) runWorkers() int { return 1 }
func (verifySweep) close() error    { return nil }

func (verifySweep) batch(b int) batchResult {
	t0 := time.Now()
	var out output
	for _, opts := range verifyPasses {
		findings, sums := verify.VerifyAll(opts)
		out.Gating += verify.Gating(findings)
		out.Verify = append(out.Verify, sums...)
	}
	wall := time.Since(t0)
	var events int64
	for _, s := range out.Verify {
		events += int64(s.TraceEvents)
	}
	return batchResult{wall: wall, ops: []opResult{{wall: wall, events: events, out: out}}}
}

// replica re-drives verify.VerifyPattern's steps per configuration:
// program, low-policy elaboration and analysis, high-policy elaboration,
// exactness and matching count. Its gating count covers the analyzer
// findings; the metadata checks VerifyPattern adds are unexported.
func (verifySweep) replica(b int, tr *tracer) ([]output, error) {
	opSpan := tr.begin("op", 0, b, -1)
	opSpan.count("run_workers", 1)
	defer opSpan.end()
	var out output
	unit := 0
	for _, opts := range verifyPasses {
		for _, pat := range patterns.All() {
			for _, cfg := range opts.Sweep(pat.MinProcs()) {
				sum, gating, ok := verifyConfig(tr, opSpan.ID, b, unit, pat, cfg, opts)
				out.Gating += gating
				if ok {
					out.Verify = append(out.Verify, sum)
				}
				unit++
			}
		}
	}
	return []output{out}, nil
}

func verifyConfig(tr *tracer, parent, op, unit int, pat patterns.Pattern, cfg verify.Config, opts verify.Options) (verify.ConfigSummary, int, bool) {
	u := tr.begin("verify.config", parent, op, unit)
	defer u.end()
	s := tr.begin("patterns.program", u.ID, op, unit)
	p := patterns.DefaultParams(cfg.Procs)
	p.Iterations = cfg.Iterations
	prog, err := pat.Program(p)
	s.end()
	if err != nil {
		return verify.ConfigSummary{}, 1, false
	}
	s = tr.begin("verify.elaborate", u.ID, op, unit)
	low := verify.Elaborate(prog, cfg.Procs, verify.PolicyLow, opts.RendezvousThreshold, opts.MaxOps)
	s.count("ops", int64(low.OpCount))
	s.end()
	s = tr.begin("verify.analyze", u.ID, op, unit)
	gating := verify.Gating(verify.Analyze(pat.Name(), cfg.Procs, cfg.Iterations, low))
	s.end()
	if !low.Clean() {
		return verify.ConfigSummary{}, gating, false
	}
	s = tr.begin("verify.elaborate", u.ID, op, unit)
	high := verify.Elaborate(prog, cfg.Procs, verify.PolicyHigh, opts.RendezvousThreshold, opts.MaxOps)
	s.end()
	s = tr.begin("verify.analyze", u.ID, op, unit)
	exact := verify.ClassifyExactness(low, high)
	s.end()
	s = tr.begin("verify.count", u.ID, op, unit)
	count := verify.CountMatchings(low)
	s.count("race_slots", int64(len(count.Races)))
	s.end()
	callers := make(map[string]bool)
	for _, r := range count.Races {
		callers[r.Caller] = true
	}
	return verify.ConfigSummary{
		Pattern:            pat.Name(),
		Procs:              cfg.Procs,
		Iterations:         cfg.Iterations,
		Ops:                low.OpCount,
		TraceEvents:        low.TotalTraced(),
		Matchings:          count.Matchings,
		MatchingsSaturated: count.Saturated,
		Exactness:          exact.String(),
		RaceSlots:          len(count.Races),
		NDCallSites:        len(callers),
	}, gating, true
}

// check: the registry verifies clean.
func (verifySweep) check(_ int, o output) error {
	if o.Gating != 0 {
		return fmt.Errorf("%d gating findings", o.Gating)
	}
	if len(o.Verify) == 0 {
		return fmt.Errorf("no verified configurations")
	}
	return nil
}

func countStats(s *openSpan, st *sim.Stats) {
	s.count("events", int64(st.Events))
	s.count("messages", int64(st.Messages))
	s.count("delayed", int64(st.Delayed))
}
