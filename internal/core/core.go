// Package core orchestrates the full ANACIN-X pipeline: configure a
// communication-pattern workload, execute a sample of independent
// simulated runs, build their event graphs, and reduce them to
// kernel-distance samples and root-source rankings. The CLI, the course
// module, the examples, and the figure-regeneration benchmarks are all
// thin layers over this package.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/par"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// Experiment describes one workload configuration and how many
// independent runs to sample from it. Fields mirror the knobs the paper
// exposes to students: pattern, processes, nodes, iterations, message
// size, and the percentage of non-determinism.
type Experiment struct {
	// Pattern is a patterns registry key, e.g. "unstructured_mesh".
	Pattern string
	// Procs is the MPI process count.
	Procs int
	// Nodes is the compute-node count (>=1).
	Nodes int
	// Iterations is the communication-pattern iteration count.
	Iterations int
	// MsgSize is the per-message payload size in bytes.
	MsgSize int
	// NDPercent is the injected percentage of non-determinism (0..100).
	NDPercent float64
	// Runs is the number of independent executions to sample (the
	// paper uses 20 per configuration).
	Runs int
	// BaseSeed seeds run i with BaseSeed + i.
	BaseSeed int64
	// TopologySeed fixes randomized topologies (unstructured mesh);
	// it is shared by all runs of the experiment.
	TopologySeed int64
	// Degree is the unstructured-mesh out-degree (0 = default).
	Degree int
	// CaptureStacks records callstacks on every event; required for
	// root-source analysis, skippable for pure distance measurements.
	CaptureStacks bool
	// Workers caps how many runs ExecuteContext executes at once
	// (0 = GOMAXPROCS). Campaign cells schedule runs themselves (the
	// Runner's grid queue, RunCell's own pool) and drive the Sample of
	// StartEmbedded instead, so they do not use it.
	Workers int
	// Net optionally overrides the network model (zero = sim.DefaultNet).
	Net sim.NetModel
	// Replay optionally pins receives to a recorded schedule.
	Replay *sim.Schedule
	// Codec tunes archived-trace compression; ignored unless
	// StartEmbedded archives the runs. Its one option is the DEFLATE
	// level (zero is the v2 format default). Each run compresses inline
	// on the goroutine that runs it, since the runs are already spread
	// over the cores.
	Codec trace.CodecOptions
}

// DefaultExperiment returns the paper's base configuration for a
// pattern: 20 runs, 1 iteration, 1-byte messages, 1 node, stacks on.
func DefaultExperiment(pattern string, procs int, ndPercent float64) Experiment {
	return Experiment{
		Pattern:       pattern,
		Procs:         procs,
		Nodes:         1,
		Iterations:    1,
		MsgSize:       1,
		NDPercent:     ndPercent,
		Runs:          20,
		BaseSeed:      1,
		TopologySeed:  1,
		CaptureStacks: true,
	}
}

// params converts the experiment to pattern parameters.
func (e *Experiment) params() patterns.Params {
	return patterns.Params{
		Procs:        e.Procs,
		Iterations:   e.Iterations,
		MsgSize:      e.MsgSize,
		TopologySeed: e.TopologySeed,
		Degree:       e.Degree,
	}
}

// config builds the simulator configuration for run index i. The
// pattern's per-rank event estimate sizes the trace arena, replacing
// the flat sim.DefaultEventsPerRankHint that starves heavy workloads
// and overallocates idle large-P ranks.
func (e *Experiment) config(i int, pat patterns.Pattern) sim.Config {
	return sim.Config{
		Procs:             e.Procs,
		Nodes:             e.Nodes,
		NDPercent:         e.NDPercent,
		Seed:              e.BaseSeed + int64(i),
		Net:               e.Net,
		Replay:            e.Replay,
		CaptureStacks:     e.CaptureStacks,
		EventsPerRankHint: pat.EventsPerRankHint(e.params()),
	}
}

// Validate checks the experiment without running it.
func (e *Experiment) Validate() error {
	if e.Runs < 1 {
		return fmt.Errorf("core: Runs = %d, need >= 1", e.Runs)
	}
	pat, err := patterns.ByName(e.Pattern)
	if err != nil {
		return err
	}
	p := e.params()
	if err := p.Validate(pat.MinProcs()); err != nil {
		return err
	}
	// Build one program to surface pattern-level validation, and one
	// config to surface simulator-level validation.
	if _, err := pat.Program(p); err != nil {
		return err
	}
	cfg := e.config(0, pat)
	probe := cfg
	if _, _, err := sim.Run(probe, trace.Meta{}, func(r *sim.Rank) {}); err != nil {
		return err
	}
	return nil
}

// RunSet holds the sampled executions of one experiment, every run's
// trace and graph included, for the analyses that need more than a
// distance sample: the figures, root sources, and visualizations.
// Campaign cells reduce their runs to an EmbeddedRunSet instead.
type RunSet struct {
	Experiment Experiment
	// Traces[i] is run i's trace (seed BaseSeed+i).
	Traces []*trace.Trace
	// Graphs[i] is run i's event graph.
	Graphs []*graph.Graph
	// Stats[i] summarizes run i's simulation.
	Stats []*sim.Stats

	// cache memoizes kernel embeddings across the run set's
	// reductions; see Cache.
	cacheMu sync.Mutex
	cache   *kernel.Cache
}

// Cache returns the run set's shared embedding cache, creating it on
// first use. Distances, DistanceSummary, and RootSources all embed the
// same graphs; routing them through one content-addressed cache means
// an experiment that draws the violin sample, the slice profile, and
// the root-source ranking embeds each run exactly once per kernel.
func (rs *RunSet) Cache() *kernel.Cache {
	rs.cacheMu.Lock()
	defer rs.cacheMu.Unlock()
	if rs.cache == nil {
		rs.cache = kernel.NewCache()
	}
	return rs.cache
}

// Execute runs the experiment's sample. Runs are independent, so they
// execute concurrently across the machine's cores; results are indexed
// by run number, so the output is identical regardless of scheduling.
func (e Experiment) Execute() (*RunSet, error) {
	return e.ExecuteContext(context.Background())
}

// executeRunHook, when non-nil, observes every run index a Sample
// actually starts. Tests use it to assert that a failing run
// short-circuits the remaining dispatches.
var executeRunHook func(runIndex int)

// ExecuteContext is Execute with cancellation. Cancelling ctx aborts
// in-flight simulations and stops dispatching new runs; the returned
// error then satisfies errors.Is(err, ctx.Err()). A run failure
// likewise cancels the remaining work — a 20-run sample that already
// lost a member is going to be discarded, so finishing it is waste —
// and the first recorded failure is returned.
func (e Experiment) ExecuteContext(ctx context.Context) (*RunSet, error) {
	pat, program, err := e.program()
	if err != nil {
		return nil, err
	}
	rs := &RunSet{
		Experiment: e,
		Traces:     make([]*trace.Trace, e.Runs),
		Graphs:     make([]*graph.Graph, e.Runs),
		Stats:      make([]*sim.Stats, e.Runs),
	}
	s := newSample(ctx, func(ctx context.Context, i int) error {
		tr, g, stats, err := e.materialize(ctx, i, pat, program)
		if err != nil {
			return err
		}
		rs.Traces[i], rs.Graphs[i], rs.Stats[i] = tr, g, stats
		return nil
	})
	par.ForEach(e.Workers, e.Runs, s.Run)
	if err := s.Finish(); err != nil {
		return nil, err
	}
	return rs, nil
}

// materialize simulates run i in memory and builds its event graph.
func (e *Experiment) materialize(ctx context.Context, i int, pat patterns.Pattern, program sim.Program) (*trace.Trace, *graph.Graph, *sim.Stats, error) {
	tr, stats, err := sim.RunContext(ctx, e.config(i, pat), e.meta(i), program)
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	return tr, g, stats, nil
}

// meta is the trace metadata of run i, the same whether the run is
// kept, reduced in memory, or archived.
func (e *Experiment) meta(i int) trace.Meta {
	return trace.Meta{
		Pattern: e.Pattern, Iterations: e.Iterations, MsgSize: e.MsgSize,
		Procs: e.Procs, Nodes: e.Nodes, NDPercent: e.NDPercent,
		Seed: e.BaseSeed + int64(i),
	}
}

// program resolves the experiment's pattern and builds its simulator
// program, rejecting an empty sample.
func (e *Experiment) program() (patterns.Pattern, sim.Program, error) {
	pat, err := patterns.ByName(e.Pattern)
	if err != nil {
		return nil, nil, err
	}
	if e.Runs < 1 {
		return nil, nil, fmt.Errorf("core: Runs = %d, need >= 1", e.Runs)
	}
	program, err := pat.Program(e.params())
	if err != nil {
		return nil, nil, err
	}
	return pat, sim.Adapt(program), nil
}

// Sample is one experiment's sample in execution. Run(i) executes run i
// and writes its result to slot i of the sample's run set, so runs may
// execute in any order, on any goroutines, and interleaved with other
// samples' runs: ExecuteContext drives one Sample from its run pool,
// RunCell drives a StartEmbedded Sample from its own, and the campaign
// Runner drives every cell's Sample from one grid-wide queue. A run
// therefore has one implementation, whoever schedules it.
//
// Runs execute under a context derived from the one the sample was
// started with. The first failing run cancels it, so a failure aborts
// the sample's in-flight runs and skips the rest, and never reaches
// another sample.
type Sample struct {
	parent context.Context
	ctx    context.Context
	cancel context.CancelFunc
	run    func(ctx context.Context, i int) error

	errOnce sync.Once
	err     error       // the first failure
	cut     atomic.Bool // some run was skipped or cancelled
}

// newSample returns a sample whose runs call run.
func newSample(ctx context.Context, run func(ctx context.Context, i int) error) *Sample {
	s := &Sample{parent: ctx, run: run}
	s.ctx, s.cancel = context.WithCancel(ctx)
	return s
}

// Run executes run i, unless an earlier run failed or the context
// ended, in which case run i is skipped without starting. It is safe
// for concurrent use. A failure is recorded as "core: run i: …";
// cancellation fallout from sibling runs is not a failure of its own
// run, and recording it would mask the root cause behind "run N:
// cancelled".
func (s *Sample) Run(i int) {
	if s.ctx.Err() != nil {
		s.cut.Store(true)
		return
	}
	if executeRunHook != nil {
		executeRunHook(i)
	}
	err := s.run(s.ctx, i)
	if err == nil {
		return
	}
	if s.ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		s.cut.Store(true)
		return
	}
	s.errOnce.Do(func() {
		s.err = fmt.Errorf("core: run %d: %w", i, err)
		s.cancel()
	})
}

// Finish ends the sample once every Run call has returned. It releases
// the sample's context and reports the outcome: nil when every run
// completed, the first failure, or, when the context ended before
// every run completed, an error wrapping ctx.Err().
func (s *Sample) Finish() error {
	s.cancel()
	if s.err != nil {
		return s.err
	}
	if s.cut.Load() {
		// Runs are cut short only once the context ends, and without a
		// failure of its own only the parent can have ended it.
		return fmt.Errorf("core: experiment cancelled: %w", s.parent.Err())
	}
	return nil
}

// Distances returns the pairwise kernel-distance sample of the run
// set's event graphs — the data behind one violin of Figs. 5–7.
func (rs *RunSet) Distances(k kernel.Kernel) []float64 {
	return rs.Cache().PairwiseDistances(k, rs.Graphs)
}

// DistanceSummary summarizes the pairwise distances.
func (rs *RunSet) DistanceSummary(k kernel.Kernel) analysis.Summary {
	return analysis.Summarize(rs.Distances(k))
}

// RootSources runs the Fig. 8 analysis on the sample: the slice profile
// and ranked receive callstacks of high-non-determinism regions.
func (rs *RunSet) RootSources(k kernel.Kernel, slices int) (*analysis.SliceProfile, []analysis.CallstackFrequency, error) {
	return analysis.IdentifyRootSourcesCached(k, rs.Graphs, slices, rs.Cache())
}

// DistinctStructures reports how many distinct communication structures
// (trace order hashes) the sample contains: 1 means every run matched
// messages identically.
func (rs *RunSet) DistinctStructures() int {
	set := make(map[uint64]bool, len(rs.Traces))
	for _, tr := range rs.Traces {
		set[tr.OrderHash()] = true
	}
	return len(set)
}
