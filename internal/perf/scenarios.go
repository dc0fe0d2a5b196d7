package perf

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/core"
	"github.com/anacin-go/anacinx/internal/experiments"
	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/verify"
)

// The scenario set covers every layer of the hot path behind the
// paper's figures, front half (trace production) to back half (kernel
// analysis):
//
//   - sim/32rank-{stacks,nostacks}: one full 32-rank simulation with
//     and without callstack capture — the trace-production substrate
//     (rank scheduling, message pooling, stack interning); the pair's
//     difference isolates capture cost.
//   - trace-to-graph/32rank: event-graph construction from a pre-built
//     trace — the bridge between the halves.
//   - wl-features/h2/r32: one WL depth-2 embedding of a 32-rank
//     unstructured-mesh event graph — the innermost kernel, and the
//     workload the acceptance Go benchmark
//     (BenchmarkWLFeaturesH2Rank32) times.
//   - dot/wl-h2: the n(n+1)/2 merge-join dot products over pre-built
//     embeddings — the Gram inner loop in isolation.
//   - gram/w1: the Gram matrix over a 12-run sample of 16-rank
//     graphs on one goroutine, through the pipeline's embedding cache
//     (warm after the first rep) — serial cache lookups plus serial
//     dot products.
//   - slice-profile/32rank: the Fig. 8 slice profile (16 windows,
//     8 runs, 32 ranks) — many small Gram builds in parallel.
//   - figure/fig2: one paper figure end to end (simulate, trace,
//     graph, embed, check) — what a user-visible unit of work costs.
//   - campaign-cell/32rank-mesh-archive: one archived mesh campaign
//     cell — the v2 stream writer, the WL push stream and the order
//     hash of every run, as an archiving campaign runs them.

// sampleGraphs simulates a run sample and returns its event graphs
// (setup-time work, excluded from scenario timing).
func sampleGraphs(pattern string, procs, runs int) ([]*graph.Graph, error) {
	e := core.DefaultExperiment(pattern, procs, 100)
	e.Runs = runs
	e.CaptureStacks = false
	rs, err := e.Execute()
	if err != nil {
		return nil, err
	}
	return rs.Graphs, nil
}

// simWorkload builds the front-half workload the sim/* and
// trace-to-graph/* scenarios share: the 32-rank unstructured-mesh
// pattern at a multi-node, 25%-ND configuration — the shape of one cell
// of an ND-percentage sweep, which the paper's workflow simulates
// hundreds of times.
func simWorkload(procs, iterations int, captureStacks bool) (sim.Config, trace.Meta, sim.Program, error) {
	pat, err := patterns.ByName("unstructured_mesh")
	if err != nil {
		return sim.Config{}, trace.Meta{}, nil, err
	}
	params := patterns.DefaultParams(procs)
	params.Iterations = iterations
	prog, err := pat.Program(params)
	if err != nil {
		return sim.Config{}, trace.Meta{}, nil, err
	}
	cfg := sim.DefaultConfig(procs, 1)
	cfg.Nodes = 2
	cfg.NDPercent = 25
	cfg.CaptureStacks = captureStacks
	meta := trace.Meta{Pattern: "unstructured_mesh", Iterations: iterations, MsgSize: params.MsgSize}
	return cfg, meta, sim.Adapt(prog), nil
}

// simScenario times one full simulated execution — the trace-generation
// front half of the pipeline. The stacks/nostacks pair isolates the
// cost of callstack capture (interned PC decoding) from the scheduler
// and matching machinery underneath it.
func simScenario(procs, iterations int, captureStacks bool) Scenario {
	suffix, what := "nostacks", "no callstack capture"
	if captureStacks {
		suffix, what = "stacks", "interned callstack capture"
	}
	return Scenario{
		Name: fmt.Sprintf("sim/%drank-%s", procs, suffix),
		Description: fmt.Sprintf("one %d-rank unstructured-mesh simulation (%d iterations, 25%% ND, %s)",
			procs, iterations, what),
		Setup: func() (func() error, error) {
			cfg, meta, prog, err := simWorkload(procs, iterations, captureStacks)
			if err != nil {
				return nil, err
			}
			return func() error {
				tr, _, err := sim.Run(cfg, meta, prog)
				if err != nil {
					return err
				}
				if tr.NumEvents() == 0 {
					return fmt.Errorf("empty trace")
				}
				return nil
			}, nil
		},
	}
}

// traceToGraphScenario times event-graph construction from an
// already-recorded trace — the second stage of the front half, which
// reuses the interned callstack keys the tracer recorded.
func traceToGraphScenario(procs, iterations int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("trace-to-graph/%drank", procs),
		Description: fmt.Sprintf("event-graph build from one %d-rank unstructured-mesh trace (%d iterations, stacks on)",
			procs, iterations),
		Setup: func() (func() error, error) {
			cfg, meta, prog, err := simWorkload(procs, iterations, true)
			if err != nil {
				return nil, err
			}
			tr, _, err := sim.Run(cfg, meta, prog)
			if err != nil {
				return nil, err
			}
			return func() error {
				g, err := graph.FromTrace(tr)
				if err != nil {
					return err
				}
				if g.NumNodes() != tr.NumEvents() {
					return fmt.Errorf("graph has %d nodes for %d events", g.NumNodes(), tr.NumEvents())
				}
				return nil
			}, nil
		},
	}
}

// simScenarioIterations sizes the sim/* and trace-to-graph/* workloads:
// enough iterations that one op is well above timer resolution, few
// enough that a 20-rep CI run stays cheap.
const simScenarioIterations = 8

// wlFeaturesScenario times a single WL embedding.
func wlFeaturesScenario(name string, h, procs int) Scenario {
	return Scenario{
		Name:        name,
		Description: fmt.Sprintf("WL depth-%d embedding of one %d-rank unstructured-mesh graph", h, procs),
		Setup: func() (func() error, error) {
			gs, err := sampleGraphs("unstructured_mesh", procs, 1)
			if err != nil {
				return nil, err
			}
			w := kernel.NewWL(h)
			return func() error {
				if w.Features(gs[0]).Len() == 0 {
					return fmt.Errorf("empty embedding")
				}
				return nil
			}, nil
		},
	}
}

// gramScenario times the Gram-matrix build on one goroutine, through
// the same embedding cache the pipeline uses: a RunSet holds one cache
// across all of its analyses, so after the first build (here a warmup
// rep) every rebuild pays cache lookups plus the merge-join dot
// products, not re-embedding. The lookups run serially rather than
// through Cache.NewMatrix's GOMAXPROCS fan-out, so the scenario's work
// does not change with the core count. The cold embedding cost is
// tracked separately by wl-features/h2/r32; the dot stage alone by
// dot/wl-h2.
func gramScenario() Scenario {
	return Scenario{
		Name:        "gram/w1",
		Description: "WL-2 Gram matrix over 12 16-rank graphs, 1 worker, run-set embedding cache",
		Setup: func() (func() error, error) {
			gs, err := sampleGraphs("unstructured_mesh", 16, 12)
			if err != nil {
				return nil, err
			}
			// One interface value for every lookup, as NewMatrix takes it.
			var k kernel.Kernel = kernel.NewWL(2)
			c := kernel.NewCache()
			return func() error {
				feats := make([]kernel.FeatureVector, len(gs))
				for i, g := range gs {
					feats[i] = c.Features(k, g)
				}
				m := kernel.MatrixFromFeatures(k.Name(), feats)
				if m.Len() != len(gs) {
					return fmt.Errorf("matrix has %d rows, want %d", m.Len(), len(gs))
				}
				return nil
			}, nil
		},
	}
}

// dotScenario isolates the Gram matrix's inner loop: the n(n+1)/2
// merge-join dot products over pre-built WL depth-2 embeddings of a
// 12-run, 16-rank sample — the same workload as gram/w1 minus the
// embedding stage, so the two together attribute Gram time between
// embedding and dot products.
func dotScenario() Scenario {
	return Scenario{
		Name:        "dot/wl-h2",
		Description: "upper-triangle dot products over 12 pre-built WL-2 embeddings (16-rank graphs)",
		Setup: func() (func() error, error) {
			gs, err := sampleGraphs("unstructured_mesh", 16, 12)
			if err != nil {
				return nil, err
			}
			w := kernel.NewWL(2)
			feats := make([]kernel.FeatureVector, len(gs))
			for i, g := range gs {
				feats[i] = w.Features(g)
			}
			return func() error {
				sum := 0.0
				for i := range feats {
					for j := i; j < len(feats); j++ {
						sum += feats[i].Dot(feats[j])
					}
				}
				if sum <= 0 {
					return fmt.Errorf("degenerate dot-product sum %v", sum)
				}
				return nil
			}, nil
		},
	}
}

// sliceProfileScenario times the Fig. 8 slice profile: slice an 8-run,
// 32-rank sample into 16 logical-time windows and build one small Gram
// matrix per window (uncached, so the scenario measures the raw
// parallel profile, not cache hits).
func sliceProfileScenario() Scenario {
	return Scenario{
		Name:        "slice-profile/32rank",
		Description: "16-window slice profile of an 8-run 32-rank sample (WL-2)",
		Setup: func() (func() error, error) {
			gs, err := sampleGraphs("unstructured_mesh", 32, 8)
			if err != nil {
				return nil, err
			}
			w := kernel.NewWL(2)
			return func() error {
				p, err := analysis.NewSliceProfile(w, gs, 16)
				if err != nil {
					return err
				}
				if len(p.MeanDistance) != 16 {
					return fmt.Errorf("profile has %d slices, want 16", len(p.MeanDistance))
				}
				return nil
			}, nil
		},
	}
}

// largePSimIterations sizes the large-P simulations: the point is rank
// count, not iteration depth, so two iterations keep one op in the
// tens-of-milliseconds range even at 4096 ranks.
const largePSimIterations = 2

// largePSimScenario times one simulation of a named pattern at a rank
// count far past the 32-rank core set — the workloads that motivated
// per-source channel rows and arena trace storage. Stacks are captured
// so ns/op divided by event count is comparable with sim/32rank-stacks.
// Three pattern families stress different axes:
//
//   - stencil2d: wide halo exchange, every rank talks to 4 neighbours —
//     many short channel rows.
//   - collective_tree: tiny traced streams over O(P log P) internal
//     tree/butterfly messages — collective plumbing.
//   - master_worker: every worker shares channels with rank 0 — one
//     fan-in row that escalates to map indexing while the rest stay
//     two-entry.
func largePSimScenario(pattern, suffix string, procs int, nd float64) Scenario {
	return Scenario{
		Name: fmt.Sprintf("sim/%drank-%s", procs, suffix),
		Description: fmt.Sprintf("one %d-rank %s simulation (%d iterations, %g%% ND, stacks on)",
			procs, pattern, largePSimIterations, nd),
		Setup: func() (func() error, error) {
			pat, err := patterns.ByName(pattern)
			if err != nil {
				return nil, err
			}
			params := patterns.DefaultParams(procs)
			params.Iterations = largePSimIterations
			prog, err := pat.Program(params)
			if err != nil {
				return nil, err
			}
			cfg := sim.DefaultConfig(procs, 1)
			cfg.Nodes = 4
			cfg.NDPercent = nd
			cfg.CaptureStacks = true
			cfg.EventsPerRankHint = pat.EventsPerRankHint(params)
			meta := trace.Meta{Pattern: pattern, Iterations: params.Iterations, MsgSize: params.MsgSize}
			adapted := sim.Adapt(prog)
			return func() error {
				tr, _, err := sim.Run(cfg, meta, adapted)
				if err != nil {
					return err
				}
				if tr.NumEvents() == 0 {
					return fmt.Errorf("empty trace")
				}
				return nil
			}, nil
		},
	}
}

// raceCellIterations sizes the 1024-rank message-race cell and its
// sim-stage scenario: long enough (49,104 racing messages per run) that
// the fixed 1024-goroutine spawn/teardown cost amortizes to noise, as
// it does in real campaign cells; total events per run = 2·1024 +
// 2·24·1023 = 51,152.
const raceCellIterations = 24

// raceSimScenario times exactly one run of the 1024-rank message-race
// cell's simulation stage (stacks off, as large-P campaigns run): its
// ns/op divided by 51,152 events is the per-event cost the scaling work
// is accountable for, compared against sim/32rank-stacks ns/op over its
// 1,600 events. The full cell (simulate + graph + embed, 4 runs) is
// timed by campaign-cell/1024rank-race.
func raceSimScenario() Scenario {
	return Scenario{
		Name:        "sim/1024rank-race",
		Description: "one 1024-rank message-race simulation (24 iterations, 50% ND, stacks off) — the campaign cell's per-run sim stage",
		Setup: func() (func() error, error) {
			pat, err := patterns.ByName("message_race")
			if err != nil {
				return nil, err
			}
			params := patterns.DefaultParams(1024)
			params.Iterations = raceCellIterations
			prog, err := pat.Program(params)
			if err != nil {
				return nil, err
			}
			cfg := sim.DefaultConfig(1024, 1)
			cfg.Nodes = 4
			cfg.NDPercent = 50
			cfg.CaptureStacks = false
			cfg.EventsPerRankHint = pat.EventsPerRankHint(params)
			meta := trace.Meta{Pattern: "message_race", Iterations: params.Iterations, MsgSize: params.MsgSize}
			adapted := sim.Adapt(prog)
			return func() error {
				tr, _, err := sim.Run(cfg, meta, adapted)
				if err != nil {
					return err
				}
				if tr.NumEvents() == 0 {
					return fmt.Errorf("empty trace")
				}
				return nil
			}, nil
		},
	}
}

// campaignCellScenario times one full 1024-rank message-race campaign
// cell — the acceptance workload for the large-P scaling work: a
// 4-run sample simulated, graphed (through the parallel trace→graph
// path; each run is far past its sequential threshold), and reduced
// to WL-2 pairwise distances. Before per-source channel rows this
// cell alone held 1024² channel entries per concurrent run.
func campaignCellScenario() Scenario {
	return Scenario{
		Name:        "campaign-cell/1024rank-race",
		Description: "one 1024-rank message-race campaign cell (4 runs, 24 iterations, 50% ND, graphs + WL-2 distances)",
		Setup: func() (func() error, error) {
			e := core.DefaultExperiment("message_race", 1024, 50)
			e.Runs = 4
			e.Iterations = raceCellIterations
			e.Nodes = 4
			e.CaptureStacks = false
			w := kernel.NewWL(2)
			return func() error {
				rs, err := e.Execute()
				if err != nil {
					return err
				}
				d := rs.Distances(w)
				if want := e.Runs * (e.Runs - 1) / 2; len(d) != want {
					return fmt.Errorf("distance sample has %d pairs, want %d", len(d), want)
				}
				return nil
			}, nil
		},
	}
}

// campaignMeshArchiveScenario times one archived campaign cell through
// campaign.RunCellArchive: every run simulates into a v2 archive file,
// teed into the WL push stream, and takes its order hash from the
// writer's held columns. Each rep archives into a fresh temporary
// directory and removes it, so no rep reads or overwrites another's
// files and nothing is left behind.
func campaignMeshArchiveScenario() Scenario {
	return Scenario{
		Name:        "campaign-cell/32rank-mesh-archive",
		Description: "one archived 32-rank unstructured-mesh campaign cell (20 runs, 8 iterations, 2 nodes, 50% ND, stacks on) through RunCellArchive: v2 writer, WL push stream, order hashes",
		Setup: func() (func() error, error) {
			g := campaign.Grid{
				Patterns: []string{"unstructured_mesh"}, Procs: []int{32}, Iterations: []int{8},
				Nodes: []int{2}, NDPercents: []float64{50}, Runs: 20, CaptureStacks: true,
			}
			spec := g.CellSpecs()[0]
			return func() error {
				dir, err := os.MkdirTemp("", "anacin-bench-archive-")
				if err != nil {
					return err
				}
				defer os.RemoveAll(dir)
				c := campaign.RunCellArchive(context.Background(), g, spec, 0, dir, trace.CodecOptions{})
				if c.Err != nil {
					return c.Err
				}
				if c.DistinctStructures < 1 {
					return fmt.Errorf("archived cell counted %d distinct structures", c.DistinctStructures)
				}
				return nil
			}, nil
		},
	}
}

// raceTrace simulates one run of the 1024-rank message-race cell
// (stacks on, so the callstack table/dictionary codecs are exercised)
// — the shared input of the trace-codec scenarios.
func raceTrace() (*trace.Trace, error) {
	pat, err := patterns.ByName("message_race")
	if err != nil {
		return nil, err
	}
	params := patterns.DefaultParams(1024)
	params.Iterations = raceCellIterations
	prog, err := pat.Program(params)
	if err != nil {
		return nil, err
	}
	cfg := sim.DefaultConfig(1024, 1)
	cfg.Nodes = 4
	cfg.NDPercent = 50
	cfg.CaptureStacks = true
	cfg.EventsPerRankHint = pat.EventsPerRankHint(params)
	meta := trace.Meta{Pattern: "message_race", Iterations: params.Iterations, MsgSize: params.MsgSize}
	tr, _, err := sim.Run(cfg, meta, sim.Adapt(prog))
	return tr, err
}

// traceEncodeScenario times binary encoding of a 1024-rank race trace
// (51,152 events) into a discarding counter: the v1/v2 pair prices the
// columnar rewrite — v2's per-rank delta columns and front-coded
// dictionary versus v1's interleaved varint rows. Each scenario also
// records its encoded size (and, for v2, the ratio against v1) through
// the Output hook, so a codec change that trades archive bloat for
// speed is visible — and gated — in the same report as the wall-clock.
func traceEncodeScenario(version int) Scenario {
	name := fmt.Sprintf("trace-encode/1024rank-v%d", version)
	desc := fmt.Sprintf("binary v%d encode of one 1024-rank message-race trace (%d iterations, stacks on)",
		version, raceCellIterations)
	encode := func(tr *trace.Trace, w *countingWriter) error {
		if version == 1 {
			return tr.WriteBinary(w)
		}
		return tr.WriteBinaryV2(w)
	}
	var tr *trace.Trace
	return Scenario{
		Name:        name,
		Description: desc,
		Setup: func() (func() error, error) {
			var err error
			if tr, err = raceTrace(); err != nil {
				return nil, err
			}
			return func() error {
				var n countingWriter
				if err := encode(tr, &n); err != nil {
					return err
				}
				if n == 0 {
					return fmt.Errorf("empty encoding")
				}
				return nil
			}, nil
		},
		Output: func() (int64, float64, error) {
			if tr == nil {
				return 0, 0, fmt.Errorf("output measured before setup")
			}
			var n, v1 countingWriter
			if err := encode(tr, &n); err != nil {
				return 0, 0, err
			}
			if version == 1 {
				return int64(n), 0, nil
			}
			if err := tr.WriteBinary(&v1); err != nil {
				return 0, 0, err
			}
			return int64(n), float64(n) / float64(v1), nil
		},
	}
}

// countingWriter discards writes, keeping only the byte count — enough
// to validate an encode without buffering 51k events of output per rep.
type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}

// traceDecodeGraphScenario times the stored-trace-to-graph path: the
// v1 pair decodes the full trace and builds the graph from it; the v2
// pair seeks the footer and streams rank cursors straight into the
// graph builder (graph.FromReader) — the `anacin replay` hot path.
func traceDecodeGraphScenario(version int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("trace-decode+graph/1024rank-v%d", version),
		Description: fmt.Sprintf("binary v%d decode + event-graph build of one 1024-rank message-race trace (%d iterations)",
			version, raceCellIterations),
		Setup: func() (func() error, error) {
			tr, err := raceTrace()
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if version == 1 {
				err = tr.WriteBinary(&buf)
			} else {
				err = tr.WriteBinaryV2(&buf)
			}
			if err != nil {
				return nil, err
			}
			data := buf.Bytes()
			want := tr.NumEvents()
			return func() error {
				var g *graph.Graph
				if version == 1 {
					dt, err := trace.ReadBinary(bytes.NewReader(data))
					if err != nil {
						return err
					}
					if g, err = graph.FromTrace(dt); err != nil {
						return err
					}
				} else {
					r, err := trace.NewReader(bytes.NewReader(data), int64(len(data)))
					if err != nil {
						return err
					}
					if g, err = graph.FromReader(r); err != nil {
						return err
					}
				}
				if g.NumNodes() != want {
					return fmt.Errorf("graph has %d nodes for %d events", g.NumNodes(), want)
				}
				return nil
			}, nil
		},
	}
}

// verifyScenario times the static verifier end to end at one process
// count: dual-policy symbolic elaboration of every registered pattern
// plus match/deadlock/count/metadata analysis — the `anacin verify`
// inner loop, which must stay in milliseconds so CI can gate on it for
// free.
func verifyScenario(procs int) Scenario {
	return Scenario{
		Name: fmt.Sprintf("verify/elaborate-%drank", procs),
		Description: fmt.Sprintf("static verification of all registered patterns at %d ranks (dual elaboration + analysis)",
			procs),
		Setup: func() (func() error, error) {
			opts := verify.Options{Procs: []int{procs}, Iters: []int{1}}
			return func() error {
				findings, summaries := verify.VerifyAll(opts)
				if n := verify.Gating(findings); n > 0 {
					return fmt.Errorf("%d gating findings", n)
				}
				if len(summaries) == 0 {
					return fmt.Errorf("no verified configurations")
				}
				return nil
			}, nil
		},
	}
}

// figureScenario times one paper-figure runner end to end (quick
// workload, no artifact files).
func figureScenario(id string) Scenario {
	return Scenario{
		Name:        "figure/" + id,
		Description: fmt.Sprintf("paper figure %s end to end (simulate, embed, check)", id),
		Setup: func() (func() error, error) {
			runner, ok := experiments.All()[id]
			if !ok {
				return nil, fmt.Errorf("unknown figure %q", id)
			}
			return func() error {
				res, err := runner(experiments.Options{Quick: true})
				if err != nil {
					return err
				}
				for _, c := range res.Checks {
					if !c.OK {
						return fmt.Errorf("shape check %s failed: %s", c.Name, c.Detail)
					}
				}
				return nil
			}, nil
		},
	}
}

// AllScenarios returns the full scenario set in its canonical order.
func AllScenarios() []Scenario {
	return []Scenario{
		simScenario(32, simScenarioIterations, true),
		simScenario(32, simScenarioIterations, false),
		// The per-event acceptance pair (sim/32rank-stacks vs
		// sim/1024rank-race) runs back to back, before the heavy 4096-rank
		// scenarios: a long bench run heats the machine, and comparing
		// numbers measured at different throttle states would skew the
		// per-event ratio either way.
		raceSimScenario(),
		campaignCellScenario(),
		campaignMeshArchiveScenario(),
		traceToGraphScenario(32, simScenarioIterations),
		traceEncodeScenario(1),
		traceEncodeScenario(2),
		traceDecodeGraphScenario(1),
		traceDecodeGraphScenario(2),
		wlFeaturesScenario("wl-features/h2/r32", 2, 32),
		dotScenario(),
		gramScenario(),
		sliceProfileScenario(),
		verifyScenario(32),
		figureScenario("fig2"),
		largePSimScenario("stencil2d", "stencil", 256, 25),
		largePSimScenario("stencil2d", "stencil", 1024, 25),
		largePSimScenario("stencil2d", "stencil", 4096, 25),
		largePSimScenario("collective_tree", "collectives", 256, 25),
		largePSimScenario("collective_tree", "collectives", 1024, 25),
		largePSimScenario("collective_tree", "collectives", 4096, 25),
		largePSimScenario("master_worker", "masterworker", 256, 100),
		largePSimScenario("master_worker", "masterworker", 1024, 100),
		largePSimScenario("master_worker", "masterworker", 4096, 100),
	}
}

// quickNames is the reduced set CI runs on every push: the innermost
// kernel, the isolated dot-product stage, the serial Gram build, one
// end-to-end figure, both campaign cells (the archived one is the only
// scenario on the v2 stream writer's archiving path), and the 1024-rank
// tier of the large-P family (the 4096-rank tier stays full-set-only
// for CI wall-clock).
// Large-P scenarios participate in the same regression gate as the
// core set: >25% min-wall-clock slowdowns (the CI statistic) and
// allocs/op growth both fail.
var quickNames = []string{
	"sim/32rank-stacks", "sim/32rank-nostacks", "trace-to-graph/32rank",
	"wl-features/h2/r32", "dot/wl-h2", "gram/w1", "figure/fig2",
	"verify/elaborate-32rank",
	"sim/1024rank-stencil", "sim/1024rank-collectives", "sim/1024rank-masterworker",
	"sim/1024rank-race", "campaign-cell/1024rank-race", "campaign-cell/32rank-mesh-archive",
	"trace-encode/1024rank-v1", "trace-encode/1024rank-v2",
	"trace-decode+graph/1024rank-v1", "trace-decode+graph/1024rank-v2",
}

// ScenarioNames lists the full set's names in canonical order.
func ScenarioNames() []string {
	all := AllScenarios()
	names := make([]string, len(all))
	for i, sc := range all {
		names[i] = sc.Name
	}
	return names
}

// Select resolves a -scenarios spec: "all", "quick", or a
// comma-separated list of names (order preserved, duplicates
// rejected).
func Select(spec string) ([]Scenario, error) {
	switch spec {
	case "", "all":
		return AllScenarios(), nil
	case "quick":
		return Select(strings.Join(quickNames, ","))
	}
	byName := make(map[string]Scenario)
	for _, sc := range AllScenarios() {
		byName[sc.Name] = sc
	}
	var out []Scenario
	taken := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		sc, ok := byName[name]
		if !ok {
			known := ScenarioNames()
			sort.Strings(known)
			return nil, fmt.Errorf("perf: unknown scenario %q (known: %s)", name, strings.Join(known, ", "))
		}
		if taken[name] {
			return nil, fmt.Errorf("perf: scenario %q listed twice", name)
		}
		taken[name] = true
		out = append(out, sc)
	}
	return out, nil
}
