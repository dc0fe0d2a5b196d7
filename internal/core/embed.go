package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// Embedded execution: each run reduces, inside the run, to what a
// distance sample needs — its kernel embedding, its trace order hash
// and its simulation stats — and keeps neither its trace nor its graph
// past the run. A campaign cell therefore holds one embedding per run,
// whatever the run length. Without an archive a run reduces in memory
// (sim → *Trace → *Graph → features) and writes no file. With one, the
// run is one simulation pass whose events are teed (sim.Config.Sink)
// into a v2 trace file (trace.StreamWriter) and, under a streaming
// kernel, into the kernel's push stream (kernel.WLStream), so no full
// *trace.Trace or *graph.Graph exists and the archive is never decoded
// to embed it: the run's peak memory is the encoder's column buffers
// plus the kernel's refinement window. The writer, which holds a
// rank's columns until the rank reaches one segment's worth of events,
// folds the order hash from them at Close; only a run with a rank that
// long reads the closed file back (Reader.OrderHash) for it. Under a
// kernel that cannot stream, an archived run tees into an in-memory
// *trace.Trace instead and reduces it as an unarchived run does.
// Either way the embeddings, order hashes, and every distance derived
// from them are byte-identical to the RunSet of ExecuteContext (pinned
// by tests).

// EmbeddedRunSet holds the reduced runs of one experiment: embeddings
// instead of graphs, order hashes instead of traces.
type EmbeddedRunSet struct {
	Experiment Experiment
	// KernelName names the kernel that produced Features.
	KernelName string
	// Features[i] is run i's embedding.
	Features []kernel.FeatureVector
	// OrderHashes[i] is run i's trace order hash (the DistinctStructures
	// input).
	OrderHashes []uint64
	// Stats[i] summarizes run i's simulation.
	Stats []*sim.Stats
	// TracePaths[i] is run i's archived v2 trace file; nil when the
	// runs are not archived.
	TracePaths []string
}

// StartEmbedded resolves the experiment for execution and returns its
// Sample together with the EmbeddedRunSet its runs fill: run i
// simulates with seed BaseSeed+i and reduces to its embedding under k
// (nil = WL depth 2), order hash and stats in slot i. When archiveDir
// is non-empty (it is created here), run i streams into
// <archiveDir>/run-<i>.anctr, recorded in TracePaths, and is embedded
// from the same simulation pass; otherwise it reduces in memory and
// writes no file.
func (e Experiment) StartEmbedded(ctx context.Context, k kernel.Kernel, archiveDir string) (*Sample, *EmbeddedRunSet, error) {
	if k == nil {
		k = kernel.NewWL(2)
	}
	pat, program, err := e.program()
	if err != nil {
		return nil, nil, err
	}
	ers := &EmbeddedRunSet{
		Experiment:  e,
		KernelName:  k.Name(),
		Features:    make([]kernel.FeatureVector, e.Runs),
		OrderHashes: make([]uint64, e.Runs),
		Stats:       make([]*sim.Stats, e.Runs),
	}
	if archiveDir != "" {
		if err := os.MkdirAll(archiveDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("core: archive dir: %w", err)
		}
		ers.TracePaths = make([]string, e.Runs)
	}

	s := newSample(ctx, func(ctx context.Context, i int) error {
		if archiveDir == "" {
			tr, g, stats, err := e.materialize(ctx, i, pat, program)
			if err != nil {
				return err
			}
			ers.Features[i], ers.OrderHashes[i], ers.Stats[i] = k.Features(g), tr.OrderHash(), stats
			return nil
		}
		path := filepath.Join(archiveDir, fmt.Sprintf("run-%d.anctr", i))
		if sk, ok := k.(kernel.StreamingKernel); ok {
			ws := sk.NewStream(e.Procs)
			stats, oh, held, err := e.streamRun(ctx, i, pat, program, path, ws)
			if err != nil {
				return err
			}
			fv, err := ws.Finish()
			if err != nil {
				return err
			}
			if !held {
				if oh, err = orderHashFile(path); err != nil {
					return err
				}
			}
			ers.Features[i], ers.OrderHashes[i], ers.Stats[i] = fv, oh, stats
		} else {
			tr := trace.NewWithCapacity(e.meta(i), e.config(i, pat).EventsPerRankHint)
			stats, _, _, err := e.streamRun(ctx, i, pat, program, path, tr)
			if err != nil {
				return err
			}
			g, err := graph.FromTrace(tr)
			if err != nil {
				return err
			}
			ers.Features[i], ers.OrderHashes[i], ers.Stats[i] = k.Features(g), tr.OrderHash(), stats
		}
		ers.TracePaths[i] = path
		return nil
	})
	return s, ers, nil
}

// streamRun simulates run i with its events streaming into a v2 trace
// file at path and, when tee is non-nil, into tee as well (in the same
// scheduler order). It compresses inline on the goroutine that runs
// it, so whatever schedules the runs is the one level of parallelism
// and a failed run leaves no codec goroutine behind. It returns the
// writer's order hash (StreamWriter.OrderHash) when held reports true;
// otherwise some rank flushed a segment and the hash is the file's.
func (e *Experiment) streamRun(ctx context.Context, i int, pat patterns.Pattern, program sim.Program, path string, tee trace.EventSink) (stats *sim.Stats, oh uint64, held bool, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, false, err
	}
	// The archived file decodes to exactly the trace ExecuteContext
	// would have materialized, since both carry e.meta(i). (The bytes
	// themselves can differ from a rank-major WriteBinaryV2 of that
	// trace: the v2 callstack dictionary numbers stacks in first-seen
	// order, and the scheduler interleaves ranks. Streamed bytes are
	// still deterministic in the seed.)
	meta := e.meta(i)
	cfg := e.config(i, pat)
	sw := trace.NewStreamWriterOptions(f, meta, e.Codec)
	cfg.Sink = sw
	if tee != nil {
		cfg.Sink = teeSink{sw, tee}
	}
	_, stats, err = sim.RunContext(ctx, cfg, meta, program)
	if err == nil {
		if err = sw.Close(); err != nil {
			err = fmt.Errorf("encode %s: %w", path, err)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// A partial file must not stay in the content-addressed archive.
		os.Remove(path)
		return nil, 0, false, err
	}
	oh, held = sw.OrderHash()
	return stats, oh, held, nil
}

// teeSink hands every event to both sinks, in order.
type teeSink [2]trace.EventSink

func (t teeSink) Append(ev trace.Event) {
	t[0].Append(ev)
	t[1].Append(ev)
}

// orderHashFileReads counts orderHashFile calls, so tests can pin
// which archived runs read their file back.
var orderHashFileReads atomic.Int64

// orderHashFile returns the order hash of the archived trace at path:
// the fallback for a run whose writer flushed a segment before Close.
func orderHashFile(path string) (uint64, error) {
	orderHashFileReads.Add(1)
	r, err := trace.OpenReader(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return r.OrderHash()
}

// Distances returns the pairwise kernel-distance sample of the
// embeddings — the same sample RunSet.Distances draws from graphs,
// byte-identical for equal embeddings.
func (ers *EmbeddedRunSet) Distances() []float64 {
	return kernel.MatrixFromFeatures(ers.KernelName, ers.Features).PairwiseDistances()
}

// DistanceSummary summarizes the pairwise distances.
func (ers *EmbeddedRunSet) DistanceSummary() analysis.Summary {
	return analysis.Summarize(ers.Distances())
}

// DistinctStructures reports how many distinct communication structures
// the sample contains, matching RunSet.DistinctStructures.
func (ers *EmbeddedRunSet) DistinctStructures() int {
	set := make(map[uint64]bool, len(ers.OrderHashes))
	for _, oh := range ers.OrderHashes {
		set[oh] = true
	}
	return len(set)
}
