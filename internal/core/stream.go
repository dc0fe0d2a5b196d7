package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/par"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// Streaming execution: each run simulates straight into a v2 trace file
// (sim.Config.Sink → trace.StreamWriter), then embeds by streaming the
// file back through a trace.Reader. At no point does a full
// *trace.Trace or *graph.Graph exist, so a run's peak memory is the
// encoder's column buffers plus the kernel's refinement window — flat
// in run length for balanced patterns. The embeddings, order hashes,
// and therefore every distance derived from them are byte-identical to
// the materializing ExecuteContext pipeline (pinned by tests).

// StreamRunSet holds the artifacts of a streaming execution. It is the
// flat-memory counterpart of RunSet: embeddings instead of graphs,
// order hashes instead of traces.
type StreamRunSet struct {
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
	// TracePaths[i] is run i's archived v2 trace file; empty when the
	// execution used an unarchived scratch directory.
	TracePaths []string
}

// ExecuteStreamContext runs the experiment's sample through the
// streaming pipeline, embedding every run under k. When archiveDir is
// non-empty, each run's v2 trace is kept there as run-<i>.anctr
// (the directory is created if needed) and recorded in TracePaths;
// otherwise traces live in a scratch directory that is removed before
// returning. Cancellation and failure semantics match ExecuteContext.
func (e Experiment) ExecuteStreamContext(ctx context.Context, k kernel.Kernel, archiveDir string) (*StreamRunSet, error) {
	s, srs, err := e.StartStream(ctx, k, archiveDir)
	if err != nil {
		return nil, err
	}
	par.ForEach(e.Workers, e.Runs, s.Run)
	if err := s.Finish(); err != nil {
		return nil, err
	}
	return srs, nil
}

// StartStream is Start on the streaming pipeline: the sample's run i
// simulates into a v2 trace file and is embedded under k (nil = WL
// depth 2) by streaming the file back, filling slot i of the returned
// StreamRunSet. The archive directory is created here, or, without
// one, a scratch directory that Finish removes.
func (e Experiment) StartStream(ctx context.Context, k kernel.Kernel, archiveDir string) (*Sample, *StreamRunSet, error) {
	if k == nil {
		k = kernel.NewWL(2)
	}
	pat, program, err := e.program()
	if err != nil {
		return nil, nil, err
	}

	dir := archiveDir
	archived := dir != ""
	var cleanup func()
	if archived {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("core: archive dir: %w", err)
		}
	} else {
		if dir, err = os.MkdirTemp("", "anacin-stream-*"); err != nil {
			return nil, nil, fmt.Errorf("core: scratch dir: %w", err)
		}
		cleanup = func() { os.RemoveAll(dir) }
	}

	srs := &StreamRunSet{
		Experiment:  e,
		KernelName:  k.Name(),
		Features:    make([]kernel.FeatureVector, e.Runs),
		OrderHashes: make([]uint64, e.Runs),
		Stats:       make([]*sim.Stats, e.Runs),
	}
	if archived {
		srs.TracePaths = make([]string, e.Runs)
	}

	s := newSample(ctx, func(ctx context.Context, i int) error {
		path := filepath.Join(dir, fmt.Sprintf("run-%d.anctr", i))
		stats, err := e.streamRun(ctx, i, pat, program, path)
		if err != nil {
			return err
		}
		fv, oh, err := embedTraceFile(k, path)
		if err != nil {
			return err
		}
		if !archived {
			os.Remove(path)
		} else {
			srs.TracePaths[i] = path
		}
		srs.Features[i], srs.OrderHashes[i], srs.Stats[i] = fv, oh, stats
		return nil
	}, cleanup)
	return s, srs, nil
}

// streamRun simulates run i with its events streaming into a v2 trace
// file at path. It compresses inline on the goroutine that runs it, so
// whatever schedules the runs is the one level of parallelism and a
// failed run leaves no codec goroutine behind.
func (e *Experiment) streamRun(ctx context.Context, i int, pat patterns.Pattern, program sim.Program, path string) (*sim.Stats, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	// Meta must match what the materializing pipeline's trace carries,
	// so the archived file decodes to exactly the trace ExecuteContext
	// would have materialized. (The bytes themselves can differ from a
	// rank-major WriteBinaryV2 of that trace: the v2 callstack
	// dictionary numbers stacks in first-seen order, and the scheduler
	// interleaves ranks. Streamed bytes are still deterministic in the
	// seed.)
	meta := trace.Meta{
		Pattern: e.Pattern, Iterations: e.Iterations, MsgSize: e.MsgSize,
		Procs: e.Procs, Nodes: e.Nodes, NDPercent: e.NDPercent,
		Seed: e.BaseSeed + int64(i),
	}
	cfg := e.config(i, pat)
	sw := trace.NewStreamWriterOptions(f, meta, e.Codec)
	cfg.Sink = sw
	_, stats, err := sim.RunContext(ctx, cfg, meta, program)
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
		return nil, err
	}
	return stats, nil
}

// embedTraceFile opens one archived trace and reduces it to its
// embedding and order hash.
func embedTraceFile(k kernel.Kernel, path string) (kernel.FeatureVector, uint64, error) {
	r, err := trace.OpenReader(path)
	if err != nil {
		return kernel.FeatureVector{}, 0, err
	}
	defer r.Close()
	fv, err := kernel.FeaturesFromReader(k, r)
	if err != nil {
		return kernel.FeatureVector{}, 0, err
	}
	oh, err := r.OrderHash()
	if err != nil {
		return kernel.FeatureVector{}, 0, err
	}
	return fv, oh, nil
}

// Distances returns the pairwise kernel-distance sample of the
// streamed embeddings — the same sample RunSet.Distances draws from
// graphs, byte-identical for equal embeddings.
func (srs *StreamRunSet) Distances() []float64 {
	return kernel.MatrixFromFeatures(srs.KernelName, srs.Features).PairwiseDistances()
}

// DistanceSummary summarizes the pairwise distances.
func (srs *StreamRunSet) DistanceSummary() analysis.Summary {
	return analysis.Summarize(srs.Distances())
}

// DistinctStructures reports how many distinct communication structures
// the sample contains, matching RunSet.DistinctStructures.
func (srs *StreamRunSet) DistinctStructures() int {
	set := make(map[uint64]bool, len(srs.OrderHashes))
	for _, oh := range srs.OrderHashes {
		set[oh] = true
	}
	return len(set)
}
