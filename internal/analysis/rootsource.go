package analysis

import (
	"fmt"
	"sort"

	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/par"
)

// Root-source identification, the advanced-level analysis of the course
// module (paper Use Case 3 / Fig. 8): slice every run's event graph
// along logical time, find the slices where runs disagree most (high
// per-slice kernel distance), and rank the callstacks of the receive
// events inside those slices. Call-paths that keep appearing in
// high-non-determinism regions are the likely root sources.

// SliceProfile is the non-determinism profile of a set of runs over
// logical time: for each of `Slices` logical-time windows, the mean
// kernel distance of that window's subgraphs across all run pairs.
type SliceProfile struct {
	KernelName string
	// MeanDistance[s] is the average pairwise kernel distance of slice s.
	MeanDistance []float64
	// MaxDistance[s] is the largest pairwise distance of slice s.
	MaxDistance []float64
}

// NewSliceProfile computes the profile of the given runs' event graphs
// under k, using `slices` logical-time windows. At least two graphs and
// one slice are required.
func NewSliceProfile(k kernel.Kernel, graphs []*graph.Graph, slices int) (*SliceProfile, error) {
	return NewSliceProfileCached(k, graphs, slices, nil)
}

// NewSliceProfileCached is NewSliceProfile with an optional embedding
// cache (nil computes every embedding). A pipeline that has already
// embedded the whole graphs — e.g. for the violin distance sample —
// shares its cache here so the slices=1 coarsening fallback (which
// reconstructs the full graphs) reuses them, and repeated profiles of
// one run set pay for each slice embedding once.
//
// Slice columns are independent, so the per-slice Gram builds fan out
// across the machine's cores (par.ForEach); each value lands at a
// fixed slice index, so the profile is identical to the sequential
// result.
func NewSliceProfileCached(k kernel.Kernel, graphs []*graph.Graph, slices int, cache *kernel.Cache) (*SliceProfile, error) {
	if len(graphs) < 2 {
		return nil, fmt.Errorf("analysis: slice profile needs >= 2 runs, got %d", len(graphs))
	}
	if slices < 1 {
		return nil, fmt.Errorf("analysis: slice count %d < 1", slices)
	}
	// Slice every run once, then build one small Gram matrix per slice
	// index.
	sliced := make([][]*graph.Graph, len(graphs))
	for i, g := range graphs {
		s, err := g.SliceByLamport(slices)
		if err != nil {
			return nil, err
		}
		sliced[i] = s
	}
	p := &SliceProfile{
		KernelName:   k.Name(),
		MeanDistance: make([]float64, slices),
		MaxDistance:  make([]float64, slices),
	}
	par.ForEach(0, slices, func(s int) {
		// One worker per slice column already saturates the cores, so
		// each column embeds serially: one level of parallelism.
		feats := make([]kernel.FeatureVector, len(graphs))
		for i := range graphs {
			feats[i] = cache.Features(k, sliced[i][s])
		}
		dists := kernel.MatrixFromFeatures(k.Name(), feats).PairwiseDistances()
		sum, max := 0.0, 0.0
		for _, d := range dists {
			sum += d
			if d > max {
				max = d
			}
		}
		p.MeanDistance[s] = sum / float64(len(dists))
		p.MaxDistance[s] = max
	})
	return p, nil
}

// HighSlices returns the indices of slices whose mean distance is at or
// above the q-th quantile of the nonzero profile (e.g. q=0.75 keeps the
// top quartile). If every slice has zero distance — a fully
// deterministic workload — it returns nil.
func (p *SliceProfile) HighSlices(q float64) []int {
	var nonzero []float64
	for _, d := range p.MeanDistance {
		if d > 0 {
			nonzero = append(nonzero, d)
		}
	}
	if len(nonzero) == 0 {
		return nil
	}
	sort.Float64s(nonzero)
	threshold := Quantile(nonzero, q)
	var out []int
	for s, d := range p.MeanDistance {
		if d > 0 && d >= threshold {
			out = append(out, s)
		}
	}
	return out
}

// CallstackFrequency is one bar of the Fig. 8 chart: a call-path and
// how often it appears among receive events inside high-ND slices,
// normalized so the most frequent call-path has frequency 1.
type CallstackFrequency struct {
	Callstack string
	Count     int
	// Frequency is Count normalized by the maximum count.
	Frequency float64
}

// RankCallstacks counts the callstacks of receive events inside the
// given slices of every run and returns them sorted by descending
// frequency (ties broken by callstack string for determinism).
func RankCallstacks(graphs []*graph.Graph, slices int, highSlices []int) ([]CallstackFrequency, error) {
	if slices < 1 {
		return nil, fmt.Errorf("analysis: slice count %d < 1", slices)
	}
	want := make(map[int]bool, len(highSlices))
	for _, s := range highSlices {
		if s < 0 || s >= slices {
			return nil, fmt.Errorf("analysis: high slice %d out of range [0,%d)", s, slices)
		}
		want[s] = true
	}
	counts := make(map[string]int)
	for _, g := range graphs {
		sl, err := g.SliceByLamport(slices)
		if err != nil {
			return nil, err
		}
		for s := range want {
			for _, key := range sl[s].SliceCallstacks() {
				counts[key]++
			}
		}
	}
	out := make([]CallstackFrequency, 0, len(counts))
	maxCount := 0
	for key, c := range counts {
		out = append(out, CallstackFrequency{Callstack: key, Count: c})
		if c > maxCount {
			maxCount = c
		}
	}
	for i := range out {
		out[i].Frequency = float64(out[i].Count) / float64(maxCount)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Callstack < out[j].Callstack
	})
	return out, nil
}

// IdentifyRootSources is the end-to-end Fig. 8 analysis: profile the
// runs, select the top-quartile slices, and rank callstacks within
// them. It returns the profile alongside the ranking so callers can
// show both.
//
// Slicing trades localization precision against sensitivity: when the
// events of one race spread across slices (e.g. senders idle at low
// logical time while the receiver drains at high logical time), the
// send→recv edges cross slice boundaries and every slice looks locally
// identical even though the whole graphs differ. When that happens —
// a positive whole-graph distance but an all-zero profile — the
// function coarsens the slicing (halving the count) until some slice
// registers the divergence; at slices=1 the "slice" is the whole graph
// and the ranking degrades gracefully to "all wildcard receives".
func IdentifyRootSources(k kernel.Kernel, graphs []*graph.Graph, slices int) (*SliceProfile, []CallstackFrequency, error) {
	return IdentifyRootSourcesCached(k, graphs, slices, nil)
}

// IdentifyRootSourcesCached is IdentifyRootSources with an optional
// embedding cache shared with the rest of the pipeline (see
// NewSliceProfileCached); core.RunSet.RootSources threads the run
// set's cache through here.
func IdentifyRootSourcesCached(k kernel.Kernel, graphs []*graph.Graph, slices int, cache *kernel.Cache) (*SliceProfile, []CallstackFrequency, error) {
	for {
		profile, err := NewSliceProfileCached(k, graphs, slices, cache)
		if err != nil {
			return nil, nil, err
		}
		high := profile.HighSlices(0.75)
		if len(high) == 0 && slices > 1 {
			slices /= 2
			continue
		}
		ranked, err := RankCallstacks(graphs, slices, high)
		if err != nil {
			return nil, nil, err
		}
		return profile, ranked, nil
	}
}
