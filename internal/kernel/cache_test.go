package kernel

import (
	"reflect"
	"sync"
	"testing"

	"github.com/anacin-go/anacinx/internal/graph"
)

func TestCacheFeaturesMemoizes(t *testing.T) {
	g := meshGraph(t, 8, 3, 100, 1)
	k := NewWL(2)
	c := NewCache()
	direct := k.Features(g)
	first := c.Features(k, g)
	if !reflect.DeepEqual(first, direct) {
		t.Fatal("cached embedding differs from direct embedding")
	}
	if c.Len() != 1 || c.Misses() != 1 || c.Hits() != 0 {
		t.Fatalf("after first call: len=%d hits=%d misses=%d", c.Len(), c.Hits(), c.Misses())
	}
	second := c.Features(k, g)
	if !reflect.DeepEqual(second, direct) {
		t.Fatal("hit returned a different embedding")
	}
	if c.Len() != 1 || c.Hits() != 1 {
		t.Fatalf("after second call: len=%d hits=%d", c.Len(), c.Hits())
	}
}

// TestCacheContentAddressed pins the property the pipeline relies on:
// a structurally identical graph that is a distinct object — here the
// whole-graph "slice" SliceByLamport(1) reconstructs — hits the entry
// the original graph populated.
func TestCacheContentAddressed(t *testing.T) {
	g := meshGraph(t, 8, 3, 100, 5)
	k := NewWL(2)
	c := NewCache()
	want := c.Features(k, g)
	whole, err := g.SliceByLamport(1)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Features(k, whole[0])
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reconstructed whole graph embedded differently")
	}
	if c.Hits() != 1 || c.Len() != 1 {
		t.Fatalf("reconstructed graph missed the cache: len=%d hits=%d misses=%d",
			c.Len(), c.Hits(), c.Misses())
	}
}

// TestCacheKeysByKernel: different kernels (and differently-configured
// WL variants) must not share entries.
func TestCacheKeysByKernel(t *testing.T) {
	g := meshGraph(t, 6, 2, 100, 3)
	c := NewCache()
	kernels := []Kernel{NewWL(1), NewWL(2), WL{H: 2, Directed: false},
		WL{H: 2, Directed: true, Seed: 0xbeef}, VertexHistogram{}, EdgeHistogram{}}
	for _, k := range kernels {
		if got, want := c.Features(k, g), k.Features(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached embedding differs", k.Name())
		}
	}
	if c.Len() != len(kernels) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(kernels))
	}
}

// TestCacheDistinguishesGraphs: graphs that differ only in wiring (same
// label multiset) must get distinct entries — the fingerprint covers
// edges, not just labels.
func TestCacheDistinguishesGraphs(t *testing.T) {
	g1 := meshGraph(t, 8, 4, 100, 1)
	g2 := meshGraph(t, 8, 4, 100, 2) // different match order, same events
	c := NewCache()
	k := NewWL(2)
	f1 := c.Features(k, g1)
	f2 := c.Features(k, g2)
	if c.Len() != 2 {
		t.Fatalf("two distinct graphs share a cache entry (len=%d)", c.Len())
	}
	if reflect.DeepEqual(f1, f2) {
		t.Fatal("distinct runs produced identical embeddings — workload not ND?")
	}
}

func TestNilCacheComputes(t *testing.T) {
	g := meshGraph(t, 6, 2, 100, 7)
	k := NewWL(2)
	var c *Cache
	if got, want := c.Features(k, g), k.Features(g); !reflect.DeepEqual(got, want) {
		t.Fatal("nil cache returned a different embedding")
	}
	if c.Len() != 0 || c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("nil cache reported non-zero stats")
	}
	m := c.NewMatrix(k, []*graph.Graph{g, g})
	if m.Len() != 2 || m.Distance(0, 1) != 0 {
		t.Fatalf("nil-cache matrix wrong: len=%d d=%v", m.Len(), m.Distance(0, 1))
	}
}

// TestCacheMatrixMatchesUncached pins the cached Gram build
// float-for-float to the uncached one, cold and with a pre-warmed
// cache.
func TestCacheMatrixMatchesUncached(t *testing.T) {
	graphs := make([]*graph.Graph, 7)
	for i := range graphs {
		graphs[i] = meshGraph(t, 6, 3, 100, int64(i+1))
	}
	// Duplicate one graph so the cache sees a same-content collision
	// within a single matrix build.
	graphs = append(graphs, graphs[0])
	k := NewWL(2)
	want := NewMatrix(k, graphs)
	c := NewCache()
	got := c.NewMatrix(k, graphs)
	if !reflect.DeepEqual(got.K, want.K) {
		t.Fatal("cached matrix diverges from uncached")
	}
	// 8 graph positions, 7 distinct contents.
	if c.Len() != 7 {
		t.Fatalf("cache holds %d embeddings, want 7", c.Len())
	}
	// Second build must be all hits, no new entries.
	misses := c.Misses()
	again := c.NewMatrix(k, graphs)
	if !reflect.DeepEqual(again.K, want.K) {
		t.Fatal("warm rebuild diverges")
	}
	if c.Misses() != misses {
		t.Fatal("warm rebuild recomputed embeddings")
	}
}

func TestCachePairwiseDistances(t *testing.T) {
	graphs := make([]*graph.Graph, 5)
	for i := range graphs {
		graphs[i] = meshGraph(t, 6, 2, 100, int64(i+1))
	}
	k := NewWL(2)
	want := PairwiseDistances(k, graphs)
	c := NewCache()
	if got := c.PairwiseDistances(k, graphs); !reflect.DeepEqual(got, want) {
		t.Fatal("cached pairwise distances diverge")
	}
	if got := c.PairwiseDistances(k, graphs); !reflect.DeepEqual(got, want) {
		t.Fatal("warm cached pairwise distances diverge")
	}
}

// TestCacheConcurrent hammers one cache from many goroutines under
// -race: concurrent misses on the same key must stay correct.
func TestCacheConcurrent(t *testing.T) {
	graphs := make([]*graph.Graph, 4)
	for i := range graphs {
		graphs[i] = meshGraph(t, 6, 2, 100, int64(i+1))
	}
	k := NewWL(2)
	want := make([]FeatureVector, len(graphs))
	for i, g := range graphs {
		want[i] = k.Features(g)
	}
	c := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (w + rep) % len(graphs)
				if got := c.Features(k, graphs[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: graph %d embedding diverged", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != len(graphs) {
		t.Fatalf("cache len = %d, want %d", c.Len(), len(graphs))
	}
}

// TestNewMatrixDegenerateSizes pins the explicit n==0 / n==1 paths,
// uncached and through the cache entry point.
func TestNewMatrixDegenerateSizes(t *testing.T) {
	k := NewWL(2)
	m := NewMatrix(k, nil)
	if m.Len() != 0 || m.KernelName != k.Name() {
		t.Fatalf("empty matrix: len=%d name=%q", m.Len(), m.KernelName)
	}
	if got := m.PairwiseDistances(); len(got) != 0 {
		t.Fatalf("empty matrix has %d pairwise distances", len(got))
	}
	if err := m.CheckPSD(0); err != nil {
		t.Fatalf("empty matrix not PSD: %v", err)
	}

	g := meshGraph(t, 4, 2, 0, 1)
	c := NewCache()
	one := c.NewMatrix(k, []*graph.Graph{g})
	if one.Len() != 1 || one.K[0][0] <= 0 {
		t.Fatalf("single-graph matrix: %+v", one)
	}
	if one.Distance(0, 0) != 0 {
		t.Fatalf("self distance %v", one.Distance(0, 0))
	}
	if c.Len() != 1 {
		t.Fatalf("single-graph build cached %d embeddings", c.Len())
	}
	// The n==1 path must agree with the general path's diagonal.
	full := NewMatrix(k, []*graph.Graph{g, g})
	if one.K[0][0] != full.K[0][0] {
		t.Fatalf("n==1 self-similarity %v != general path %v", one.K[0][0], full.K[0][0])
	}
}
