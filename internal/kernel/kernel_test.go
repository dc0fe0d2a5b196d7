package kernel

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// meshTrace runs a small randomized-neighbor exchange whose match order
// shifts under ND: each rank sends `rounds` tagged messages to its ring
// neighbors and receives 2*rounds with AnySource.
func meshTrace(t testing.TB, procs, rounds int, nd float64, seed int64) *trace.Trace {
	t.Helper()
	cfg := sim.DefaultConfig(procs, seed)
	cfg.NDPercent = nd
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: "mini-mesh"}, func(r *sim.Rank) {
		p := r.Size()
		left, right := (r.Rank()-1+p)%p, (r.Rank()+1)%p
		for i := 0; i < rounds; i++ {
			r.SendSize(left, i, 1)
			r.SendSize(right, i, 1)
		}
		for i := 0; i < 2*rounds; i++ {
			r.Recv(sim.AnySource, sim.AnyTag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func meshGraph(t testing.TB, procs, rounds int, nd float64, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.FromTrace(meshTrace(t, procs, rounds, nd, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var allKernels = []Kernel{NewWL(0), NewWL(1), NewWL(2), NewWL(3), WL{H: 2, Directed: false}, VertexHistogram{}, EdgeHistogram{}, ShortestPath{}}

func TestKernelNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, k := range allKernels {
		name := k.Name()
		if name == "" || seen[name] {
			t.Errorf("kernel name %q empty or duplicated", name)
		}
		seen[name] = true
	}
	if NewWL(2).Name() != "wlst-h2d" {
		t.Errorf("WL name = %q", NewWL(2).Name())
	}
}

func TestNewWLPanicsOnNegativeDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWL(-1) did not panic")
		}
	}()
	NewWL(-1)
}

func TestIdenticalGraphsDistanceZero(t *testing.T) {
	g1 := meshGraph(t, 6, 3, 100, 7)
	g2 := meshGraph(t, 6, 3, 100, 7) // same seed → identical run
	for _, k := range allKernels {
		if d := Distance(k, g1, g2); d != 0 {
			t.Errorf("%s: identical graphs have distance %v", k.Name(), d)
		}
		// Normalized distance goes through a cosine, so identical
		// graphs can land within float rounding of zero.
		if d := NormalizedDistance(k, g1, g2); d > 1e-6 {
			t.Errorf("%s: identical graphs have normalized distance %v", k.Name(), d)
		}
	}
}

// TestSymmetricRaceIsIsomorphic is the isomorphism caveat of
// docs/IMPLEMENTATION.md: in a single-round symmetric message race,
// swapping which sender's message lands first is a graph automorphism,
// so two runs with different match orders (different order hashes)
// embed identically at every WL depth and their distance is zero.
func TestSymmetricRaceIsIsomorphic(t *testing.T) {
	race := func(seed int64) *trace.Trace {
		cfg := sim.DefaultConfig(4, seed)
		cfg.NDPercent = 100
		tr, _, err := sim.Run(cfg, trace.Meta{Pattern: "race"}, func(r *sim.Rank) {
			if r.Rank() == 0 {
				for i := 1; i < r.Size(); i++ {
					r.Recv(sim.AnySource, sim.AnyTag)
				}
				return
			}
			r.SendSize(0, 0, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	base := race(1)
	var other *trace.Trace
	for seed := int64(2); seed < 64 && other == nil; seed++ {
		if tr := race(seed); tr.OrderHash() != base.OrderHash() {
			other = tr
		}
	}
	if other == nil {
		t.Fatal("no seed changed the match order")
	}
	a, err := graph.FromTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.FromTrace(other)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []WL{NewWL(0), NewWL(1), NewWL(2), NewWL(3), {H: 3, Directed: false}} {
		if !reflect.DeepEqual(k.Features(a), k.Features(b)) {
			t.Errorf("%s: permuted symmetric race embeds differently", k.Name())
		}
		if d := Distance(k, a, b); d != 0 {
			t.Errorf("%s: distance %g between isomorphic runs, want 0", k.Name(), d)
		}
	}
}

func TestSelfDistanceZero(t *testing.T) {
	g := meshGraph(t, 5, 2, 100, 3)
	for _, k := range allKernels {
		if d := Distance(k, g, g); d != 0 {
			t.Errorf("%s: self distance %v", k.Name(), d)
		}
	}
}

func TestNDSeparatesRuns(t *testing.T) {
	// Two 100%-ND seeds of the mesh produce different match orders.
	// Depth-1 refinement sees only one hop and may miss the change —
	// depth 2 (the ANACIN-X configuration) and deeper must see it.
	g1 := meshGraph(t, 8, 4, 100, 1)
	g2 := meshGraph(t, 8, 4, 100, 2)
	for _, k := range []Kernel{NewWL(2), NewWL(3)} {
		if d := Distance(k, g1, g2); d <= 0 {
			t.Errorf("%s: distinct runs have distance %v", k.Name(), d)
		}
	}
	// The vertex histogram counts only event kinds, which match-order
	// changes preserve — the ablation blindness the package doc claims.
	if d := Distance(VertexHistogram{}, g1, g2); d != 0 {
		t.Errorf("vertex-hist: distance %v, want 0 (same event multiset)", d)
	}
}

func TestValueMatchesFeatures(t *testing.T) {
	g1 := meshGraph(t, 5, 2, 100, 1)
	g2 := meshGraph(t, 5, 2, 100, 2)
	k := NewWL(2)
	want := k.Features(g1).Dot(k.Features(g2))
	if got := Value(k, g1, g2); got != want {
		t.Errorf("Value = %v, want %v", got, want)
	}
}

func TestSymmetry(t *testing.T) {
	g1 := meshGraph(t, 6, 2, 100, 1)
	g2 := meshGraph(t, 6, 2, 100, 5)
	for _, k := range allKernels {
		if d1, d2 := Distance(k, g1, g2), Distance(k, g2, g1); d1 != d2 {
			t.Errorf("%s: asymmetric distance %v vs %v", k.Name(), d1, d2)
		}
		if v1, v2 := Value(k, g1, g2), Value(k, g2, g1); v1 != v2 {
			t.Errorf("%s: asymmetric value %v vs %v", k.Name(), v1, v2)
		}
	}
}

func TestTriangleInequality(t *testing.T) {
	// The kernel distance is a feature-space Euclidean distance, so the
	// triangle inequality must hold exactly (up to float tolerance).
	graphs := []*graph.Graph{
		meshGraph(t, 6, 3, 100, 1),
		meshGraph(t, 6, 3, 100, 2),
		meshGraph(t, 6, 3, 100, 3),
		meshGraph(t, 6, 2, 100, 4), // structurally different size
		meshGraph(t, 4, 3, 100, 5),
	}
	for _, k := range allKernels {
		m := NewMatrix(k, graphs)
		n := m.Len()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for l := 0; l < n; l++ {
					dij, dil, dlj := m.Distance(i, j), m.Distance(i, l), m.Distance(l, j)
					if dij > dil+dlj+1e-9 {
						t.Fatalf("%s: triangle violated: d(%d,%d)=%v > %v+%v", k.Name(), i, j, dij, dil, dlj)
					}
				}
			}
		}
	}
}

func TestWLDepthZeroEqualsVertexHistogram(t *testing.T) {
	// WL with H=0 and the vertex histogram induce the same kernel
	// values (feature hashes differ, but dot products agree).
	g1 := meshGraph(t, 6, 2, 100, 1)
	g2 := meshGraph(t, 6, 2, 100, 9)
	wl0 := NewWL(0)
	vh := VertexHistogram{}
	if v1, v2 := Value(wl0, g1, g2), Value(vh, g1, g2); v1 != v2 {
		t.Errorf("wl0 value %v != vertex-hist value %v", v1, v2)
	}
	if d1, d2 := Distance(wl0, g1, g2), Distance(vh, g1, g2); d1 != d2 {
		t.Errorf("wl0 distance %v != vertex-hist distance %v", d1, d2)
	}
}

func TestDeeperWLSeesMore(t *testing.T) {
	// Increasing depth can only add features, so self-similarity grows
	// with H.
	g := meshGraph(t, 6, 3, 100, 2)
	prev := 0.0
	for h := 0; h <= 4; h++ {
		f := NewWL(h).Features(g)
		self := f.Dot(f)
		if self <= prev {
			t.Errorf("H=%d self-similarity %v not above H=%d's %v", h, self, h-1, prev)
		}
		prev = self
	}
}

func TestEmptyGraph(t *testing.T) {
	empty := &graph.Graph{}
	empty.Seal()
	g := meshGraph(t, 4, 2, 0, 1)
	for _, k := range allKernels {
		if d := Distance(k, empty, empty); d != 0 {
			t.Errorf("%s: empty-empty distance %v", k.Name(), d)
		}
		if d := NormalizedDistance(k, empty, empty); d != 0 {
			t.Errorf("%s: empty-empty normalized distance %v", k.Name(), d)
		}
		if d := NormalizedDistance(k, empty, g); d != math.Sqrt2 {
			t.Errorf("%s: empty-nonempty normalized distance %v, want sqrt2", k.Name(), d)
		}
		if d := Distance(k, empty, g); d <= 0 {
			t.Errorf("%s: empty-nonempty distance %v", k.Name(), d)
		}
	}
}

func TestNormalizedDistanceBounds(t *testing.T) {
	g1 := meshGraph(t, 8, 3, 100, 1)
	g2 := meshGraph(t, 4, 1, 100, 2)
	for _, k := range allKernels {
		d := NormalizedDistance(k, g1, g2)
		if d < 0 || d > math.Sqrt2 {
			t.Errorf("%s: normalized distance %v outside [0, sqrt2]", k.Name(), d)
		}
	}
}

func TestDistanceFromValuesClamps(t *testing.T) {
	// Cancellation can make k11+k22-2k12 slightly negative.
	if d := DistanceFromValues(1, 1, 1+1e-16); d != 0 {
		t.Errorf("clamped distance = %v, want 0", d)
	}
	if d := DistanceFromValues(4, 9, 0); d != math.Sqrt(13) {
		t.Errorf("distance = %v", d)
	}
}

func TestMatrixProperties(t *testing.T) {
	graphs := make([]*graph.Graph, 6)
	for i := range graphs {
		graphs[i] = meshGraph(t, 6, 3, 100, int64(i))
	}
	m := NewMatrix(NewWL(2), graphs)
	if m.Len() != 6 || m.KernelName != "wlst-h2d" {
		t.Errorf("matrix meta wrong: %d %q", m.Len(), m.KernelName)
	}
	if err := m.CheckPSD(1e-6); err != nil {
		t.Errorf("CheckPSD: %v", err)
	}
	for i := 0; i < 6; i++ {
		if m.Distance(i, i) != 0 {
			t.Errorf("diagonal distance (%d) = %v", i, m.Distance(i, i))
		}
	}
	pd := m.PairwiseDistances()
	if len(pd) != 15 {
		t.Fatalf("PairwiseDistances len = %d, want 15", len(pd))
	}
	if got := m.DistancesToFirst(); len(got) != 5 {
		t.Fatalf("DistancesToFirst len = %d, want 5", len(got))
	}
	// Spot-check correspondence: pd[0] is d(0,1), which DistancesToFirst
	// reports as its first element.
	if pd[0] != m.DistancesToFirst()[0] {
		t.Error("distance orderings disagree")
	}
}

func TestCheckPSDDetectsCorruption(t *testing.T) {
	graphs := []*graph.Graph{meshGraph(t, 4, 2, 0, 1), meshGraph(t, 4, 2, 0, 2)}
	m := NewMatrix(NewWL(1), graphs)
	m.K[0][1] = m.K[0][0]*m.K[1][1] + 1 // impossible cross term
	m.K[1][0] = m.K[0][1]
	if err := m.CheckPSD(1e-9); err == nil {
		t.Error("corrupted matrix passed CheckPSD")
	}
	m.K[1][0] = 0
	if err := m.CheckPSD(1e-9); err == nil {
		t.Error("asymmetric matrix passed CheckPSD")
	}
}

func TestPairwiseDistancesHelper(t *testing.T) {
	graphs := []*graph.Graph{
		meshGraph(t, 4, 2, 100, 1),
		meshGraph(t, 4, 2, 100, 2),
		meshGraph(t, 4, 2, 100, 3),
	}
	d := PairwiseDistances(NewWL(2), graphs)
	if len(d) != 3 {
		t.Fatalf("len = %d", len(d))
	}
	for _, v := range d {
		if v < 0 || math.IsNaN(v) {
			t.Errorf("bad distance %v", v)
		}
	}
}

func TestFeaturesDeterministic(t *testing.T) {
	g := meshGraph(t, 6, 3, 100, 11)
	for _, k := range allKernels {
		f1, f2 := k.Features(g), k.Features(g)
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("%s: nondeterministic features", k.Name())
		}
		for i := 1; i < len(f1.Keys); i++ {
			if f1.Keys[i-1] >= f1.Keys[i] {
				t.Fatalf("%s: keys not strictly ascending at %d", k.Name(), i)
			}
		}
	}
}

// Property: distances are non-negative, symmetric, and zero on
// identical seeds, for arbitrary (seed, nd) draws.
func TestQuickDistanceAxioms(t *testing.T) {
	k := NewWL(2)
	f := func(seedA, seedB int64, ndRaw uint8) bool {
		nd := float64(ndRaw) / 255 * 100
		gA := meshGraph(t, 5, 2, nd, seedA)
		gB := meshGraph(t, 5, 2, nd, seedB)
		d := Distance(k, gA, gB)
		if d < 0 || math.IsNaN(d) {
			return false
		}
		if Distance(k, gB, gA) != d {
			return false
		}
		if seedA == seedB && d != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWL2Features(b *testing.B) {
	g := meshGraph(b, 16, 8, 100, 1)
	k := NewWL(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Features(g)
	}
}

func BenchmarkMatrix20Runs(b *testing.B) {
	graphs := make([]*graph.Graph, 20)
	for i := range graphs {
		graphs[i] = meshGraph(b, 16, 4, 100, int64(i))
	}
	k := NewWL(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewMatrix(k, graphs)
	}
}
