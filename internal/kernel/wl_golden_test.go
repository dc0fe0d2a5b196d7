package kernel

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/anacin-go/anacinx/internal/graph"
)

// referenceWLFeatures is the pre-interner WL refinement, kept verbatim
// as the golden oracle: string labels are hashed per node per call,
// multisets are sorted with sort.Slice, and the depth prefix is
// re-derived per feature. The production path must reproduce its
// histograms bit for bit — only the allocation profile may differ.
func referenceWLFeatures(w WL, g *graph.Graph) Features {
	n := g.NumNodes()
	feats := make(Features, n/2+8)
	if n == 0 {
		return feats
	}
	labels := make([]uint64, n)
	for i := range g.Nodes {
		labels[i] = hashString(g.Nodes[i].Label)
	}
	add := func(depth int, label uint64) {
		feats[hashWord(hashWord(fnvOffset, uint64(depth)), label)]++
	}
	for i := range labels {
		add(0, labels[i])
	}
	next := make([]uint64, n)
	var scratch []uint64
	refFold := func(h uint64, s []uint64) uint64 {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		for _, v := range s {
			h = hashWord(h, v)
		}
		return h
	}
	for depth := 1; depth <= w.H; depth++ {
		for i := 0; i < n; i++ {
			h := hashWord(fnvOffset, labels[i])
			if w.Directed {
				scratch = scratch[:0]
				for _, ei := range g.In[i] {
					scratch = append(scratch, contribution(g.Edges[ei].Kind, labels[g.Edges[ei].From]))
				}
				h = refFold(h, scratch)
				h = hashWord(h, inOutSeparator)
				scratch = scratch[:0]
				for _, ei := range g.Out[i] {
					scratch = append(scratch, contribution(g.Edges[ei].Kind, labels[g.Edges[ei].To]))
				}
				h = refFold(h, scratch)
			} else {
				scratch = scratch[:0]
				for _, ei := range g.In[i] {
					scratch = append(scratch, contribution(g.Edges[ei].Kind, labels[g.Edges[ei].From]))
				}
				for _, ei := range g.Out[i] {
					scratch = append(scratch, contribution(g.Edges[ei].Kind, labels[g.Edges[ei].To]))
				}
				h = refFold(h, scratch)
			}
			next[i] = h
			add(depth, h)
		}
		labels, next = next, labels
	}
	return feats
}

// goldenGraphs is the cross-section of event graphs the golden tests
// pin: varying rank counts, rounds, ND levels, and seeds.
func goldenGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for _, spec := range []struct {
		procs, rounds int
		nd            float64
		seed          int64
	}{
		{2, 1, 0, 1},
		{4, 2, 100, 3},
		{8, 3, 50, 7},
		{16, 2, 100, 11},
		{32, 4, 100, 1},
	} {
		gs = append(gs, meshGraph(t, spec.procs, spec.rounds, spec.nd, spec.seed))
	}
	return gs
}

// TestWLGoldenFeatures pins the interned refinement byte-identical to
// the reference implementation across depths and both directedness
// modes.
func TestWLGoldenFeatures(t *testing.T) {
	for _, g := range goldenGraphs(t) {
		for h := 0; h <= 4; h++ {
			for _, directed := range []bool{true, false} {
				w := WL{H: h, Directed: directed}
				got := w.Features(g)
				want := referenceWLFeatures(w, g)
				if !reflect.DeepEqual(got.ToMap(), want) {
					t.Fatalf("%s on %d-node graph: sorted-vector features diverge from reference (%d vs %d entries)",
						w.Name(), g.NumNodes(), got.Len(), len(want))
				}
				if !reflect.DeepEqual(got, FromMap(want)) {
					t.Fatalf("%s on %d-node graph: vector layout diverges from FromMap(reference)", w.Name(), g.NumNodes())
				}
			}
		}
	}
	// Repeated calls must be stable (scratch pooling must not leak
	// state between embeddings).
	g := goldenGraphs(t)[2]
	w := NewWL(2)
	first := w.Features(g)
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(w.Features(g), first) {
			t.Fatal("repeated Features calls disagree — scratch reuse leaks state")
		}
	}
}

// TestWLGoldenGram pins the Gram matrix built from interned embeddings
// identical to one built from reference embeddings, through NewMatrix's
// parallel embedding stage and from serial embeddings alike.
func TestWLGoldenGram(t *testing.T) {
	graphs := goldenGraphs(t)
	w := NewWL(2)
	ref := make([]Features, len(graphs))
	for i, g := range graphs {
		ref[i] = referenceWLFeatures(w, g)
	}
	n := len(graphs)
	want := make([][]float64, n)
	for i := range want {
		want[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			want[i][j] = ref[i].Dot(ref[j])
		}
	}
	feats := make([]FeatureVector, n)
	for i, g := range graphs {
		feats[i] = w.Features(g)
	}
	for name, m := range map[string]*Matrix{
		"NewMatrix":          NewMatrix(w, graphs),
		"MatrixFromFeatures": MatrixFromFeatures(w.Name(), feats),
	} {
		if !reflect.DeepEqual(m.K, want) {
			t.Fatalf("%s: Gram matrix diverges from reference-path matrix", name)
		}
	}
}

// TestWLFeaturesNegativeDepth pins the bugfix: a WL{H: -1} literal
// bypasses NewWL's validation and used to silently behave like H=0;
// Features must now refuse it with a contextful panic.
func TestWLFeaturesNegativeDepth(t *testing.T) {
	g := meshGraph(t, 2, 1, 0, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("WL{H:-1}.Features did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "negative depth") || !strings.Contains(msg, "-1") {
			t.Fatalf("panic message %q lacks context", msg)
		}
	}()
	WL{H: -1, Directed: true}.Features(g)
}

// TestWLSeeded covers the seeded feature universes: a non-zero seed is
// deterministic, distance-preserving on identical graphs, and induces
// a feature universe disjoint in hash identity from seed 0.
func TestWLSeeded(t *testing.T) {
	g1 := meshGraph(t, 8, 3, 100, 5)
	g2 := meshGraph(t, 8, 3, 100, 5) // same seed → identical run
	base := WL{H: 2, Directed: true}
	seeded := WL{H: 2, Directed: true, Seed: 0xdecafbad}
	if base.Name() == seeded.Name() {
		t.Fatal("seeded kernel must carry the seed in its name")
	}
	if !reflect.DeepEqual(seeded.Features(g1), seeded.Features(g1)) {
		t.Fatal("seeded features are not deterministic")
	}
	if reflect.DeepEqual(seeded.Features(g1), base.Features(g1)) {
		t.Fatal("seeded features equal unseeded features")
	}
	if d := Distance(seeded, g1, g2); d != 0 {
		t.Fatalf("seeded kernel: identical graphs at distance %v", d)
	}
	// Histogram mass is seed-invariant: mixing relabels features but
	// preserves multiplicities.
	mass := func(f FeatureVector) (m float64) {
		for _, v := range f.Vals {
			m += v
		}
		return
	}
	if a, b := mass(base.Features(g1)), mass(seeded.Features(g1)); a != b {
		t.Fatalf("histogram mass changed under seeding: %v vs %v", a, b)
	}
}

// BenchmarkWLFeaturesReferenceH2Rank32 is the pre-interner
// implementation on the acceptance scenario; compare with
// BenchmarkWLFeaturesH2Rank32 (`go test -bench WL -benchmem`) to see
// the allocation delta the interned path buys.
func BenchmarkWLFeaturesReferenceH2Rank32(b *testing.B) {
	g := meshGraph(b, 32, 4, 100, 1)
	w := NewWL(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := referenceWLFeatures(w, g)
		if len(f) == 0 {
			b.Fatal("empty features")
		}
	}
}
