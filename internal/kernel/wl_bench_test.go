package kernel

import (
	"fmt"
	"testing"

	"github.com/anacin-go/anacinx/internal/graph"
)

// BenchmarkWLFeaturesH2Rank32 measures the interned WL path on the
// H=2, 32-rank scenario — the acceptance benchmark for the
// allocation-light refinement (compare against
// BenchmarkWLFeaturesReferenceH2Rank32, the pre-interner
// implementation kept in wl_golden_test.go). The same workload backs
// the "wl-features/h2/r32" scenario of `anacin bench`, so Go-benchmark
// numbers and BENCH.json numbers are directly comparable.
func BenchmarkWLFeaturesH2Rank32(b *testing.B) {
	g := meshGraph(b, 32, 4, 100, 1)
	w := NewWL(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := w.Features(g)
		if f.Len() == 0 {
			b.Fatal("empty features")
		}
	}
}

// BenchmarkWLFeaturesDepth sweeps the refinement depth on the 32-rank
// scenario: cost should grow roughly linearly in H.
func BenchmarkWLFeaturesDepth(b *testing.B) {
	g := meshGraph(b, 32, 4, 100, 1)
	for _, h := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			w := NewWL(h)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.Features(g)
			}
		})
	}
}

// BenchmarkWLGramRank16 measures the Gram-matrix build (parallel
// embeddings, serial dot products) over a 12-graph sample.
func BenchmarkWLGramRank16(b *testing.B) {
	graphs := make([]*graph.Graph, 12)
	for i := range graphs {
		graphs[i] = meshGraph(b, 16, 3, 100, int64(i+1))
	}
	w := NewWL(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := NewMatrix(w, graphs); m.Len() != len(graphs) {
			b.Fatal("bad matrix")
		}
	}
}
