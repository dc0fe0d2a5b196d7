package kernel

import (
	"testing"

	"github.com/anacin-go/anacinx/internal/graph"
)

// TestNewMatrixWorkerCountInvariant pins NewMatrix, whose embedding
// stage fans out over GOMAXPROCS workers, to serial embeddings fed to
// MatrixFromFeatures: the matrix must match float-for-float, cached and
// uncached (the fan-out reorders scheduling, never arithmetic). CI runs
// it at -cpu 1,2,4 under the race detector to vary the worker count.
func TestNewMatrixWorkerCountInvariant(t *testing.T) {
	graphs := make([]*graph.Graph, 9)
	for i := range graphs {
		graphs[i] = meshGraph(t, 6, 3, 100, int64(i+1))
	}
	for _, k := range allKernels {
		feats := make([]FeatureVector, len(graphs))
		for i, g := range graphs {
			feats[i] = k.Features(g)
		}
		want := MatrixFromFeatures(k.Name(), feats)
		for name, got := range map[string]*Matrix{
			"uncached": NewMatrix(k, graphs),
			"cached":   NewCache().NewMatrix(k, graphs),
		} {
			if got.KernelName != want.KernelName || got.Len() != want.Len() {
				t.Fatalf("%s %s: shape mismatch", k.Name(), name)
			}
			for i := 0; i < want.Len(); i++ {
				for j := 0; j < want.Len(); j++ {
					if got.K[i][j] != want.K[i][j] {
						t.Errorf("%s %s: K[%d][%d] = %v, want %v",
							k.Name(), name, i, j, got.K[i][j], want.K[i][j])
					}
				}
			}
			if err := got.CheckPSD(1e-9); err != nil {
				t.Errorf("%s %s: %v", k.Name(), name, err)
			}
		}
	}
}

// TestNewMatrixSmallInputs exercises the degenerate sizes the worker
// pool must not trip over.
func TestNewMatrixSmallInputs(t *testing.T) {
	k := NewWL(2)
	if m := NewMatrix(k, nil); m.Len() != 0 {
		t.Errorf("empty input gave %d rows", m.Len())
	}
	one := []*graph.Graph{meshGraph(t, 4, 2, 0, 1)}
	m := NewMatrix(k, one)
	if m.Len() != 1 || m.K[0][0] <= 0 {
		t.Errorf("single-graph matrix: %+v", m)
	}
}
