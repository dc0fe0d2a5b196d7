package kernel

import (
	"fmt"

	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/par"
)

// Matrix is a precomputed kernel (Gram) matrix over a set of graphs.
// Features are computed once per graph, so building the matrix costs
// n embeddings plus n(n+1)/2 dot products.
type Matrix struct {
	// KernelName records which kernel produced the matrix.
	KernelName string
	// K holds the kernel values, K[i][j] = k(G_i, G_j).
	K [][]float64
}

// NewMatrix computes the Gram matrix of the given graphs under k. The
// n embeddings are independent and dominate the cost, so they fan out
// across the machine's cores, each written to its own index; the
// n(n+1)/2 dot products then run serially (MatrixFromFeatures). The
// matrix is identical to the sequential result.
func NewMatrix(k Kernel, graphs []*graph.Graph) *Matrix {
	return newMatrix(k, graphs, nil)
}

// newMatrix is the shared implementation, with an optional embedding
// cache (nil computes every embedding).
func newMatrix(k Kernel, graphs []*graph.Graph, cache *Cache) *Matrix {
	feats := make([]FeatureVector, len(graphs))
	par.ForEach(0, len(graphs), func(i int) { feats[i] = cache.Features(k, graphs[i]) })
	return MatrixFromFeatures(k.Name(), feats)
}

// MatrixFromFeatures builds a Gram matrix from already-computed
// embeddings — the streaming campaign path embeds each run as its trace
// is consumed, so no graphs exist by matrix time. It is the one Gram
// assembly: NewMatrix calls it too, so the matrix (and every distance
// derived from it) is byte-identical whichever way the embeddings were
// produced.
func MatrixFromFeatures(kernelName string, feats []FeatureVector) *Matrix {
	n := len(feats)
	m := &Matrix{KernelName: kernelName, K: make([][]float64, n)}
	for i := range m.K {
		m.K[i] = make([]float64, n)
	}
	for i := range feats {
		for j := i; j < n; j++ {
			v := feats[i].Dot(feats[j])
			m.K[i][j] = v
			m.K[j][i] = v
		}
	}
	return m
}

// Len returns the number of graphs the matrix covers.
func (m *Matrix) Len() int { return len(m.K) }

// Value returns k(G_i, G_j).
func (m *Matrix) Value(i, j int) float64 { return m.K[i][j] }

// Distance returns the kernel distance between graphs i and j.
func (m *Matrix) Distance(i, j int) float64 {
	return DistanceFromValues(m.K[i][i], m.K[j][j], m.K[i][j])
}

// PairwiseDistances returns the n(n-1)/2 distances of the strict upper
// triangle, ordered (0,1), (0,2), ..., (n-2,n-1). This is the sample of
// kernel distances the paper's violin plots draw: every unordered pair
// of runs contributes one observation of "how different can two
// executions of this configuration be".
func (m *Matrix) PairwiseDistances() []float64 {
	n := m.Len()
	out := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, m.Distance(i, j))
		}
	}
	return out
}

// DistancesToFirst returns the distances of graphs 1..n-1 to graph 0,
// an alternative sample construction that designates run 0 as the
// reference execution.
func (m *Matrix) DistancesToFirst() []float64 {
	n := m.Len()
	out := make([]float64, 0, n-1)
	for j := 1; j < n; j++ {
		out = append(out, m.Distance(0, j))
	}
	return out
}

// CheckPSD verifies the matrix is (numerically) positive semidefinite
// by confirming every 2x2 principal minor is non-negative within tol —
// a cheap necessary condition used by tests; explicit-feature-map
// kernels are PSD by construction, so a violation indicates a bug.
func (m *Matrix) CheckPSD(tol float64) error {
	n := m.Len()
	for i := 0; i < n; i++ {
		if m.K[i][i] < -tol {
			return fmt.Errorf("kernel: negative self-similarity K[%d][%d] = %v", i, i, m.K[i][i])
		}
		for j := i + 1; j < n; j++ {
			if m.K[i][j] != m.K[j][i] {
				return fmt.Errorf("kernel: asymmetric at (%d,%d)", i, j)
			}
			minor := m.K[i][i]*m.K[j][j] - m.K[i][j]*m.K[i][j]
			if minor < -tol {
				return fmt.Errorf("kernel: 2x2 minor (%d,%d) = %v < 0", i, j, minor)
			}
		}
	}
	return nil
}

// PairwiseDistances is the package-level convenience: embed, build the
// Gram matrix, and return the upper-triangle distance sample.
func PairwiseDistances(k Kernel, graphs []*graph.Graph) []float64 {
	return NewMatrix(k, graphs).PairwiseDistances()
}
