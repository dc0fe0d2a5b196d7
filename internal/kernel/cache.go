package kernel

import (
	"sync"
	"sync/atomic"

	"github.com/anacin-go/anacinx/internal/graph"
)

// Cache is a content-addressed embedding cache: it memoizes
// Kernel.Features results keyed by (kernel name, structural graph
// fingerprint). One experiment typically pushes the same run set
// through several reductions — the violin distance sample, the
// slice profile, the root-source ranking — each of which used to
// re-embed every graph from scratch. With a shared Cache each distinct
// graph is embedded exactly once per kernel.
//
// Content addressing (rather than pointer identity) means structurally
// identical graphs share an entry even when they are distinct objects:
// SliceByLamport(1) reconstructs the whole graph as a fresh value, and
// the root-source coarsening fallback re-derives it again — all of
// them hit the entry the distance sample already paid for. The kernel
// name keys the kernel configuration: WL names encode depth,
// directedness, and seed, so distinct feature universes never collide.
//
// The fingerprint is a 128-bit structural hash (two independent 64-bit
// mixes over node labels and edge endpoints/kinds — exactly the inputs
// every kernel in this package reads), so an accidental collision
// across the thousands of graphs a campaign touches is vanishingly
// unlikely (birthday bound ~n²/2¹²⁹).
//
// All methods are safe for concurrent use, and safe on a nil *Cache,
// which simply computes without memoizing — callers thread an optional
// cache without branching. Cached FeatureVectors are shared across
// callers and must be treated as immutable.
type Cache struct {
	mu      sync.RWMutex
	entries map[cacheKey]FeatureVector
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type cacheKey struct {
	kernel string
	fp     Fingerprint
}

// NewCache returns an empty embedding cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]FeatureVector, 64)}
}

// Features returns k's embedding of g, computing and memoizing it on
// first sight of (k.Name(), fingerprint(g)). Concurrent misses on the
// same key may compute the embedding more than once; the result is
// identical either way, and the last write wins.
func (c *Cache) Features(k Kernel, g *graph.Graph) FeatureVector {
	if c == nil {
		return k.Features(g)
	}
	key := cacheKey{kernel: k.Name(), fp: fingerprint(g)}
	c.mu.RLock()
	fv, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return fv
	}
	c.misses.Add(1)
	fv = k.Features(g)
	c.mu.Lock()
	c.entries[key] = fv
	c.mu.Unlock()
	return fv
}

// NewMatrix is Matrix construction through the cache: embeddings are
// looked up (or computed and stored) per graph, then the Gram matrix
// is assembled exactly as the uncached NewMatrix would.
func (c *Cache) NewMatrix(k Kernel, graphs []*graph.Graph) *Matrix {
	return newMatrix(k, graphs, c)
}

// PairwiseDistances is the cached counterpart of the package-level
// PairwiseDistances.
func (c *Cache) PairwiseDistances(k Kernel, graphs []*graph.Graph) []float64 {
	return c.NewMatrix(k, graphs).PairwiseDistances()
}

// Len returns the number of memoized embeddings.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Hits returns how many Features calls were served from the cache.
func (c *Cache) Hits() uint64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses returns how many Features calls had to compute an embedding.
func (c *Cache) Misses() uint64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// fingerprint computes the 128-bit structural hash of g over exactly
// the inputs the kernels read: the node-label sequence and the edge
// (from, to, kind) triples. Two graphs with equal fingerprints receive
// identical embeddings from every Kernel in this package; Lamport
// times, callstacks, and Meta deliberately do not contribute.
func fingerprint(g *graph.Graph) Fingerprint {
	fp := NewFingerprinter()
	fp.Word(uint64(len(g.Nodes)))
	for i := range g.Nodes {
		fp.Word(labelInterner.Hash(g.Nodes[i].Label))
	}
	fp.Word(uint64(len(g.Edges)))
	for i := range g.Edges {
		e := &g.Edges[i]
		// NodeIDs are int32 and non-negative, so from/to fit in 31 bits
		// each and the kind bit lands at 63: one word per edge.
		fp.Word(uint64(uint32(e.From)) | uint64(uint32(e.To))<<31 | uint64(e.Kind)<<63)
	}
	return fp.Sum()
}
