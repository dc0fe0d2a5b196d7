package kernel

import (
	"slices"
	"sync"
)

// Interner maps label strings to dense uint32 ids and memoizes each
// distinct label's FNV-1a hash, so refinement hashes every distinct
// label string exactly once per process instead of once per node per
// Features call. Event-graph labels are MPI operation names — a few
// dozen distinct strings regardless of graph size — so the table stays
// tiny and the steady state of Features is pure map lookups.
//
// An Interner is safe for concurrent use: NewMatrix and the run pools
// embed graphs from many goroutines against the shared package-level
// table.
type Interner struct {
	mu     sync.RWMutex
	ids    map[string]uint32
	labels []string
	hashes []uint64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32, 32)}
}

// labelInterner memoizes label hashes for every kernel in the package.
// Growth is bounded by the number of distinct event labels the process
// ever sees (MPI op names), not by graph count or size.
var labelInterner = NewInterner()

// Intern returns the dense id of s, assigning the next free id on
// first sight. Ids are stable for the lifetime of the interner and
// contiguous from 0.
func (in *Interner) Intern(s string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok = in.ids[s]; ok {
		return id
	}
	id = uint32(len(in.labels))
	in.ids[s] = id
	in.labels = append(in.labels, s)
	in.hashes = append(in.hashes, hashString(s))
	return id
}

// HashOf returns the FNV-1a hash of the label with dense id id. It
// panics if id was not returned by Intern.
func (in *Interner) HashOf(id uint32) uint64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.hashes[id]
}

// Hash interns s and returns its FNV-1a hash — byte-for-byte the value
// hashString(s) produces, computed once per distinct string.
func (in *Interner) Hash(s string) uint64 {
	in.mu.RLock()
	id, ok := in.ids[s]
	if ok {
		h := in.hashes[id]
		in.mu.RUnlock()
		return h
	}
	in.mu.RUnlock()
	return in.HashOf(in.Intern(s))
}

// LabelOf returns the label string with dense id id (the inverse of
// Intern). It panics if id was not returned by Intern.
func (in *Interner) LabelOf(id uint32) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.labels[id]
}

// Len returns the number of distinct labels interned so far.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.labels)
}

// splitmix64 is the SplitMix64 finalizer (Steele et al.): a cheap
// bijective mixer with full avalanche. Seeded WL variants pass initial
// label hashes through it so that every seed induces an independent
// feature universe — collision-robustness ablations re-run a
// measurement under several seeds and compare.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// wlScratch holds the per-call working set of WL.Features: the current
// and next label arrays and the neighbor-multiset buffer. Pooling it
// makes repeated embeddings (Gram matrices embed every graph of a
// 20-run sample) allocation-light.
type wlScratch struct {
	labels []uint64
	next   []uint64
	neigh  []uint64
}

var wlScratchPool = sync.Pool{New: func() any { return new(wlScratch) }}

// grow returns s resized to n, reallocating only when capacity is
// short. Contents are not zeroed — callers overwrite every element.
func grow(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// sortU64 sorts the multiset in place without allocating (unlike
// sort.Slice, whose closure and interface header escape — the dominant
// allocation of the pre-interner refinement loop).
func sortU64(s []uint64) { slices.Sort(s) }
