package trace

import (
	"maps"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// maxStackDepth bounds how many application frames a recorded callstack
// keeps. Deep recursion beyond this is truncated from the outermost end.
const maxStackDepth = 32

// scanDepth bounds how many logical frames past the skipped ones a
// capture examines for its maxStackDepth application frames. It is the
// window a runtime.Callers buffer of this size gives, so a deep stack
// truncates the same on every architecture.
const scanDepth = maxStackDepth + 8

// pcBufLen is the capture buffer's length. A physical frame expands to
// at least one logical frame, so skip+scanDepth+1 return PCs decode the
// whole window (the +1 lets CallersFrames expand the inlined calls of
// the window's last frame): exact for any skip up to 7.
const pcBufLen = scanDepth + 8

// framePrefixesToTrim lists function-name prefixes that belong to the
// runtime plumbing rather than the "application" (the pattern code a
// student would inspect). ANACIN-X similarly strips MPI-library and
// tracer frames so callstack analysis surfaces user code.
var framePrefixesToTrim = []string{
	"runtime.",
	"testing.",
	// Simulator machinery is all methods on these receivers; free
	// functions in package sim (e.g. test programs) are kept.
	"github.com/anacin-go/anacinx/internal/sim.(*Rank).",
	"github.com/anacin-go/anacinx/internal/sim.(*simulation).",
}

// Stack is an interned callstack: a shared immutable frame slice
// (innermost application frame first) plus the precomputed ";"-joined
// CallstackKey. All events that issued an MPI call from the same
// callsite share one Stack — callers must treat Frames as read-only.
// The zero Stack means "no callstack recorded".
type Stack struct {
	Frames []string
	Key    string
}

// The intern cache maps a capture's raw return PCs and skip to their
// decoded, trimmed Stack. Symbolization (runtime.CallersFrames plus
// name shortening) runs once per distinct callsite per process instead
// of once per traced event — the same replay-system insight that keeps
// recording overhead negligible in classic execution-replay tracers:
// repeated structure is interned, not re-symbolized. The cache is keyed
// on the raw PCs and skip (hash plus exact equality, so hash collisions
// cost a scan, never a wrong answer) and is shared process-wide, like
// kernel.Interner: concurrent simulated runs hammer it from many
// goroutines.
//
// Lookups take no lock. The buckets are an immutable snapshot read
// through an atomic pointer; an insert, once per callsite per process,
// copies the map under a mutex and publishes the copy, so a reader
// sees either the old snapshot or the new one, never a map being
// written.
type stackEntry struct {
	skip int
	pcs  []uintptr
	st   Stack
}

type stackBuckets map[uint64][]*stackEntry

var stackCache struct {
	mu       sync.Mutex // serializes inserts
	snapshot atomic.Pointer[stackBuckets]
}

// lookup returns the interned Stack of (skip, pcs) in m, if present.
func (m stackBuckets) lookup(h uint64, skip int, pcs []uintptr) (Stack, bool) {
	for _, e := range m[h] {
		if e.skip == skip && pcsEqual(e.pcs, pcs) {
			return e.st, true
		}
	}
	return Stack{}, false
}

// CaptureStackInterned records the current goroutine's call-path,
// innermost application frame first, and returns it interned: the
// shared frame slice together with the ";"-joined CallstackKey,
// decoded once per distinct callsite. skip drops that many more
// logical frames (inlined calls count): 0 makes the caller of
// CaptureStackInterned the innermost candidate, 1 the caller's caller.
// Runtime, testing and simulator frames are removed so the result
// reads like the call-path of the traced program. The simulator
// records the key alongside each event so downstream consumers (the
// event-graph builder, the binary writer) never re-join frames.
//
// The hit path walks the frame-pointer chain into a stack buffer and
// allocates nothing. It must not be inlined: callerPCs starts the walk
// at this function's frame.
//
//go:noinline
func CaptureStackInterned(skip int) Stack {
	var pcs [pcBufLen]uintptr
	n := callerPCs(pcs[:])
	if n == 0 {
		return Stack{}
	}
	return internPCs(skip, pcs[:n])
}

// internPCs resolves a capture through the cache, decoding and
// inserting on first sight.
func internPCs(skip int, pcs []uintptr) Stack {
	h := hashPCs(skip, pcs)
	if m := stackCache.snapshot.Load(); m != nil {
		if st, ok := m.lookup(h, skip, pcs); ok {
			return st
		}
	}

	// Decode outside the lock: symbolization is the expensive part, it
	// is a pure function of the PCs, and racing decoders of the same
	// callsite produce identical results — only one wins the insert.
	// The decoder reads a heap copy, so the caller's stack buffer
	// never escapes.
	key := append([]uintptr(nil), pcs...)
	st := Stack{Frames: decodeFrames(key, skip)}
	st.Key = joinFrames(st.Frames)

	stackCache.mu.Lock()
	defer stackCache.mu.Unlock()
	var old stackBuckets
	if m := stackCache.snapshot.Load(); m != nil {
		if won, ok := m.lookup(h, skip, pcs); ok {
			return won
		}
		old = *m
	}
	next := make(stackBuckets, len(old)+1)
	maps.Copy(next, old)
	// The bucket is copied too: published slices are never appended to
	// in place.
	next[h] = append(old[h][:len(old[h]):len(old[h])], &stackEntry{skip: skip, pcs: key, st: st})
	stackCache.snapshot.Store(&next)
	return st
}

// decodeFrames symbolizes and trims a capture, once per distinct
// callsite. pcs holds physical return PCs (the frame-pointer walk) or
// logical ones (the runtime.Callers fallback); runtime.CallersFrames
// expands the inlined calls of either, so skip drops logical frames
// and keeps its meaning whatever the compiler inlined. Wrapper frames
// (method-value and method wrappers, file "<autogenerated>", and
// go-statement wrappers) are elided and not counted, as
// runtime.Callers elides them.
func decodeFrames(pcs []uintptr, skip int) []string {
	frames := runtime.CallersFrames(pcs)
	var stack []string
	for seen := 0; seen < skip+scanDepth; {
		frame, more := frames.Next()
		if frame.File != "<autogenerated>" && !goWrapper(frame.Function) {
			name := frame.Function
			if seen >= skip && name != "" && !trimmedFrame(name) {
				stack = append(stack, shortFuncName(name))
				if len(stack) >= maxStackDepth {
					break
				}
			}
			seen++
		}
		if !more {
			break
		}
	}
	return stack
}

// goWrapper reports whether name is a compiler-made go-statement
// wrapper, "pkg.caller.gowrapN": a goroutine started as go f(args)
// runs f under it, and it binds the arguments. Its file is the
// caller's, not "<autogenerated>", so it is known by its name.
func goWrapper(name string) bool {
	n, ok := strings.CutPrefix(name[strings.LastIndexByte(name, '.')+1:], "gowrap")
	if !ok || n == "" {
		return false
	}
	for _, c := range n {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// joinFrames builds the ";"-joined callstack key, or "" for an empty
// stack (Event.CallstackKey maps that to "(unknown)").
func joinFrames(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	n := len(frames) - 1
	for _, f := range frames {
		n += len(f)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(frames[0])
	for _, f := range frames[1:] {
		b.WriteByte(';')
		b.WriteString(f)
	}
	return b.String()
}

// hashPCs is FNV-1a over skip and the PC words. Collisions are
// resolved by exact comparison, so the hash only needs to spread, not
// to be perfect.
func hashPCs(skip int, pcs []uintptr) uint64 {
	h := (fnvOffset64 ^ uint64(skip)) * fnvPrime64
	for _, pc := range pcs {
		h ^= uint64(pc)
		h *= fnvPrime64
	}
	return h
}

func pcsEqual(a, b []uintptr) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

func trimmedFrame(name string) bool {
	for _, p := range framePrefixesToTrim {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	// sim.Adapt's wrapper closure gets caller-scoped synthesized names
	// when inlined ("pkg.caller.Adapt.funcN", with N depending on the
	// instantiation), so matching by substring is required to keep
	// callstacks stable across otherwise-identical runs.
	return strings.Contains(name, ".Adapt.func")
}

// shortFuncName reduces a fully qualified function name such as
// "github.com/anacin-go/anacinx/internal/patterns.(*AMG).exchange" to
// "patterns.(*AMG).exchange": the last path element plus symbol. That is
// the granularity a student reads in the Fig. 8 bar chart.
func shortFuncName(full string) string {
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}
