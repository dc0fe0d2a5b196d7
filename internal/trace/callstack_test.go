package trace

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// captureHelper gives every capture in this file a stable non-test
// frame (testing.* frames are trimmed from recorded stacks).
func captureHelper() Stack { return CaptureStackInterned(0) }

func TestCaptureStackInternedKeyMatchesFrames(t *testing.T) {
	st := captureHelper()
	if len(st.Frames) == 0 {
		t.Fatal("empty capture")
	}
	if want := strings.Join(st.Frames, ";"); st.Key != want {
		t.Errorf("Key = %q, want %q", st.Key, want)
	}
	if st.Frames[0] != "trace.captureHelper" {
		t.Errorf("innermost frame = %q, want trace.captureHelper", st.Frames[0])
	}
}

// TestCaptureStackInternedConcurrent hammers the intern cache from many
// goroutines capturing the same callsite. Under -race this checks the
// cache's locking; the assertions check that every capture returns the
// one shared interned Stack (same backing array, not an equal copy).
func TestCaptureStackInternedConcurrent(t *testing.T) {
	const n = 64
	stacks := make([]Stack, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				stacks[i] = captureHelper()
			}
		}(i)
	}
	wg.Wait()
	first := stacks[0]
	if len(first.Frames) == 0 {
		t.Fatal("empty capture")
	}
	for i := 1; i < n; i++ {
		if stacks[i].Key != first.Key {
			t.Fatalf("goroutine %d captured key %q, goroutine 0 %q", i, stacks[i].Key, first.Key)
		}
		if &stacks[i].Frames[0] != &first.Frames[0] {
			t.Fatalf("goroutine %d got a distinct frame slice for the same callsite", i)
		}
	}
}

// callersReference decodes a runtime.Callers capture the way every
// capture was decoded before the frame-pointer walk: skip+2 drops
// runtime.Callers and this function, the buffer holds scanDepth
// logical frames, and the innermost maxStackDepth untrimmed ones are
// kept. CaptureStackInterned must reproduce it at the same callsite.
//
//go:noinline
func callersReference(skip int) Stack {
	var pcs [scanDepth]uintptr
	n := runtime.Callers(skip+2, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	var stack []string
	for {
		frame, more := frames.Next()
		if name := frame.Function; name != "" && !trimmedFrame(name) {
			stack = append(stack, shortFuncName(name))
			if len(stack) >= maxStackDepth {
				break
			}
		}
		if !more {
			break
		}
	}
	return Stack{Frames: stack, Key: joinFrames(stack)}
}

// captureBoth captures its call-path both ways from one frame.
//
//go:noinline
func captureBoth(skip int) (got, want Stack) {
	return CaptureStackInterned(skip), callersReference(skip)
}

//go:noinline
func skipMiddle(skip int) (got, want Stack) { return captureBoth(skip) }

//go:noinline
func skipOuter(skip int) (got, want Stack) { return skipMiddle(skip) }

func checkAgainstCallers(t *testing.T, what string, got, want Stack) {
	t.Helper()
	if got.Key != want.Key || !slices.Equal(got.Frames, want.Frames) {
		t.Fatalf("%s: frame-pointer capture\n  %q\nruntime.Callers decode\n  %q", what, got.Key, want.Key)
	}
	if want.Key == "" {
		t.Fatalf("%s: empty reference capture", what)
	}
}

// skip counts logical frames above the caller of CaptureStackInterned:
// 0 keeps the caller, each step drops one more.
func TestCaptureStackSkip(t *testing.T) {
	for skip, innermost := range []string{"trace.captureBoth", "trace.skipMiddle", "trace.skipOuter"} {
		got, want := skipOuter(skip)
		checkAgainstCallers(t, fmt.Sprintf("skip %d", skip), got, want)
		if got.Frames[0] != innermost {
			t.Errorf("skip %d: innermost frame %q, want %q", skip, got.Frames[0], innermost)
		}
	}
}

//go:noinline
func recurse(depth, skip int) (got, want Stack) {
	if depth == 0 {
		return captureBoth(skip)
	}
	return recurse(depth-1, skip)
}

// A call-path deeper than the capture buffer keeps the innermost
// maxStackDepth frames, as the runtime.Callers capture did.
func TestCaptureStackDeepRecursionTruncates(t *testing.T) {
	for _, depth := range []int{scanDepth - 10, scanDepth + 1, pcBufLen + 5, 3 * pcBufLen} {
		for _, skip := range []int{0, 2} {
			got, want := recurse(depth, skip)
			checkAgainstCallers(t, fmt.Sprintf("depth %d skip %d", depth, skip), got, want)
			if depth <= maxStackDepth {
				continue
			}
			if len(got.Frames) != maxStackDepth {
				t.Errorf("depth %d skip %d: %d frames, want %d", depth, skip, len(got.Frames), maxStackDepth)
			}
			frames := got.Frames
			if skip == 0 {
				frames = frames[1:] // captureBoth
			}
			for _, f := range frames {
				if f != "trace.recurse" {
					t.Fatalf("depth %d skip %d: frame %q in %q, want only trace.recurse", depth, skip, f, got.Key)
				}
			}
		}
	}
}

// Adapt recurses through a closure that the ".Adapt.func" rule trims,
// so half of the logical frames it stacks up are dropped.
func Adapt(depth, skip int) (got, want Stack) {
	if depth == 0 {
		return captureBoth(skip)
	}
	return func() (Stack, Stack) { return Adapt(depth-1, skip) }()
}

// With trimmed frames interleaved, a deep capture keeps the application
// frames of the same window of logical frames as runtime.Callers' did.
func TestCaptureStackTrimmedWindow(t *testing.T) {
	for _, depth := range []int{scanDepth / 2, scanDepth, 2 * pcBufLen} {
		for skip := 0; skip <= 2; skip++ {
			got, want := Adapt(depth, skip)
			checkAgainstCallers(t, fmt.Sprintf("depth %d skip %d", depth, skip), got, want)
		}
	}
}

// inlinableCapture is small enough for the compiler to inline;
// outlinedCapture is the same body kept out of line.
func inlinableCapture(skip int) Stack { return CaptureStackInterned(skip) }

//go:noinline
func outlinedCapture(skip int) Stack { return CaptureStackInterned(skip) }

//go:noinline
func viaHelpers(skip int) (inl, out Stack) { return inlinableCapture(skip), outlinedCapture(skip) }

// Inlining does not change a capture: the frame-pointer walk sees no
// frame for an inlined helper, and decoding restores it.
func TestCaptureStackInlinedHelper(t *testing.T) {
	inl, out := viaHelpers(0)
	if inl.Frames[0] != "trace.inlinableCapture" || out.Frames[0] != "trace.outlinedCapture" {
		t.Fatalf("innermost frames %q and %q, want the helpers", inl.Frames[0], out.Frames[0])
	}
	if !slices.Equal(inl.Frames[1:], out.Frames[1:]) || inl.Frames[1] != "trace.viaHelpers" {
		t.Fatalf("callers of the helpers differ:\n  %q\n  %q", inl.Key, out.Key)
	}
	inl, out = viaHelpers(1)
	if inl.Key != out.Key || inl.Frames[0] != "trace.viaHelpers" {
		t.Fatalf("skip 1 through an inlined and an outlined helper:\n  %q\n  %q", inl.Key, out.Key)
	}
}

//go:noinline
func walkFromHere() (pcs [pcBufLen]uintptr, n int) {
	n = callerPCs(pcs[:])
	return pcs, n
}

// A bare goroutine's chain ends at its entry: the walk stops at the nil
// frame pointer, before the buffer is full, in runtime.goexit.
func TestCaptureStackBareGoroutine(t *testing.T) {
	type result struct {
		got, want Stack
		pcs       [pcBufLen]uintptr
		n         int
	}
	ch := make(chan result)
	go func() {
		var r result
		r.got, r.want = captureBoth(0)
		r.pcs, r.n = walkFromHere()
		ch <- r
	}()
	r := <-ch
	checkAgainstCallers(t, "bare goroutine", r.got, r.want)
	if last := r.got.Frames[len(r.got.Frames)-1]; last != "trace.TestCaptureStackBareGoroutine.func1" {
		t.Errorf("outermost frame %q, want the goroutine's function", last)
	}
	if r.n == 0 || r.n == len(r.pcs) {
		t.Fatalf("walk returned %d of %d PCs, want a chain that ends before the buffer does", r.n, len(r.pcs))
	}
	frames := runtime.CallersFrames(r.pcs[:r.n])
	var last runtime.Frame
	for {
		f, more := frames.Next()
		last = f
		if !more {
			break
		}
	}
	if last.Function != "runtime.goexit" {
		t.Errorf("walk ended in %q, want runtime.goexit", last.Function)
	}
}

type capturer struct{ pad [4]int }

//go:noinline
func (c capturer) capture(skip int) (got, want Stack) { return captureBoth(skip) }

// A call through a method value runs an autogenerated wrapper with a
// frame of its own; like runtime.Callers, the capture leaves it out.
func TestCaptureStackElidesWrappers(t *testing.T) {
	f := capturer{}.capture
	for skip := 0; skip <= 2; skip++ {
		got, want := f(skip)
		checkAgainstCallers(t, fmt.Sprintf("method value, skip %d", skip), got, want)
		if strings.Contains(got.Key, "-fm") {
			t.Errorf("skip %d: wrapper frame in %q", skip, got.Key)
		}
	}
}
