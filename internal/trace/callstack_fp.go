//go:build amd64 || arm64

package trace

import "unsafe"

// callerFP returns its caller's frame pointer. It is a NOFRAME leaf
// (callerfp_$GOARCH.s), so the frame-pointer register still holds the
// caller's value. The result stays an unsafe.Pointer: stack copying
// adjusts it like any other pointer into the stack.
func callerFP() unsafe.Pointer

// callerPCs fills pcs with the physical return PCs of the goroutine's
// frame-pointer chain, starting in the caller of CaptureStackInterned,
// and returns how many it wrote. Each frame record holds the caller's
// frame pointer at [fp] and the return PC at [fp+ptrSize]; the chain
// ends at the nil frame pointer of the goroutine's entry. This is the
// walk Go's execution tracer makes on amd64 and arm64, and it costs a
// load pair per frame where runtime.Callers decodes each frame's unwind
// tables. Inlined calls have no frame of their own here; decodeFrames
// expands them.
//
//go:noinline
func callerPCs(pcs []uintptr) int {
	// callerFP's caller is this frame; the record it points at links to
	// CaptureStackInterned's frame, whose return PC is the first kept.
	fp := *(*unsafe.Pointer)(callerFP())
	n := 0
	for ; n < len(pcs) && fp != nil; n++ {
		pcs[n] = *(*uintptr)(unsafe.Add(fp, unsafe.Sizeof(uintptr(0))))
		fp = *(*unsafe.Pointer)(fp)
	}
	return n
}
