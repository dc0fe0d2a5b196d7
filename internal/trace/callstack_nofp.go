//go:build !amd64 && !arm64

package trace

import "runtime"

// callerPCs fills pcs with the logical PCs of the caller of
// CaptureStackInterned and its callers, and returns how many it wrote.
// This is the fallback for architectures whose Go ABI keeps no frame
// pointers; decodeFrames reads these PCs under the same contract as the
// frame-pointer walk's.
//
//go:noinline
func callerPCs(pcs []uintptr) int {
	// Skip runtime.Callers, callerPCs and CaptureStackInterned.
	return runtime.Callers(3, pcs)
}
