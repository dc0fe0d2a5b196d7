// Package par runs independent, index-addressed work items on a
// bounded set of goroutines. Every parallel loop in the pipeline has
// that shape: runs of one configuration, cells of a grid, ranks of a
// trace, graphs of a Gram matrix, patterns of a sweep. Each caller
// writes item i's result to its own slot i, so the output does not
// depend on how the items were scheduled.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls fn(i) for every i in [0, n) on min(workers, n)
// goroutines; workers <= 0 means GOMAXPROCS. Workers claim indices in
// increasing order from a shared counter, so a slow item never holds
// back the items after it. One worker is the calling goroutine, so
// workers = 1 runs the loop inline, in order. ForEach returns once
// every call has returned.
func ForEach(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		// The serial loop allocates nothing, which keeps small inputs
		// (one worker below the callers' parallel thresholds) as cheap
		// as a plain for loop.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
