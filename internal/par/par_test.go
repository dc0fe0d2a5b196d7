package par

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id, parsed from the
// "goroutine N [running]:" header of its stack trace.
func goid(t *testing.T) uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	f := bytes.Fields(buf)
	if len(f) < 2 {
		t.Errorf("unparseable stack header %q", buf)
		return 0
	}
	id, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		t.Errorf("unparseable stack header %q: %v", buf, err)
	}
	return id
}

func TestForEach(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 8, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				caller := goid(t)
				visits := make([]atomic.Int32, n)
				var (
					mu    sync.Mutex
					order []int
					gids  = map[uint64]bool{}
				)
				ForEach(workers, n, func(i int) {
					id := goid(t)
					visits[i].Add(1)
					mu.Lock()
					order = append(order, i)
					gids[id] = true
					mu.Unlock()
				})
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Errorf("index %d visited %d times, want 1", i, v)
					}
				}
				want := workers
				if want <= 0 {
					want = runtime.GOMAXPROCS(0)
				}
				if want = min(want, n); len(gids) > want {
					t.Errorf("fn ran on %d goroutines, want at most %d", len(gids), want)
				}
				if workers != 1 {
					return
				}
				if n > 0 && (len(gids) != 1 || !gids[caller]) {
					t.Errorf("workers=1 ran fn off the caller's goroutine")
				}
				for i, got := range order {
					if got != i {
						t.Fatalf("workers=1: call %d got index %d, want in-order", i, got)
					}
				}
			})
		}
	}
}
