package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// meshArchive streams one 32-rank unstructured_mesh run (2 nodes, 50%
// ND, stacks on) into a v2 file through the real streaming pipeline
// and returns its path. At this width every rank's tail lands in a
// multi-rank drain block, the blocks the Reader shares across cursors.
func meshArchive(t testing.TB, iterations int) string {
	t.Helper()
	e := DefaultExperiment("unstructured_mesh", 32, 50)
	e.Nodes = 2
	e.Iterations = iterations
	e.Runs = 1
	pat, err := patterns.ByName(e.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	program, err := pat.Program(e.params())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.anctr")
	if _, _, _, err := e.streamRun(context.Background(), 0, pat, sim.Adapt(program), path, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// countingReaderAt counts the bytes read through it.
type countingReaderAt struct {
	src io.ReaderAt
	n   atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.src.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// openCounting opens path as a Reader whose file reads are counted.
func openCounting(t *testing.T, path string) (*trace.Reader, *countingReaderAt) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	src := &countingReaderAt{src: f}
	r, err := trace.NewReader(src, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Segments <= r.Procs()/2 {
		t.Fatalf("%d segments over %d ranks: archive has no multi-rank blocks to share", r.Stats().Segments, r.Procs())
	}
	return r, src
}

// TestStreamPassesInflateEachBlockOnce pins that every full pass over
// one Reader — an embedding, then the order hash, then one more
// embedding — reads the archive's blocks exactly once.
// A multi-rank drain block re-inflated per referencing rank on a later
// pass would read its bytes once per rank instead.
func TestStreamPassesInflateEachBlockOnce(t *testing.T) {
	r, src := openCounting(t, meshArchive(t, 8))
	k := kernel.NewWL(2)
	passes := []func() error{
		func() error { _, err := kernel.FeaturesFromReader(k, r); return err },
		func() error { _, err := r.OrderHash(); return err },
		func() error { _, err := kernel.FeaturesFromReader(k, r); return err },
	}
	var read []int64
	for i, pass := range passes {
		before := src.n.Load()
		if err := pass(); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
		read = append(read, src.n.Load()-before)
	}
	if read[0] == 0 || read[1] != read[0] || read[2] != read[0] {
		t.Errorf("bytes read per pass = %v, want three equal non-zero counts", read)
	}
}

// TestConcurrentPassesOnSharedReaderMatchSerial runs whole embedding
// and order-hash passes on several goroutines at once over one Reader:
// the passes interleave their shared-block acquires, and every result
// must still equal the serial one.
func TestConcurrentPassesOnSharedReaderMatchSerial(t *testing.T) {
	r, err := trace.OpenReader(meshArchive(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	k := kernel.NewWL(2)
	wantFV, err := kernel.FeaturesFromReader(k, r)
	if err != nil {
		t.Fatal(err)
	}
	wantOH, err := r.OrderHash()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				oh, err := r.OrderHash()
				if err != nil {
					errs[g] = err
					return
				}
				fv, err := kernel.FeaturesFromReader(k, r)
				if err != nil {
					errs[g] = err
					return
				}
				if oh != wantOH || !reflect.DeepEqual(fv, wantFV) {
					errs[g] = fmt.Errorf("pass %d: result differs from the serial one", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestStreamEmbedAllocsBoundedByWindow pins that a streaming embedding
// allocates in proportion to its peak window, not its event count. On
// unstructured_mesh the window itself grows with run length (448 to 783
// nodes from 8 to 32 iterations at 50% ND), so the bound is per window
// node: four times the iterations, about four times the events, must
// grow neither the allocations nor the bytes allocated per window node
// of a pass by half.
func TestStreamEmbedAllocsBoundedByWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector's sync.Pool are not meaningful")
	}
	perWindowNode := func(iterations int) (allocs, bytes float64) {
		r, err := trace.OpenReader(meshArchive(t, iterations))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		k := kernel.NewWL(2)
		var stats kernel.StreamStats
		pass := func() {
			if _, stats, err = k.FeaturesFromReaderStats(r); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(5, pass)
		// The least of several passes: a GC that empties the scratch
		// pools mid-pass makes that one pass refill them.
		bytes = math.Inf(1)
		var before, after runtime.MemStats
		for i := 0; i < 10; i++ {
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		t.Logf("%d iterations: %d events, peak window %d, %.0f allocs and %.0f bytes per pass",
			iterations, stats.Events, stats.MaxWindow, allocs, bytes)
		w := float64(stats.MaxWindow)
		return allocs / w, bytes / w
	}
	smallAllocs, smallBytes := perWindowNode(8)
	bigAllocs, bigBytes := perWindowNode(32)
	if bigAllocs >= 1.5*smallAllocs {
		t.Errorf("allocations per window node grew %.2f -> %.2f under 4x iterations", smallAllocs, bigAllocs)
	}
	if bigBytes >= 1.5*smallBytes {
		t.Errorf("bytes allocated per window node grew %.0f -> %.0f under 4x iterations", smallBytes, bigBytes)
	}
}
