package serve

import (
	"context"
	"os"
	"sync"
	"testing"

	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/trace"
)

// recordArchiveDirs overrides the cell executor with fake cells and
// returns the archive directory each cell was computed with. Like
// swapRunCell, callers must not run in parallel (package-global state).
func recordArchiveDirs(t *testing.T) func() []string {
	t.Helper()
	var mu sync.Mutex
	var dirs []string
	old := runCellFn
	runCellFn = func(_ context.Context, g campaign.Grid, spec campaign.CellSpec, _ int, dir string, _ trace.CodecOptions) campaign.Cell {
		mu.Lock()
		defer mu.Unlock()
		dirs = append(dirs, dir)
		return fakeCell(g, spec)
	}
	t.Cleanup(func() { runCellFn = old })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), dirs...)
	}
}

// TestArchiveDirRoutesCellsThroughStreaming pins the serve wiring: a
// server configured with ArchiveDir computes every cell with the
// configured directory, so each run streams into its archive.
func TestArchiveDirRoutesCellsThroughStreaming(t *testing.T) {
	dirs := recordArchiveDirs(t)
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{MaxCells: 8, MaxRuns: 10, ArchiveDir: dir})
	v := submit(t, ts, smallBody)
	waitStatus(t, ts, v.ID, StatusDone)

	got := dirs()
	if len(got) != v.Total {
		t.Errorf("executor ran %d cells, want %d", len(got), v.Total)
	}
	for _, d := range got {
		if d != dir {
			t.Errorf("cell computed with archive dir %q, want %q", d, dir)
		}
	}
}

// TestNoArchiveDirWritesNoTraces pins the default: without ArchiveDir
// every cell is computed with no archive directory, and real cells
// then create nothing, not even in the temporary directory.
func TestNoArchiveDirWritesNoTraces(t *testing.T) {
	t.Run("wiring", func(t *testing.T) {
		dirs := recordArchiveDirs(t)
		_, ts := newTestServer(t, Config{MaxCells: 8, MaxRuns: 10})
		v := submit(t, ts, smallBody)
		waitStatus(t, ts, v.ID, StatusDone)
		got := dirs()
		if len(got) != v.Total {
			t.Errorf("executor ran %d cells, want %d", len(got), v.Total)
		}
		for _, d := range got {
			if d != "" {
				t.Errorf("cell computed with archive dir %q, want none", d)
			}
		}
	})
	t.Run("real cells", func(t *testing.T) {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		_, ts := newTestServer(t, Config{MaxCells: 8, MaxRuns: 10})
		v := submit(t, ts, smallBody)
		waitStatus(t, ts, v.ID, StatusDone)
		if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
			t.Errorf("unarchived cells left %d entries in TMPDIR (err %v)", len(left), err)
		}
	})
}
