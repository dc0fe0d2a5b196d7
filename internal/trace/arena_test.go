package trace

import "testing"

// Constructing a trace for a large rank count must not allocate one
// backing slice per rank up front: at P = 4096 the flat per-rank
// make([]Event, 0, hint) this replaces performed P allocations before
// the simulation recorded a single event.
func TestNewWithCapacityAllocatesLazily(t *testing.T) {
	const procs = 4096
	allocs := testing.AllocsPerRun(10, func() {
		tr := NewWithCapacity(Meta{Procs: procs}, 64)
		if tr.Events[procs-1] != nil {
			t.Fatal("per-rank storage allocated before first append")
		}
	})
	// Trace struct, Events header, Meta internals — constant, not O(P).
	if allocs > 8 {
		t.Errorf("NewWithCapacity(procs=%d) = %.0f allocs, want O(1)", procs, allocs)
	}
}

// Ranks that never record an event never get storage; ranks that do get
// it on first append.
func TestArenaCarvesOnFirstAppend(t *testing.T) {
	tr := NewWithCapacity(Meta{Procs: 8}, 16)
	tr.Append(Event{Rank: 3, Kind: KindInit})
	for r := 0; r < 8; r++ {
		if r == 3 {
			if len(tr.Events[r]) != 1 {
				t.Errorf("rank %d: len = %d, want 1", r, len(tr.Events[r]))
			}
			continue
		}
		if tr.Events[r] != nil {
			t.Errorf("rank %d never appended but has storage (cap %d)", r, cap(tr.Events[r]))
		}
	}
}

// Rank carvings share arena chunks, so a rank that outgrows its hint
// must spill into a fresh slice instead of stomping its neighbour's
// carving. Interleave appends across ranks and overflow one of them.
func TestArenaOverflowDoesNotCorruptNeighbors(t *testing.T) {
	const hint = 4
	tr := NewWithCapacity(Meta{Procs: 3}, hint)
	// Touch ranks in order so their carvings are adjacent in the arena.
	for r := 0; r < 3; r++ {
		tr.Append(Event{Rank: r, Kind: KindInit, MsgID: int64(100 * r)})
	}
	// Overflow rank 0 far past its hint while the others sit adjacent.
	for i := 1; i < 4*hint; i++ {
		tr.Append(Event{Rank: 0, Kind: KindSend, MsgID: int64(i)})
	}
	for r := 1; r < 3; r++ {
		if got := tr.Events[r][0].MsgID; got != int64(100*r) {
			t.Errorf("rank %d event overwritten: MsgID = %d, want %d", r, got, 100*r)
		}
	}
	for i, e := range tr.Events[0] {
		if e.MsgID != int64(i) || e.Seq != i {
			t.Fatalf("rank 0 event %d corrupted after overflow: %+v", i, e)
		}
	}
}

// The hint is a capacity hint, not a bound: zero or negative hints fall
// back to plain append growth.
func TestArenaZeroHintStillAppends(t *testing.T) {
	tr := NewWithCapacity(Meta{Procs: 2}, 0)
	tr.Append(Event{Rank: 1, Kind: KindInit})
	tr.Append(Event{Rank: 1, Kind: KindFinalize})
	if len(tr.Events[1]) != 2 || tr.Events[1][1].Seq != 1 {
		t.Errorf("zero-hint trace mis-appended: %+v", tr.Events[1])
	}
}

// Appending within the hint costs one carve per active rank, not one
// backing-array growth per rank per doubling.
func TestArenaAppendAllocsWithinHint(t *testing.T) {
	const procs, hint = 64, 16
	allocs := testing.AllocsPerRun(10, func() {
		tr := NewWithCapacity(Meta{Procs: procs}, hint)
		for r := 0; r < procs; r++ {
			for i := 0; i < hint; i++ {
				tr.Append(Event{Rank: r, Kind: KindSend})
			}
		}
	})
	// procs*hint = 1024 events fit in one 4096-event arena chunk, so the
	// whole loop costs the constructor's allocations plus one chunk.
	if allocs > 16 {
		t.Errorf("appending %d events within hint = %.0f allocs, want ~chunk count", procs*hint, allocs)
	}
}

// A stream that overflows its hint by orders of magnitude — rank 0 of a
// 1024-rank message race records ~24.5k events against a 50-event hint —
// grows geometrically: each full stream doubles, so the copies number
// O(log n), not the dozens that append's ~1.25x large-slice growth costs.
func TestArenaOverflowGrowsGeometrically(t *testing.T) {
	const procs, hint, events = 1024, 50, 24_554
	allocs := testing.AllocsPerRun(5, func() {
		tr := NewWithCapacity(Meta{Procs: procs}, hint)
		for i := 0; i < events; i++ {
			tr.Append(Event{Rank: 0, Kind: KindSend})
		}
	})
	t.Logf("%d appends to one rank: %.0f allocs", events, allocs)
	if allocs > 11 {
		t.Errorf("%d appends to one rank = %.0f allocs, want <= 11", events, allocs)
	}
}
