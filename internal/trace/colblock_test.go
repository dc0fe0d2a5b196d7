package trace

import (
	"bytes"
	"io"
	"testing"
)

// drainColBlocks empties the column-block pool and returns what it
// held.
func drainColBlocks() []*colBlock {
	var out []*colBlock
	for {
		cb, ok := colBlockPool.Get().(*colBlock)
		if !ok {
			return out
		}
		out = append(out, cb)
	}
}

// writeRoundRobin encodes tr through one StreamWriter, interleaving
// ranks round-robin the way a simulator sink does.
func writeRoundRobin(w io.Writer, tr *Trace) error {
	sw := NewStreamWriter(w, tr.Meta)
	for i := 0; ; i++ {
		any := false
		for _, evs := range tr.Events {
			if i < len(evs) {
				sw.Append(evs[i])
				any = true
			}
		}
		if !any {
			return sw.Close()
		}
	}
}

// TestStreamWriterReusesGrownColumns pins that the pool keeps the
// column capacity a writer's ranks grew to: a second writer of the same
// rank shape starts every rank at that size and so allocates none of
// the growth steps the first writer paid for.
func TestStreamWriterReusesGrownColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	const procs, perRank = 32, 600
	tr := interleavedTrace(procs, perRank)
	write := func() {
		if err := writeRoundRobin(io.Discard, tr); err != nil {
			t.Fatal(err)
		}
	}
	// Each growth step moves a rank to a new block: three allocations.
	steps := 0
	for c := colBlockCap; c < perRank; c *= 2 {
		steps++
	}
	growth := float64(procs * 3 * steps)

	cold := testing.AllocsPerRun(3, func() {
		drainColBlocks()
		write()
	})
	// The least of several warm writers: a GC that empties the pool
	// between two writers makes the second one refill it.
	warm := cold
	for i := 0; i < 5; i++ {
		warm = min(warm, testing.AllocsPerRun(1, write))
	}
	t.Logf("allocs per writer: cold pool %.0f, warm pool %.0f (column growth %.0f)", cold, warm, growth)
	if cold-warm < growth {
		t.Errorf("a warm writer saved %.0f allocations over a cold one, want at least the %.0f of column growth",
			cold-warm, growth)
	}
}

// TestStreamWriterBytesIndependentOfPool pins that pooled column blocks
// change no archive byte: the same trace encodes identically from an
// empty pool, from a pool its own shape warmed, and from a pool warmed
// by a wider, longer trace.
func TestStreamWriterBytesIndependentOfPool(t *testing.T) {
	tr := interleavedTrace(5, 2*v2SegmentEvents+300)
	encode := func() []byte {
		var buf bytes.Buffer
		if err := writeRoundRobin(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	drainColBlocks()
	cold := encode()
	if warm := encode(); !bytes.Equal(cold, warm) {
		t.Error("archive from a warmed pool differs from the cold-pool archive")
	}
	if err := writeRoundRobin(io.Discard, interleavedTrace(64, 700)); err != nil {
		t.Fatal(err)
	}
	if other := encode(); !bytes.Equal(cold, other) {
		t.Error("archive from a pool warmed by another shape differs from the cold-pool archive")
	}
}

// TestColBlockPoolBoundedPerRank pins the pool's memory bound: after a
// 1024-rank writer whose hot ranks run several segments long, the pool
// holds at most one block per rank, none larger than one segment.
func TestColBlockPoolBoundedPerRank(t *testing.T) {
	const procs = 1024
	tr := New(Meta{Pattern: "wide", Procs: procs})
	for rank := 0; rank < procs; rank++ {
		n := rank%3 + 1
		if rank%64 == 0 {
			n = 2*v2SegmentEvents + 500
		}
		for i := 0; i < n; i++ {
			tr.Append(Event{Rank: rank, Kind: KindBarrier, MsgID: NoMsg, Time: 1})
		}
	}
	drainColBlocks()
	if err := writeRoundRobin(io.Discard, tr); err != nil {
		t.Fatal(err)
	}
	blocks := drainColBlocks()
	if len(blocks) > procs {
		t.Errorf("pool holds %d blocks after a %d-rank writer", len(blocks), procs)
	}
	largest := 0
	for _, cb := range blocks {
		c := cap(cb.kinds)
		largest = max(largest, c)
		if c > v2SegmentEvents || cap(cb.stacks) != c || len(cb.i64) != 7*c {
			t.Errorf("pooled block holds %d kinds, %d stacks, %d numeric values; want equal columns of at most %d events",
				c, cap(cb.stacks), len(cb.i64), v2SegmentEvents)
		}
	}
	if largest != v2SegmentEvents {
		t.Errorf("largest pooled block holds %d events; the hot ranks should have grown one to %d", largest, v2SegmentEvents)
	}
}
