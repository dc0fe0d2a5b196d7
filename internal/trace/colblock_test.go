package trace

import (
	"bytes"
	"fmt"
	"io"
	"slices"
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

// drainWriterScratch empties the writer scratch pool.
func drainWriterScratch() {
	for writerScratchPool.Get() != nil {
	}
}

// appendRoundRobin appends tr's events to sw, interleaving ranks
// round-robin the way a simulator sink does.
func appendRoundRobin(sw *StreamWriter, tr *Trace) {
	for i := 0; ; i++ {
		any := false
		for _, evs := range tr.Events {
			if i < len(evs) {
				sw.Append(evs[i])
				any = true
			}
		}
		if !any {
			return
		}
	}
}

// writeRoundRobin encodes tr through one StreamWriter, round-robin.
func writeRoundRobin(w io.Writer, tr *Trace) error {
	sw := NewStreamWriter(w, tr.Meta)
	appendRoundRobin(sw, tr)
	return sw.Close()
}

// poolShape is a procs-rank trace of sends and receives whose rank 0
// records hot events (past one segment, if hot exceeds
// v2SegmentEvents) and every other rank a few. With stacks, its
// callstacks are named after tag, so shapes of different tags have
// different dictionaries.
func poolShape(procs, hot int, stacks bool, tag string) *Trace {
	tr := New(Meta{Pattern: "pool-" + tag, Procs: procs, Seed: int64(procs)})
	var msgID int64
	for rank := 0; rank < procs; rank++ {
		n := 3 + rank%4
		if rank == 0 {
			n = hot
		}
		for i := 0; i < n; i++ {
			ev := Event{Rank: rank, Kind: KindRecv, Peer: (rank + 1) % procs, Tag: i % 3,
				MsgID: NoMsg, ChanSeq: i, Time: 1, Lamport: int64(i + 1)}
			if i%2 == 0 {
				ev.Kind, ev.MsgID = KindSend, msgID
				msgID++
			}
			if stacks {
				ev.Callstack = []string{fmt.Sprintf("%s.op%d", tag, i%5), tag + ".main"}
			}
			tr.Append(ev)
		}
	}
	return tr
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
// and pooled writer scratch change no archive byte: the same trace
// encodes identically from empty pools, from pools its own shape
// warmed, and from pools warmed by other shapes. The writer scratch
// shapes move 1024 → 4 → 32 ranks, with stacks on and off, different
// dictionaries, and a 1024-rank hot rank that flushes segments.
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

	shapes := []*Trace{
		poolShape(1024, 3*v2SegmentEvents+100, true, "wide"),
		poolShape(4, 40, false, ""),
		poolShape(32, 200, true, "mid"),
	}
	fresh := make([][]byte, len(shapes))
	for i, tr := range shapes {
		drainWriterScratch()
		drainColBlocks()
		var buf bytes.Buffer
		if err := writeRoundRobin(&buf, tr); err != nil {
			t.Fatal(err)
		}
		fresh[i] = buf.Bytes()
	}
	for round := 0; round < 2; round++ {
		for i, tr := range shapes {
			var buf bytes.Buffer
			if err := writeRoundRobin(&buf, tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), fresh[i]) {
				t.Errorf("round %d: %d-rank archive from recycled writer scratch differs from the fresh-scratch archive",
					round, tr.Meta.Procs)
			}
		}
	}
}

// TestWriterScratchRecycledClean pins what a closed writer hands back
// and what the next writer takes: the returned scratch holds no
// dictionary entry, no column block and no buffered byte, and reset
// leaves no count, maxSendID or segment of the previous trace in any
// rank encoder, whichever way the rank count moves.
func TestWriterScratchRecycledClean(t *testing.T) {
	sw := NewStreamWriter(io.Discard, Meta{Procs: 1024})
	sc := sw.writerScratch
	appendRoundRobin(sw, poolShape(1024, 3*v2SegmentEvents+100, true, "wide"))
	if len(sc.keys) == 0 || len(sc.ranks[0].segs) == 0 || sc.ranks[1].maxSendID < 0 {
		t.Fatal("the first trace must fill the dictionary, flush segments and send")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.writerScratch != nil {
		t.Error("Close kept the writer's scratch")
	}
	if len(sc.dict) != 0 || len(sc.keys) != 0 || slices.ContainsFunc(sc.keys[:cap(sc.keys)], func(k string) bool { return k != "" }) {
		t.Errorf("returned scratch holds %d dictionary entries, %d keys", len(sc.dict), len(sc.keys))
	}
	if sc.bw.Buffered() != 0 {
		t.Errorf("returned scratch buffers %d bytes", sc.bw.Buffered())
	}
	for r := range sc.ranks {
		if re := &sc.ranks[r]; re.cb != nil || re.kinds != nil || re.stacks != nil || re.peers != nil {
			t.Fatalf("rank %d of the returned scratch still holds its columns", r)
		}
	}
	for _, procs := range []int{4, 32, 1024} {
		sc.reset(procs)
		if len(sc.ranks) != procs {
			t.Fatalf("reset(%d) gave %d rank encoders", procs, len(sc.ranks))
		}
		for r := range sc.ranks {
			re := &sc.ranks[r]
			if re.events != 0 || re.sends != 0 || re.recvs != 0 || re.maxSendID != -1 || len(re.segs) != 0 {
				t.Fatalf("reset(%d): rank %d keeps events=%d sends=%d recvs=%d maxSendID=%d segments=%d",
					procs, r, re.events, re.sends, re.recvs, re.maxSendID, len(re.segs))
			}
		}
	}
	if got := sw.NumEvents(); got == 0 {
		t.Error("NumEvents after Close is 0")
	}
	if err := sw.Err(); err != nil {
		t.Errorf("Err after Close: %v", err)
	}
	if _, ok := sw.OrderHash(); ok {
		t.Error("OrderHash held after a rank flushed a segment")
	}
}

// TestWriterScratchPoolBounded pins the writer scratch pool's bounds:
// scratch past maxPooledRanks encoders, maxPooledKeys dictionary keys
// or a maxPooledWriterBuf assembly buffer is left to the collector,
// and a pooled scratch keeps at most maxPooledRankSegs segment entries
// per rank.
func TestWriterScratchPoolBounded(t *testing.T) {
	for _, tc := range []struct {
		name string
		grow func(sc *writerScratch)
	}{
		{"ranks", func(sc *writerScratch) { sc.reset(maxPooledRanks + 1) }},
		{"keys", func(sc *writerScratch) { sc.keys = make([]string, maxPooledKeys+1) }},
		{"payload", func(sc *writerScratch) { sc.payload = make([]byte, 0, maxPooledWriterBuf+1) }},
		{"header", func(sc *writerScratch) { sc.header = make([]byte, 0, maxPooledWriterBuf+1) }},
	} {
		sc := getWriterScratch(8)
		tc.grow(sc)
		if putWriterScratch(sc) {
			t.Errorf("scratch with oversized %s was pooled", tc.name)
		}
	}

	// A writer past the rank bound, end to end, does not pool its
	// scratch. (Draining sees the pool of this goroutine's P, where a
	// Put at Close would have gone, unless the goroutine moved.)
	wide := poolShape(maxPooledRanks+1, 2, false, "")
	sw := NewStreamWriter(io.Discard, wide.Meta)
	sc := sw.writerScratch
	appendRoundRobin(sw, wide)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	for {
		got, ok := writerScratchPool.Get().(*writerScratch)
		if !ok {
			break
		}
		if got == sc {
			t.Errorf("a %d-rank writer's scratch was pooled", maxPooledRanks+1)
		}
	}

	// A rank with more segments than the bound loses its segment slice.
	sw = NewStreamWriter(io.Discard, Meta{Procs: 2})
	sc = sw.writerScratch
	appendRoundRobin(sw, poolShape(2, (maxPooledRankSegs+1)*v2SegmentEvents, false, ""))
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if cap(sc.ranks[0].segs) != 0 {
		t.Errorf("rank 0 flushed %d segments and its pooled segment slice kept capacity %d, want none past %d",
			maxPooledRankSegs+1, cap(sc.ranks[0].segs), maxPooledRankSegs)
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
