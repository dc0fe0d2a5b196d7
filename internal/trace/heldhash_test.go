package trace

import (
	"bytes"
	"testing"
)

// sparseTrace is a trace whose ranks listed in empty record no events
// and whose other ranks record perRank events of varied kind, peer, tag
// and channel sequence, so every field the order hash folds changes.
func sparseTrace(procs, perRank int, empty ...int) *Trace {
	tr := New(Meta{Pattern: "sparse", Procs: procs, Seed: 7})
	skip := make(map[int]bool)
	for _, r := range empty {
		skip[r] = true
	}
	kinds := []EventKind{KindInit, KindSend, KindRecv, KindIsend, KindWait, KindBarrier, KindFinalize}
	for rank := 0; rank < procs; rank++ {
		if skip[rank] {
			continue
		}
		for i := 0; i < perRank; i++ {
			tr.Append(Event{
				Rank: rank, Kind: kinds[(i+rank)%len(kinds)], Peer: (rank + i) % procs,
				Tag: i % 5, MsgID: NoMsg, ChanSeq: i / 3, Time: 1, Lamport: int64(i + 1),
			})
		}
	}
	return tr
}

// TestStreamWriterOrderHashHeld checks the writer's held-column order
// hash against both oracles, Trace.OrderHash of the trace it was given
// and Reader.OrderHash of the file it wrote, and that a writer with a
// flushed rank, a failed writer and an open one report no hash.
func TestStreamWriterOrderHashHeld(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Trace
		held bool
	}{
		{"interleaved", interleavedTrace(5, 300), true},
		{"zero-event ranks", sparseTrace(7, 40, 0, 3, 6), true},
		{"every rank empty", sparseTrace(3, 0), true},
		{"no ranks", New(Meta{Pattern: "none"}), true},
		{"one event short of a segment", sparseTrace(2, v2SegmentEvents-1), true},
		{"one full segment", sparseTrace(2, v2SegmentEvents), false},
		{"a rank past one segment", sparseTrace(3, v2SegmentEvents+200, 1), false},
	} {
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf, tc.tr.Meta)
		appendRoundRobin(sw, tc.tr)
		if _, ok := sw.OrderHash(); ok {
			t.Errorf("%s: OrderHash reported a hash before Close", tc.name)
		}
		if err := sw.Close(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fromFile, err := r.OrderHash()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := tc.tr.OrderHash(); fromFile != want {
			t.Fatalf("%s: Reader.OrderHash %#x, Trace.OrderHash %#x", tc.name, fromFile, want)
		}
		got, ok := sw.OrderHash()
		if ok != tc.held {
			t.Errorf("%s: OrderHash reported held=%v, want %v", tc.name, ok, tc.held)
		}
		if ok && got != fromFile {
			t.Errorf("%s: held OrderHash %#x, file and trace %#x", tc.name, got, fromFile)
		}
	}

	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, Meta{Procs: 2})
	sw.Append(Event{Rank: 0, Kind: KindSend})
	sw.Append(Event{Rank: 5, Kind: KindSend})
	if err := sw.Close(); err == nil {
		t.Fatal("out-of-range rank: Close returned no error")
	}
	if _, ok := sw.OrderHash(); ok {
		t.Error("a failed writer reported a held OrderHash")
	}
}
