package trace

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// encodeLevel encodes tr at a codec level through the StreamWriter,
// appending each rank's events in turn.
func encodeLevel(tr *Trace, level int) ([]byte, error) {
	var buf bytes.Buffer
	sw := NewStreamWriterOptions(&buf, tr.Meta, CodecOptions{Level: level})
	for _, evs := range tr.Events {
		for i := range evs {
			sw.Append(evs[i])
		}
	}
	err := sw.Close()
	return buf.Bytes(), err
}

// TestCodecLevelRoundTrips pins the compression-level knob: non-default
// levels legitimately change the archived bytes, but every level must
// decode back to the source trace, and the default level is exactly
// WriteBinaryV2's archive.
func TestCodecLevelRoundTrips(t *testing.T) {
	tr := interleavedTrace(2, v2SegmentEvents+91)
	for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, 1, 6, flate.BestCompression} {
		data, err := encodeLevel(tr, level)
		if err != nil {
			t.Fatalf("level=%d: %v", level, err)
		}
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("level=%d: %v", level, err)
		}
		if got.Hash() != tr.Hash() {
			t.Errorf("level=%d round trip changed the trace hash", level)
		}
	}
	def, err := encodeLevel(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tr.WriteBinaryV2(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(def, want.Bytes()) {
		t.Error("zero CodecOptions differ from WriteBinaryV2")
	}
	if _, err := encodeLevel(tr, 42); err == nil {
		t.Error("out-of-range compression level accepted")
	}
}

// goroutineProbe is an io.Writer that checks, at every Write, the
// process's goroutine count against base, the count taken before the
// writer under test was built.
type goroutineProbe struct {
	bytes.Buffer
	base   int
	writes int
	off    []int // goroutine counts seen at Writes where it was not base
}

func (w *goroutineProbe) Write(p []byte) (int, error) {
	w.writes++
	if n := runtime.NumGoroutine(); n != w.base {
		w.off = append(w.off, n)
	}
	return w.Buffer.Write(p)
}

// settledGoroutines returns the goroutine count once it has held still
// for a few milliseconds, so goroutines that earlier tests joined have
// finished exiting before a test takes its baseline.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 1000 && still < 5; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestStreamWriterDefaultStartsNoGoroutines pins compression as inline
// at every level, the default included: a StreamWriter encoding an
// interleaved multi-segment trace, on a multi-core GOMAXPROCS, writes
// every block from the appending goroutine with no codec goroutine
// alive. Callers such as the campaign run pool already run one writer
// per core, so a writer must not add a level of parallelism under them.
func TestStreamWriterDefaultStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const procs, perRank = 4, 2*v2SegmentEvents + 57
	tr := interleavedTrace(procs, perRank)
	// Random message sizes keep each segment block kilobytes long after
	// DEFLATE, so blocks reach the io.Writer while events still arrive.
	rng := rand.New(rand.NewSource(1))
	for _, evs := range tr.Events {
		for i := range evs {
			evs[i].Size = rng.Intn(1 << 24)
		}
	}

	for _, level := range []int{0, flate.HuffmanOnly, flate.NoCompression, 1, 6, flate.BestCompression} {
		probe := &goroutineProbe{base: settledGoroutines()}
		sw := NewStreamWriterOptions(probe, tr.Meta, CodecOptions{Level: level})
		for i := 0; i < perRank; i++ {
			for rank := 0; rank < procs; rank++ {
				sw.Append(tr.Events[rank][i])
			}
		}
		appendWrites := probe.writes
		if err := sw.Close(); err != nil {
			t.Fatalf("level=%d: %v", level, err)
		}
		if len(probe.off) > 0 {
			t.Errorf("level=%d: %d of %d writes ran with goroutine counts %v, want %d at every write",
				level, len(probe.off), probe.writes, probe.off, probe.base)
		}
		if appendWrites == 0 {
			t.Fatalf("level=%d: no block reached the io.Writer before Close: the trace is too small to exercise segment flushes", level)
		}
		got, err := ReadBinary(bytes.NewReader(probe.Bytes()))
		if err != nil {
			t.Fatalf("level=%d: %v", level, err)
		}
		if got.Hash() != tr.Hash() {
			t.Errorf("level=%d: inline encode changed the trace hash", level)
		}
	}
}

// streamedArchive encodes tr through a round-robin StreamWriter, the
// interleaving that makes segments of different ranks share compressed
// blocks — the shape the concurrent-cursor tests need.
func streamedArchive(t *testing.T, tr *Trace, perRank int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, tr.Meta)
	for i := 0; i < perRank; i++ {
		for rank := range tr.Events {
			sw.Append(tr.Events[rank][i])
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// collectRank drains one cursor into comparable snapshots: every field
// rendered into one string, with the callstack collapsed to its
// interned key (Event itself holds a slice, so it isn't ==-comparable).
type eventSnap string

func snapOf(ev *Event) eventSnap {
	return eventSnap(fmt.Sprintf("%d|%d|%v|%d|%d|%d|%d|%d|%v|%d|%q",
		ev.Rank, ev.Seq, ev.Kind, ev.Peer, ev.Tag, ev.Size,
		ev.MsgID, ev.ChanSeq, ev.Time, ev.Lamport, ev.CallstackKey()))
}

func collectRank(c *Cursor) ([]eventSnap, error) {
	var out []eventSnap
	var ev Event
	for c.Next(&ev) {
		out = append(out, snapOf(&ev))
	}
	return out, c.Err()
}

// TestConcurrentCursorsMatchSerial runs one cursor per rank
// concurrently over a single shared Reader — the graph builder's access
// pattern — and requires every stream to equal a serial pass over the
// same Reader. Under -race this doubles as the data-race pin for the
// shared-block cache and the pooled inflaters. Two concurrent passes
// follow the serial one, so the second exercises the cache after the
// first pass exhausted every shared block's refcount.
func TestConcurrentCursorsMatchSerial(t *testing.T) {
	const procs, perRank = 8, v2SegmentEvents/2 + 77
	tr := interleavedTrace(procs, perRank)
	data := streamedArchive(t, tr, perRank)

	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}

	want := make([][]eventSnap, procs)
	for rank := 0; rank < procs; rank++ {
		if want[rank], err = collectRank(r.Cursor(rank)); err != nil {
			t.Fatal(err)
		}
		if len(want[rank]) != perRank {
			t.Fatalf("serial rank %d drained %d events, want %d", rank, len(want[rank]), perRank)
		}
	}

	for pass := 0; pass < 2; pass++ {
		got := make([][]eventSnap, procs)
		errs := make([]error, procs)
		var wg sync.WaitGroup
		for rank := 0; rank < procs; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				got[rank], errs[rank] = collectRank(r.Cursor(rank))
			}(rank)
		}
		wg.Wait()
		for rank := 0; rank < procs; rank++ {
			if errs[rank] != nil {
				t.Fatalf("pass %d rank %d: %v", pass, rank, errs[rank])
			}
			if err := snapsEqual(want[rank], got[rank]); err != nil {
				t.Fatalf("pass %d rank %d: concurrent stream diverged from serial: %v", pass, rank, err)
			}
		}
	}
}

func snapsEqual(want, got []eventSnap) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
