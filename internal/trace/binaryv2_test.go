package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/anacin-go/anacinx/internal/vtime"
)

func TestBinaryV2RoundTrip(t *testing.T) {
	tr := buildValidTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != tr.Hash() {
		t.Error("v2 round trip changed the trace hash")
	}
	if got.Meta != tr.Meta {
		t.Errorf("meta changed: %+v vs %+v", got.Meta, tr.Meta)
	}
	if want := tr.Events[1][1].CallstackKey(); got.Events[1][1].CallstackKey() != want {
		t.Errorf("callstack key %q, want %q", got.Events[1][1].CallstackKey(), want)
	}
	if len(got.Events[0][0].Callstack) != 0 {
		t.Errorf("init grew a callstack: %v", got.Events[0][0].Callstack)
	}
}

func TestBinaryV2MetaStoresExactFloat(t *testing.T) {
	tr := buildValidTrace()
	tr.Meta.NDPercent = 0.1 + 0.2 // 0.30000000000000004, not a micro-percent multiple
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Meta.NDPercent) != math.Float64bits(tr.Meta.NDPercent) {
		t.Errorf("v2 NDPercent bits changed: %v -> %v", tr.Meta.NDPercent, got.Meta.NDPercent)
	}
}

func TestBinaryV1NDPercentRounds(t *testing.T) {
	// 0.3*1e6 evaluates to 299999.99999999994; the old truncation decoded
	// it as 0.299999. Rounding restores the exact value.
	tr := buildValidTrace()
	tr.Meta.NDPercent = 0.3
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.NDPercent != 0.3 {
		t.Errorf("v1 NDPercent round trip: got %v, want 0.3", got.Meta.NDPercent)
	}
}

func TestBinaryAutoDetectFile(t *testing.T) {
	tr := buildValidTrace()
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.anctr")
	v2 := filepath.Join(dir, "v2.anctr")
	if err := tr.SaveBinaryFile(v1); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveBinaryV2File(v2); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{v1, v2} {
		got, err := LoadBinaryFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got.Hash() != tr.Hash() {
			t.Errorf("%s: hash changed", path)
		}
	}
}

func TestBinaryUnknownVersionError(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("ANCNTR07")
	buf.WriteString("somebody")
	_, err := ReadBinary(&buf)
	if err == nil || !strings.Contains(err.Error(), "unsupported binary trace version") {
		t.Errorf("want unsupported-version error, got %v", err)
	}
	buf.Reset()
	buf.WriteString("NOTATRACE!")
	_, err = ReadBinary(&buf)
	if err == nil || !strings.Contains(err.Error(), "not a binary trace") {
		t.Errorf("want not-a-binary-trace error, got %v", err)
	}
}

// interleavedTrace builds a trace large enough to force multiple
// segments per rank, with callstacks drawn from a small dictionary.
func interleavedTrace(procs, perRank int) *Trace {
	tr := New(Meta{Pattern: "seg", Procs: procs, Nodes: 2, Iterations: 3, MsgSize: 8, NDPercent: 12.5, Seed: 42})
	stacks := [][]string{
		nil,
		{"patterns.send", "patterns.iter", "patterns.main"},
		{"patterns.recv", "patterns.iter", "patterns.main"},
		{"patterns.wait", "patterns.main"},
	}
	var msgID int64
	for rank := 0; rank < procs; rank++ {
		clock := vtime.Time(0)
		for i := 0; i < perRank; i++ {
			clock += vtime.Time(i%7 + 1)
			ev := Event{
				Rank: rank, Kind: KindSend, Peer: (rank + 1) % procs,
				Tag: i % 4, Size: 8, MsgID: msgID, ChanSeq: i,
				Time: clock, Lamport: int64(i + 1),
				Callstack: stacks[i%len(stacks)],
			}
			msgID++
			tr.Append(ev)
		}
	}
	return tr
}

func TestStreamWriterMultiSegment(t *testing.T) {
	const procs, perRank = 3, 2*v2SegmentEvents + 57
	tr := interleavedTrace(procs, perRank)
	path := filepath.Join(t.TempDir(), "multi.anctr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewStreamWriter(f, tr.Meta)
	// Interleave ranks the way a simulator sink would: round-robin.
	for i := 0; i < perRank; i++ {
		for rank := 0; rank < procs; rank++ {
			sw.Append(tr.Events[rank][i])
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.NumEvents() != procs*perRank {
		t.Errorf("NumEvents = %d, want %d", sw.NumEvents(), procs*perRank)
	}

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Events != procs*perRank || st.Ranks != procs {
		t.Errorf("stats %+v, want %d events over %d ranks", st, procs*perRank, procs)
	}
	if want := procs * 3; st.Segments != want {
		t.Errorf("segments = %d, want %d", st.Segments, want)
	}
	if st.MaxSegmentEvents != v2SegmentEvents {
		t.Errorf("max segment = %d, want %d", st.MaxSegmentEvents, v2SegmentEvents)
	}

	// Cursor streams must match the original rank streams exactly.
	var ev Event
	for rank := 0; rank < procs; rank++ {
		c := r.Cursor(rank)
		for i := 0; c.Next(&ev); i++ {
			want := tr.Events[rank][i]
			if ev.Rank != want.Rank || ev.Seq != want.Seq || ev.Kind != want.Kind ||
				ev.Peer != want.Peer || ev.Tag != want.Tag || ev.Size != want.Size ||
				ev.MsgID != want.MsgID || ev.ChanSeq != want.ChanSeq ||
				ev.Time != want.Time || ev.Lamport != want.Lamport ||
				ev.CallstackKey() != want.CallstackKey() {
				t.Fatalf("rank %d event %d: got %+v, want %+v", rank, i, ev, want)
			}
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		events, _, _, _ := r.RankCounts(rank)
		if events != perRank {
			t.Errorf("rank %d footer events = %d, want %d", rank, events, perRank)
		}
	}
}

func TestReaderOrderHashMatchesTrace(t *testing.T) {
	tr := interleavedTrace(2, 100)
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.OrderHash()
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.OrderHash(); got != want {
		t.Errorf("streamed OrderHash %#x, want %#x", got, want)
	}
}

func TestReaderFooterCounts(t *testing.T) {
	tr := buildValidTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	events, sends, recvs, maxSendID := r.RankCounts(1)
	if events != 3 || sends != 1 || recvs != 0 || maxSendID != 0 {
		t.Errorf("rank 1 counts = (%d,%d,%d,%d), want (3,1,0,0)", events, sends, recvs, maxSendID)
	}
	events, sends, recvs, maxSendID = r.RankCounts(0)
	if events != 3 || sends != 0 || recvs != 1 || maxSendID != -1 {
		t.Errorf("rank 0 counts = (%d,%d,%d,%d), want (3,0,1,-1)", events, sends, recvs, maxSendID)
	}
	if got, want := r.Callstacks(), tr.Callstacks(); len(got) != len(want) {
		t.Errorf("callstacks %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("callstacks %v, want %v", got, want)
				break
			}
		}
	}
}

func TestStreamWriterUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, Meta{Procs: 1})
	sw.Append(Event{Rank: 3})
	if sw.Err() == nil || !strings.Contains(sw.Err().Error(), "out of range") {
		t.Errorf("want rank-range error, got %v", sw.Err())
	}

	buf.Reset()
	sw = NewStreamWriter(&buf, Meta{Procs: 1})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sw.Append(Event{Rank: 0})
	if sw.Err() == nil || !strings.Contains(sw.Err().Error(), "after Close") {
		t.Errorf("want append-after-close error, got %v", sw.Err())
	}
}

// TestStreamWriterRejectsNegativeProcs pins that a negative proc count
// is a sticky error that Close returns, not a makeslice panic.
func TestStreamWriterRejectsNegativeProcs(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, Meta{Procs: -1})
	sw.Append(Event{Rank: 0})
	if err := sw.Close(); err == nil || !strings.Contains(err.Error(), "negative proc count") {
		t.Errorf("Close = %v, want the negative proc count error", err)
	}
}

func TestOpenReaderRejectsV1(t *testing.T) {
	tr := buildValidTrace()
	path := filepath.Join(t.TempDir(), "v1.anctr")
	if err := tr.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	_, err := OpenReader(path)
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Errorf("want v1 rejection, got %v", err)
	}
}

func TestQuickBinaryV2NeverPanicsOnCorruption(t *testing.T) {
	base := interleavedTrace(2, 40)
	var buf bytes.Buffer
	if err := base.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f := func(seed int64, flips uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := vtime.NewRNG(seed)
		mut := append([]byte(nil), raw...)
		for i := 0; i < int(flips)%8+1; i++ {
			mut[rng.Intn(len(mut))] ^= byte(rng.Intn(255) + 1)
		}
		_, _ = ReadBinary(bytes.NewReader(mut)) //nolint:errcheck // error or success both fine
		if r, err := NewReader(bytes.NewReader(mut), int64(len(mut))); err == nil {
			_, _ = r.ToTrace() //nolint:errcheck
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzBinaryRoundTrip drives both binary formats from one fuzzed trace
// shape: v1 must survive an encode/decode/encode cycle byte-identically
// (its micro-percent meta quantization is idempotent after the rounding
// fix), and v2 must round-trip the trace hash and the exact NDPercent
// bit pattern.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(7), uint32(300000))
	f.Add(int64(99), uint8(1), uint8(0), uint32(0))
	f.Add(int64(-5), uint8(4), uint8(11), uint32(4294967295))
	f.Fuzz(func(t *testing.T, seed int64, procsRaw, eventsRaw uint8, ndRaw uint32) {
		rng := vtime.NewRNG(seed)
		procs := int(procsRaw)%5 + 1
		nd := float64(ndRaw) / float64(1<<32) * 100
		tr := New(Meta{Pattern: "fuzz", Procs: procs, Nodes: 1, NDPercent: nd, Seed: seed})
		var msgID int64
		for rank := 0; rank < procs; rank++ {
			lamport := int64(0)
			clock := vtime.Time(0)
			n := int(eventsRaw) % 12
			for i := 0; i < n; i++ {
				lamport++
				clock = clock.Add(vtime.Duration(rng.Intn(1000) + 1))
				ev := Event{Rank: rank, Kind: KindSend, Peer: (rank + 1) % procs,
					Tag: rng.Intn(8), Size: rng.Intn(64), MsgID: msgID,
					ChanSeq: i, Time: clock, Lamport: lamport}
				if rng.Float64() < 0.5 {
					ev.Callstack = []string{"a.b", "c.d"}
				}
				msgID++
				tr.Append(ev)
			}
		}

		// v1: decode must succeed and re-encode byte-identically.
		var v1 bytes.Buffer
		if err := tr.WriteBinary(&v1); err != nil {
			t.Fatal(err)
		}
		dec1, err := ReadBinary(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if want := math.Round(nd*1e6) / 1e6; dec1.Meta.NDPercent != want {
			t.Errorf("v1 NDPercent %v, want %v", dec1.Meta.NDPercent, want)
		}
		var v1again bytes.Buffer
		if err := dec1.WriteBinary(&v1again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v1.Bytes(), v1again.Bytes()) {
			t.Error("v1 encode/decode/encode not idempotent")
		}

		// v2: exact meta and hash round trip.
		var v2 bytes.Buffer
		if err := tr.WriteBinaryV2(&v2); err != nil {
			t.Fatal(err)
		}
		dec2, err := ReadBinary(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(dec2.Meta.NDPercent) != math.Float64bits(nd) {
			t.Errorf("v2 NDPercent bits changed: %v -> %v", nd, dec2.Meta.NDPercent)
		}
		if dec2.Hash() != tr.Hash() {
			t.Error("v2 round trip changed the trace hash")
		}
	})
}
