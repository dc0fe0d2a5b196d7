package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

// buildValidTrace constructs a small well-formed 2-rank trace:
// rank 1 sends one message to rank 0.
func buildValidTrace() *Trace {
	t := New(Meta{Pattern: "test", Procs: 2, Nodes: 1, Iterations: 1, MsgSize: 1, NDPercent: 0, Seed: 7})
	t.Append(Event{Rank: 0, Kind: KindInit, Peer: NoPeer, MsgID: NoMsg, Time: 0, Lamport: 1})
	t.Append(Event{Rank: 1, Kind: KindInit, Peer: NoPeer, MsgID: NoMsg, Time: 0, Lamport: 1})
	t.Append(Event{Rank: 1, Kind: KindSend, Peer: 0, Tag: 3, Size: 8, MsgID: 0, Time: 100, Lamport: 2,
		Callstack: []string{"patterns.send", "patterns.main"}})
	t.Append(Event{Rank: 0, Kind: KindRecv, Peer: 1, Tag: 3, Size: 8, MsgID: 0, Time: 200, Lamport: 3,
		Callstack: []string{"patterns.recv", "patterns.main"}})
	t.Append(Event{Rank: 0, Kind: KindFinalize, Peer: NoPeer, MsgID: NoMsg, Time: 300, Lamport: 4})
	t.Append(Event{Rank: 1, Kind: KindFinalize, Peer: NoPeer, MsgID: NoMsg, Time: 300, Lamport: 3})
	return t
}

func TestKindString(t *testing.T) {
	cases := map[EventKind]string{
		KindInit: "init", KindSend: "send", KindRecv: "recv",
		KindBarrier: "barrier", KindAlltoall: "alltoall",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(EventKind(200).String(), "200") {
		t.Error("unknown kind should format its number")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for k := EventKind(0); k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) should fail")
	}
}

func TestKindPredicates(t *testing.T) {
	if !KindSend.IsSend() || !KindIsend.IsSend() || KindRecv.IsSend() {
		t.Error("IsSend is wrong")
	}
	if !KindRecv.IsReceive() || !KindWait.IsReceive() || KindIrecv.IsReceive() || KindSend.IsReceive() {
		t.Error("IsReceive is wrong")
	}
	if KindSend.IsCollective() || !KindBarrier.IsCollective() || !KindAlltoall.IsCollective() {
		t.Error("IsCollective is wrong")
	}
}

func TestAppendAssignsSeq(t *testing.T) {
	tr := New(Meta{Procs: 2})
	tr.Append(Event{Rank: 1, Kind: KindInit})
	tr.Append(Event{Rank: 1, Kind: KindFinalize})
	if tr.Events[1][0].Seq != 0 || tr.Events[1][1].Seq != 1 {
		t.Errorf("Seq assignment wrong: %+v", tr.Events[1])
	}
}

func TestAppendPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with bad rank did not panic")
		}
	}()
	New(Meta{Procs: 1}).Append(Event{Rank: 5})
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	tr := buildValidTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejectsDuplicateRecv(t *testing.T) {
	tr := buildValidTrace()
	tr.Append(Event{Rank: 1, Kind: KindRecv, Peer: 0, MsgID: 0, Time: 400, Lamport: 5})
	if err := tr.Validate(); err == nil {
		t.Error("duplicate recv of same MsgID accepted")
	}
}

func TestValidateRejectsUnsentRecv(t *testing.T) {
	tr := New(Meta{Procs: 1})
	tr.Append(Event{Rank: 0, Kind: KindRecv, Peer: 0, MsgID: 99, Lamport: 1})
	if err := tr.Validate(); err == nil {
		t.Error("recv of never-sent MsgID accepted")
	}
}

func TestValidateRejectsTimeRegression(t *testing.T) {
	tr := New(Meta{Procs: 1})
	tr.Append(Event{Rank: 0, Kind: KindInit, MsgID: NoMsg, Time: 100, Lamport: 1})
	tr.Append(Event{Rank: 0, Kind: KindFinalize, MsgID: NoMsg, Time: 50, Lamport: 2})
	if err := tr.Validate(); err == nil {
		t.Error("time regression accepted")
	}
}

func TestValidateRejectsLamportRegression(t *testing.T) {
	tr := New(Meta{Procs: 1})
	tr.Append(Event{Rank: 0, Kind: KindInit, MsgID: NoMsg, Time: 0, Lamport: 5})
	tr.Append(Event{Rank: 0, Kind: KindFinalize, MsgID: NoMsg, Time: 1, Lamport: 5})
	if err := tr.Validate(); err == nil {
		t.Error("non-increasing lamport accepted")
	}
}

func TestValidateRejectsBadKind(t *testing.T) {
	tr := New(Meta{Procs: 1})
	tr.Append(Event{Rank: 0, Kind: EventKind(99), MsgID: NoMsg, Lamport: 1})
	if err := tr.Validate(); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestNumEventsAndCounts(t *testing.T) {
	tr := buildValidTrace()
	if n := tr.NumEvents(); n != 6 {
		t.Errorf("NumEvents = %d, want 6", n)
	}
	counts := tr.KindCounts()
	if counts[KindInit] != 2 || counts[KindSend] != 1 || counts[KindRecv] != 1 || counts[KindFinalize] != 2 {
		t.Errorf("KindCounts = %v", counts)
	}
	if tr.MatchedPairs() != 1 {
		t.Errorf("MatchedPairs = %d, want 1", tr.MatchedPairs())
	}
}

func TestMaxLamport(t *testing.T) {
	tr := buildValidTrace()
	if got := tr.MaxLamport(); got != 4 {
		t.Errorf("MaxLamport = %d, want 4", got)
	}
	if got := New(Meta{Procs: 1}).MaxLamport(); got != 0 {
		t.Errorf("empty MaxLamport = %d, want 0", got)
	}
}

func TestEventLabel(t *testing.T) {
	e := Event{Kind: KindRecv}
	if e.Label() != "recv" {
		t.Errorf("Label = %q", e.Label())
	}
}

func TestCallstackKey(t *testing.T) {
	e := Event{Callstack: []string{"a", "b", "c"}}
	if e.CallstackKey() != "a;b;c" {
		t.Errorf("CallstackKey = %q", e.CallstackKey())
	}
	empty := Event{}
	if empty.CallstackKey() != "(unknown)" {
		t.Errorf("empty CallstackKey = %q", empty.CallstackKey())
	}
}

func TestCallstacksSorted(t *testing.T) {
	tr := buildValidTrace()
	keys := tr.Callstacks()
	if len(keys) != 3 { // (unknown), recv path, send path
		t.Fatalf("Callstacks = %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Errorf("Callstacks not sorted: %v", keys)
		}
	}
}

func TestCommMatrix(t *testing.T) {
	tr := buildValidTrace()
	m := tr.CommMatrix()
	if len(m) != 2 || len(m[0]) != 2 {
		t.Fatalf("matrix shape %dx%d", len(m), len(m[0]))
	}
	if m[1][0] != 1 || m[0][1] != 0 || m[0][0] != 0 || m[1][1] != 0 {
		t.Errorf("matrix = %v", m)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := buildValidTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != tr.Hash() {
		t.Error("JSON round trip changed the trace hash")
	}
	if got.Meta != tr.Meta {
		t.Errorf("meta changed: %+v vs %+v", got.Meta, tr.Meta)
	}
}

func TestReadJSONRejectsMetaMismatch(t *testing.T) {
	tr := buildValidTrace()
	tr.Meta.Procs = 5 // declare more procs than streams
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&buf); err == nil {
		t.Error("meta/stream mismatch accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	tr := buildValidTrace()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != tr.Hash() {
		t.Error("file round trip changed the trace hash")
	}
}

// fnvOrderHash is orderHash written against hash/fnv, the form every
// recorded order hash (goldens, EXPERIMENTS.md) was computed with.
func fnvOrderHash(t *Trace) uint64 {
	h := fnv.New64a()
	writeInt := func(v int64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
	for _, evs := range t.Events {
		writeInt(int64(len(evs)))
		for _, e := range evs {
			writeInt(int64(e.Kind))
			writeInt(int64(e.Peer))
			writeInt(int64(e.Tag))
			writeInt(int64(e.ChanSeq))
		}
	}
	return h.Sum64()
}

// Property: the inline FNV-1a fold gives hash/fnv's value bit for bit,
// negative fields included.
func TestQuickOrderHashMatchesHashFNV(t *testing.T) {
	f := func(fields [][4]int32) bool {
		tr := New(Meta{Procs: 3})
		for i, v := range fields {
			tr.Append(Event{Rank: i % 3, Kind: EventKind(uint32(v[0]) % 16), Peer: int(v[1]), Tag: int(v[2]), ChanSeq: int(v[3]), MsgID: NoMsg})
		}
		return tr.OrderHash() == fnvOrderHash(tr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got, want := buildValidTrace().OrderHash(), fnvOrderHash(buildValidTrace()); got != want {
		t.Errorf("OrderHash %#x, hash/fnv %#x", got, want)
	}
}

func TestHashSensitivity(t *testing.T) {
	a := buildValidTrace()
	b := buildValidTrace()
	if a.Hash() != b.Hash() {
		t.Fatal("identical traces hash differently")
	}
	b.Events[0][1].Time += 5
	if a.Hash() == b.Hash() {
		t.Error("Hash ignored a timestamp change")
	}
	if a.OrderHash() != b.OrderHash() {
		t.Error("OrderHash should ignore timestamp changes")
	}
	c := buildValidTrace()
	c.Events[0][1].Peer = 0 // pretend the recv matched a different peer
	if a.OrderHash() == c.OrderHash() {
		t.Error("OrderHash ignored a matching change")
	}
}

func TestCaptureStackTrimsRuntime(t *testing.T) {
	stack := helperOuter()
	if len(stack) == 0 {
		t.Fatal("empty stack")
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "testing.") {
			t.Errorf("stack contains trimmed frame %q", f)
		}
	}
	// The two helper frames must be present, innermost first.
	joined := strings.Join(stack, ";")
	if !strings.Contains(joined, "helperInner") || !strings.Contains(joined, "helperOuter") {
		t.Errorf("expected helper frames in %v", stack)
	}
	if strings.Index(joined, "helperInner") > strings.Index(joined, "helperOuter") {
		t.Errorf("frames not innermost-first: %v", stack)
	}
}

//go:noinline
func helperOuter() []string { return helperInner() }

//go:noinline
func helperInner() []string { return CaptureStackInterned(0).Frames }

func TestShortFuncName(t *testing.T) {
	cases := map[string]string{
		"github.com/anacin-go/anacinx/internal/patterns.(*AMG).exchange": "patterns.(*AMG).exchange",
		"main.main": "main.main",
	}
	for in, want := range cases {
		if got := shortFuncName(in); got != want {
			t.Errorf("shortFuncName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: Append always yields a trace whose per-rank Seq is dense.
func TestQuickAppendSeqDense(t *testing.T) {
	f := func(ranks []uint8) bool {
		tr := New(Meta{Procs: 4})
		lamport := make([]int64, 4)
		for _, r := range ranks {
			rank := int(r % 4)
			lamport[rank]++
			tr.Append(Event{Rank: rank, Kind: KindInit, MsgID: NoMsg, Lamport: lamport[rank]})
		}
		for rank, evs := range tr.Events {
			for i := range evs {
				if evs[i].Seq != i || evs[i].Rank != rank {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkTraceHash(b *testing.B) {
	tr := buildValidTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Hash()
	}
}
