package graph

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// oracleBuild is the map-based sequential reference build the builder
// is checked against: validate, append nodes and program edges, join
// message edges through a map, then Seal.
func oracleBuild(tr *trace.Trace) (*Graph, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{Meta: tr.Meta, Nodes: []Node{}, Edges: []Edge{}}
	sendNode := make(map[int64]NodeID)
	for _, evs := range tr.Events {
		for i := range evs {
			e := &evs[i]
			id := NodeID(len(g.Nodes))
			g.Nodes = append(g.Nodes, Node{
				ID: id, Rank: e.Rank, Seq: e.Seq, Kind: e.Kind, Label: e.Label(),
				Lamport: e.Lamport, Time: e.Time, CallstackKey: e.CallstackKey(),
			})
			if i > 0 {
				g.Edges = append(g.Edges, Edge{From: id - 1, To: id, Kind: EdgeProgram})
			}
			if e.MsgID != trace.NoMsg && e.Kind.IsSend() {
				sendNode[e.MsgID] = id
			}
		}
	}
	var id NodeID
	for _, evs := range tr.Events {
		for i := range evs {
			if e := &evs[i]; e.MsgID != trace.NoMsg && e.Kind.IsReceive() {
				g.Edges = append(g.Edges, Edge{From: sendNode[e.MsgID], To: id, Kind: EdgeMessage})
			}
			id++
		}
	}
	g.Seal()
	return g, g.Validate()
}

// iterRaceTrace simulates a message-race pattern and returns its trace:
// every nonzero rank sends to rank 0, which receives with AnySource —
// fan-in, wildcard matching, and receives that precede their senders in
// rank-major order.
func iterRaceTrace(t *testing.T, procs, iters int, nd float64) *trace.Trace {
	t.Helper()
	cfg := sim.DefaultConfig(procs, 42)
	cfg.Nodes = 2
	cfg.NDPercent = nd
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: "race"}, func(r *sim.Rank) {
		if r.Rank() == 0 {
			for i := 0; i < iters*(r.Size()-1); i++ {
				r.Recv(sim.AnySource, sim.AnyTag)
			}
			return
		}
		for i := 0; i < iters; i++ {
			r.SendSize(0, i, 64)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return tr
}

// collectiveTrace exercises NoMsg collective events and internal
// (untraced) plumbing, so traced MsgIDs are a sparse subset of the
// simulator's id space.
func collectiveTrace(t *testing.T, procs int) *trace.Trace {
	t.Helper()
	cfg := sim.DefaultConfig(procs, 7)
	cfg.NDPercent = 10
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: "coll"}, func(r *sim.Rank) {
		for i := 0; i < 3; i++ {
			if r.Rank() != 0 {
				r.SendSize(0, 1, 32)
			} else {
				for p := 1; p < r.Size(); p++ {
					r.Recv(sim.AnySource, 1)
				}
			}
			r.Barrier()
			r.Allreduce([]byte{byte(r.Rank())}, func(a, b []byte) []byte { return a })
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return tr
}

// scatteredTrace carries message ids far beyond its send count, so the
// builder must join through maps instead of the dense table.
func scatteredTrace() *trace.Trace {
	tr := trace.New(trace.Meta{Pattern: "sparse", Procs: 2})
	tr.Append(trace.Event{Rank: 0, Kind: trace.KindSend, Peer: 1, MsgID: 1 << 40, Time: 1, Lamport: 1})
	tr.Append(trace.Event{Rank: 0, Kind: trace.KindSend, Peer: 1, MsgID: 7, Time: 2, Lamport: 2})
	tr.Append(trace.Event{Rank: 1, Kind: trace.KindRecv, Peer: 0, MsgID: 7, Time: 3, Lamport: 3})
	tr.Append(trace.Event{Rank: 1, Kind: trace.KindRecv, Peer: 0, MsgID: 1 << 40, Time: 4, Lamport: 4})
	return tr
}

// readerFor encodes tr as a v2 binary trace and opens a Reader over it.
func readerFor(t *testing.T, tr *trace.Trace) *trace.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinaryV2(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertGraphsEqual compares every exported structural field.
func assertGraphsEqual(t *testing.T, want, got *Graph, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes, got.Nodes) {
		t.Fatalf("%s: nodes differ", label)
	}
	if !reflect.DeepEqual(want.Edges, got.Edges) {
		t.Fatalf("%s: edges differ", label)
	}
	if !reflect.DeepEqual(want.Out, got.Out) {
		t.Fatalf("%s: out adjacency differs", label)
	}
	if !reflect.DeepEqual(want.In, got.In) {
		t.Fatalf("%s: in adjacency differs", label)
	}
	if want.Meta != got.Meta {
		t.Fatalf("%s: meta differs", label)
	}
}

// builderTraces is the builder table's input set; scattered ids have
// their own test.
func builderTraces(t *testing.T) map[string]*trace.Trace {
	big := iterRaceTrace(t, 1024, 8, 25)
	if big.NumEvents() < parallelMinEvents {
		t.Fatalf("race-1024 has %d events, want >= %d", big.NumEvents(), parallelMinEvents)
	}
	return map[string]*trace.Trace{
		"race-16rank":   iterRaceTrace(t, 16, 8, 25),
		"race-64rank":   iterRaceTrace(t, 64, 4, 25),
		"coll-12rank":   collectiveTrace(t, 12),
		"empty-streams": trace.New(trace.Meta{Procs: 5}),
		"race-1024rank": big,
	}
}

// assertBuildsOracle checks that the source of tr named srcName ("trace"
// or "reader") builds the oracle's graph at every worker count and
// through its public entry point.
func assertBuildsOracle(t *testing.T, name string, tr *trace.Trace, srcName string) {
	t.Helper()
	want, err := oracleBuild(tr)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	var src trace.Source = tr
	public := func() (*Graph, error) { return FromTrace(tr) }
	if srcName == "reader" {
		r := readerFor(t, tr)
		src = r
		public = func() (*Graph, error) { return FromReader(r) }
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := build(src, tr.Meta, workers)
		if err != nil {
			t.Fatalf("%s %s workers=%d: %v", name, srcName, workers, err)
		}
		assertGraphsEqual(t, want, got, name+" "+srcName)
	}
	got, err := public()
	if err != nil {
		t.Fatalf("%s %s: %v", name, srcName, err)
	}
	assertGraphsEqual(t, want, got, name+" "+srcName)
}

// The in-memory trace builds the oracle's graph at every worker count.
func TestParallelFromTraceMatchesSequential(t *testing.T) {
	for name, tr := range builderTraces(t) {
		assertBuildsOracle(t, name, tr, "trace")
	}
}

// The v2 Reader builds the oracle's graph at every worker count and
// folds the same order hash as the in-memory trace.
func TestFromReaderMatchesFromTrace(t *testing.T) {
	for name, tr := range builderTraces(t) {
		assertBuildsOracle(t, name, tr, "reader")
		oh, err := readerFor(t, tr).OrderHash()
		if err != nil {
			t.Fatalf("%s: reader order hash: %v", name, err)
		}
		if want := tr.OrderHash(); oh != want {
			t.Errorf("%s: Reader.OrderHash %#x, Trace.OrderHash %#x", name, oh, want)
		}
	}
}

// Message ids far beyond the send count join through maps instead of
// the dense table, from both sources.
func TestFromReaderScatteredMsgIDFallback(t *testing.T) {
	for _, srcName := range []string{"trace", "reader"} {
		assertBuildsOracle(t, "scattered-ids", scatteredTrace(), srcName)
	}
}

// invalidCase mutates a valid race trace into one the builder must
// reject with an error mentioning want. memoryOnly cases cannot be
// expressed in the v2 encoding.
type invalidCase struct {
	name       string
	mutate     func(tr *trace.Trace)
	want       string
	memoryOnly bool
}

func invalidCases(t *testing.T) []invalidCase {
	findKind := func(evs []trace.Event, send bool) *trace.Event {
		for i := range evs {
			if evs[i].MsgID != trace.NoMsg && (send && evs[i].Kind.IsSend() || !send && evs[i].Kind.IsReceive()) {
				return &evs[i]
			}
		}
		t.Fatal("no such event")
		return nil
	}
	return []invalidCase{
		{"lamport-regression", func(tr *trace.Trace) {
			tr.Events[3][1].Lamport = tr.Events[3][0].Lamport
		}, "not after predecessor", false},
		{"time-regression", func(tr *trace.Trace) {
			evs := tr.Events[3]
			evs[len(evs)-1].Time = evs[len(evs)-2].Time - 1
		}, "before predecessor", false},
		{"recv-without-send", func(tr *trace.Trace) {
			findKind(tr.Events[0], false).MsgID = 500
		}, "has no send", false},
		{"msg-sent-twice", func(tr *trace.Trace) {
			findKind(tr.Events[2], true).MsgID = findKind(tr.Events[1], true).MsgID
		}, "sent twice", false},
		{"msg-received-twice", func(tr *trace.Trace) {
			evs := tr.Events[0]
			first := findKind(evs, false)
			findKind(evs[first.Seq+1:], false).MsgID = first.MsgID
		}, "received twice", false},
		{"negative-send-id", func(tr *trace.Trace) {
			findKind(tr.Events[5], true).MsgID = -5
		}, "negative msg id", false},
		{"sparse-seq", func(tr *trace.Trace) {
			tr.Events[2][1].Seq = 7
		}, "not dense", true},
		{"wrong-recorded-rank", func(tr *trace.Trace) {
			tr.Events[2][1].Rank = 3
		}, "recorded rank", true},
	}
}

// assertRejects checks that src fails to build at every worker count
// with an error mentioning tc.want.
func assertRejects(t *testing.T, tc invalidCase, srcName string, src trace.Source, meta trace.Meta) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		_, err := build(src, meta, workers)
		if err == nil {
			t.Errorf("%s %s workers=%d: invalid trace accepted", tc.name, srcName, workers)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s workers=%d: error %q does not mention %q", tc.name, srcName, workers, err, tc.want)
		}
	}
}

// The in-memory trace rejects every invalid input.
func TestParallelFromTraceRejectsInvalid(t *testing.T) {
	for _, tc := range invalidCases(t) {
		tr := iterRaceTrace(t, 16, 4, 0)
		tc.mutate(tr)
		assertRejects(t, tc, "trace", tr, tr.Meta)
	}
}

// The v2 codec serializes invalid traces without validating them; the
// Reader build rejects them with the same messages as the trace build.
func TestFromReaderRejectsInvalidStream(t *testing.T) {
	for _, tc := range invalidCases(t) {
		if tc.memoryOnly {
			continue
		}
		tr := iterRaceTrace(t, 16, 4, 0)
		tc.mutate(tr)
		assertRejects(t, tc, "reader", readerFor(t, tr), tr.Meta)
	}
}

// hugeSource declares counts no stream could back.
type hugeSource struct{ events int }

func (s hugeSource) Procs() int { return 3 }
func (s hugeSource) RankCounts(int) (events, sends, recvs int, maxSendID int64) {
	return s.events, 0, 0, -1
}
func (s hugeSource) Cursor(int) *trace.Cursor { panic("cursor opened past the layout check") }

func TestBuildRejectsCountsBeyondInt32(t *testing.T) {
	_, err := build(hugeSource{events: 1 << 30}, trace.Meta{}, 1)
	if err == nil || !strings.Contains(err.Error(), "exceed int32") {
		t.Fatalf("err = %v, want an int32 overflow error", err)
	}
}

// footRank is one rank-index entry of a hand-written v2 footer.
type footRank struct {
	events, sends, recvs uint64
	maxSendID            int64
}

// hostileV2 writes a v2 file whose footer declares ranks over a 32-byte
// data section (meta plus padding), each non-empty rank one segment at
// offset 8.
func hostileV2(t *testing.T, ranks []footRank) []byte {
	t.Helper()
	var file []byte
	file = append(file, "ANCNTR02"...)
	file = append(file, 0) // empty pattern
	for _, v := range []int64{int64(len(ranks)), 1, 1, 1} {
		file = binary.AppendVarint(file, v)
	}
	file = binary.LittleEndian.AppendUint64(file, math.Float64bits(0))
	file = binary.AppendVarint(file, 1)
	file = append(file, make([]byte, 40-len(file))...)
	footerOff := len(file)

	var payload []byte
	payload = binary.AppendUvarint(payload, 0) // no callstack keys
	payload = binary.AppendUvarint(payload, uint64(len(ranks)))
	for _, fr := range ranks {
		payload = binary.AppendUvarint(payload, fr.events)
		payload = binary.AppendUvarint(payload, fr.sends)
		payload = binary.AppendUvarint(payload, fr.recvs)
		payload = binary.AppendVarint(payload, fr.maxSendID)
		if fr.events == 0 {
			payload = binary.AppendUvarint(payload, 0)
			continue
		}
		payload = binary.AppendUvarint(payload, 1)
		payload = binary.AppendUvarint(payload, 8)
		payload = binary.AppendUvarint(payload, fr.events)
	}
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(payload)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	file = binary.AppendUvarint(file, uint64(len(payload)))
	file = binary.AppendUvarint(file, uint64(comp.Len()))
	file = append(file, comp.Bytes()...)
	file = binary.LittleEndian.AppendUint64(file, uint64(footerOff))
	return append(file, "ANCNTR02"...)
}

// Footer counts size the builder's allocations before any segment is
// decoded; counts that disagree with each other or with the bytes
// present must be rejected at open, never reach an allocation.
func TestFromReaderRejectsHostileFooters(t *testing.T) {
	cases := map[string][]footRank{
		"recvs-wrap-int32":      {{events: 1, recvs: 1<<32 - 10, maxSendID: -1}},
		"huge-sends-and-max-id": {{events: 1, sends: 1 << 60, maxSendID: 1 << 62}},
		"node-total-wraps":      {{events: 1 << 30, maxSendID: -1}, {events: 1 << 30, maxSendID: -1}, {events: 1 << 30, maxSendID: -1}},
		"events-beyond-data":    {{events: 1 << 27, maxSendID: -1}},
	}
	for name, ranks := range cases {
		file := hostileV2(t, ranks)
		r, err := trace.NewReader(bytes.NewReader(file), int64(len(file)))
		if err == nil {
			t.Errorf("%s (%d B): NewReader accepted declared counts %+v", name, len(file), r.Stats())
		}
	}
}

// The same framing with consistent counts opens: the rejections above
// are about the counts. Empty ranks build an empty graph; a declared
// event the data section cannot decode fails with an error.
func TestHostileV2FramingIsValid(t *testing.T) {
	for name, want := range map[int]string{0: "", 3: "invalid"} {
		file := hostileV2(t, []footRank{{maxSendID: -1}, {events: uint64(name), maxSendID: -1}})
		r, err := trace.NewReader(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			t.Fatalf("%d events: NewReader: %v", name, err)
		}
		g, err := FromReader(r)
		switch {
		case want == "" && (err != nil || g.NumNodes() != 0):
			t.Errorf("%d events: graph %v, err %v; want an empty graph", name, g, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%d events: err %v, want %q", name, err, want)
		}
	}
}
