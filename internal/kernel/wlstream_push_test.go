package kernel

import (
	"reflect"
	"testing"

	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// pushKernels are the WL variants the push-stream tests embed under.
var pushKernels = []WL{
	NewWL(0), NewWL(1), NewWL(2), NewWL(3),
	{H: 2, Directed: false},
	{H: 2, Directed: true, Seed: 0xfeedface},
}

// multiSink hands every event to each sink in turn.
type multiSink []trace.EventSink

func (m multiSink) Append(ev trace.Event) {
	for _, s := range m {
		s.Append(ev)
	}
}

// appendInterleaved pushes tr's events into s in a random interleave
// that keeps each rank's own order.
func appendInterleaved(s *WLStream, tr *trace.Trace, rng *vtime.RNG) {
	next := make([]int, tr.Procs())
	var open []int
	for rank, evs := range tr.Events {
		if len(evs) > 0 {
			open = append(open, rank)
		}
	}
	for len(open) > 0 {
		i := rng.Intn(len(open))
		rank := open[i]
		s.Append(tr.Events[rank][next[rank]])
		if next[rank]++; next[rank] == len(tr.Events[rank]) {
			open = append(open[:i], open[i+1:]...)
		}
	}
}

func TestKindLabelHashMatchesInterner(t *testing.T) {
	for k := 0; k < 256; k++ {
		kind := trace.EventKind(k)
		if got, want := kindLabelHash[k], labelInterner.Hash(kind.String()); got != want {
			t.Errorf("kind %d (%s): table hash %#x, interner %#x", k, kind, got, want)
		}
	}
}

// TestStreamingWLPushMatchesPatterns runs every registered pattern with
// its events teed, in scheduler order, into a trace and one push stream
// per kernel. Each stream's embedding must equal WL.Features on the
// trace's graph and FeaturesFromReader's cursor merge over its v2
// encoding, and three random rank interleaves must give the identical
// vector.
func TestStreamingWLPushMatchesPatterns(t *testing.T) {
	for _, pat := range patterns.All() {
		procs := max(8, pat.MinProcs())
		params := patterns.DefaultParams(procs)
		params.Iterations = 3
		program, err := pat.Program(params)
		if err != nil {
			t.Fatalf("%s: %v", pat.Name(), err)
		}
		cfg := sim.DefaultConfig(procs, 7)
		cfg.Nodes = 2
		cfg.NDPercent = 50
		meta := trace.Meta{Pattern: pat.Name(), Procs: procs}
		tr := trace.New(meta)
		streams := make([]*WLStream, len(pushKernels))
		sinks := multiSink{tr}
		for i, k := range pushKernels {
			streams[i] = k.NewStream(procs)
			sinks = append(sinks, streams[i])
		}
		cfg.Sink = sinks
		if _, _, err := sim.Run(cfg, meta, sim.Adapt(program)); err != nil {
			t.Fatalf("%s: %v", pat.Name(), err)
		}
		checkPushStreams(t, pat.Name(), tr, streams)
	}
}

// checkPushStreams compares each of streams (fed tr in scheduler order,
// one per pushKernels entry) against the materialized embedding, the
// cursor merge, and three random interleaves.
func checkPushStreams(t *testing.T, name string, tr *trace.Trace, streams []*WLStream) {
	t.Helper()
	g, err := graph.FromTrace(tr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rng := vtime.NewRNG(int64(len(name)))
	for i, k := range pushKernels {
		want := k.Features(g)
		got, err := streams[i].Finish()
		if err != nil {
			t.Fatalf("%s %s: push stream: %v", name, k.Name(), err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s %s: scheduler-order push embedding differs from Features", name, k.Name())
		}
		if st := streams[i].Stats(); st.Events != tr.NumEvents() || st.DistinctFeatures != got.Len() {
			t.Errorf("%s %s: stats %+v inconsistent (%d events, %d features)", name, k.Name(), st, tr.NumEvents(), got.Len())
		}
		merged, err := k.FeaturesFromReader(streamReaderFor(t, tr))
		if err != nil {
			t.Fatalf("%s %s: cursor merge: %v", name, k.Name(), err)
		}
		if !reflect.DeepEqual(want, merged) {
			t.Errorf("%s %s: cursor-merge embedding differs from Features", name, k.Name())
		}
		for j := 0; j < 3; j++ {
			s := k.NewStream(tr.Procs())
			appendInterleaved(s, tr, rng)
			got, err := s.Finish()
			if err != nil {
				t.Fatalf("%s %s: interleave %d: %v", name, k.Name(), j, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s %s: interleave %d embedding differs from Features", name, k.Name(), j)
			}
		}
	}
}

func TestStreamingWLPushErrors(t *testing.T) {
	send := trace.Event{Rank: 0, Kind: trace.KindSend, Peer: 1, MsgID: 5}
	cases := map[string][]trace.Event{
		"rank out of range": {{Rank: 2, Kind: trace.KindInit, MsgID: trace.NoMsg}},
		"negative rank":     {{Rank: -1, Kind: trace.KindInit, MsgID: trace.NoMsg}},
		"sent twice":        {send, send},
		"recv without send": {{Rank: 1, Kind: trace.KindRecv, Peer: 0, MsgID: 9}},
	}
	for name, evs := range cases {
		s := NewWL(2).NewStream(2)
		for _, ev := range evs {
			s.Append(ev)
		}
		if _, err := s.Finish(); err == nil {
			t.Errorf("%s: Finish returned no error", name)
		}
	}
	s := NewWL(2).NewStream(2)
	if fv, err := s.Finish(); err != nil || fv.Len() != 0 {
		t.Errorf("empty stream: %v, %d features", err, fv.Len())
	}
	s.Append(trace.Event{Rank: 0, Kind: trace.KindInit, MsgID: trace.NoMsg})
	if _, err := s.Finish(); err == nil {
		t.Error("Append after Finish: Finish returned no error")
	}
}
