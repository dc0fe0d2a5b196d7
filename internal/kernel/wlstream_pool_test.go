package kernel

import (
	"reflect"
	"testing"

	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// poolCase is one stream shape for the scratch recycling tests.
type poolCase struct {
	name string
	tr   *trace.Trace
	k    WL
}

// poolCases pairs traces of different rank counts with WL variants of
// different depth, direction and seed, ordered so that each case
// differs from the one before it in procs, H, Directed or Seed.
func poolCases(t *testing.T) []poolCase {
	mesh16 := meshTrace(t, 16, 4, 50, 9)
	race12 := fanInTrace(t, 12, 5, 25)
	stencil8 := stencilTrace(t, 8, 10, 25)
	mesh5 := meshTrace(t, 5, 3, 25, 3)
	empty := trace.New(trace.Meta{Procs: 3})
	return []poolCase{
		{"mesh16/H2", mesh16, NewWL(2)},
		{"race12/H3", race12, NewWL(3)},
		{"stencil8/H0", stencil8, NewWL(0)},
		{"mesh16/undirected", mesh16, WL{H: 2, Directed: false}},
		{"empty/H1", empty, NewWL(1)},
		{"mesh5/seeded", mesh5, WL{H: 2, Directed: true, Seed: 0xfeedface}},
		{"race12/H1", race12, NewWL(1)},
		{"stencil8/seeded", stencil8, WL{H: 2, Directed: true, Seed: 0xfeedface}},
		{"mesh5/H3", mesh5, NewWL(3)},
		{"race12/H2", race12, NewWL(2)},
	}
}

// runOn embeds c on sc, pushing the trace in a fixed random rank
// interleave, and returns the embedding, the stats and the scratch the
// stream handed back.
func runOn(t *testing.T, c poolCase, sc *streamScratch) (FeatureVector, StreamStats, *streamScratch) {
	t.Helper()
	s := c.k.newStream(c.tr.Procs(), sc)
	appendInterleaved(s, c.tr, vtime.NewRNG(int64(len(c.name))))
	back := s.end()
	if back == nil {
		t.Fatalf("%s: successful stream returned no scratch", c.name)
	}
	if s.streamScratch != nil {
		t.Fatalf("%s: stream still holds its scratch after finishing", c.name)
	}
	// The embedding and stats outlive the scratch.
	fv, err := s.Finish()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return fv, s.Stats(), back
}

// TestStreamingWLRecycledScratchMatchesFresh threads one scratch
// through streams that differ in procs, H, Directed and Seed: each must
// return the FeatureVector and StreamStats of the same stream on fresh
// scratch.
func TestStreamingWLRecycledScratchMatchesFresh(t *testing.T) {
	cases := poolCases(t)
	sc := newStreamScratch()
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			wantFV, wantStats, _ := runOn(t, c, newStreamScratch())
			var gotFV FeatureVector
			var gotStats StreamStats
			gotFV, gotStats, sc = runOn(t, c, sc)
			if !reflect.DeepEqual(wantFV, gotFV) {
				t.Errorf("round %d %s: recycled scratch changed the embedding", round, c.name)
			}
			if wantStats != gotStats {
				t.Errorf("round %d %s: recycled stats %+v, fresh %+v", round, c.name, gotStats, wantStats)
			}
		}
	}
}

// TestStreamingWLRecycledScratchAllocatesLess checks what the pool is
// for: a stream on the scratch of a finished stream of the same shape
// allocates a small fraction of what one on fresh scratch does.
func TestStreamingWLRecycledScratchAllocatesLess(t *testing.T) {
	c := poolCase{"mesh16/H2", meshTrace(t, 16, 4, 50, 9), NewWL(2)}
	embed := func(sc *streamScratch) *streamScratch {
		s := c.k.newStream(c.tr.Procs(), sc)
		for _, evs := range c.tr.Events {
			for _, ev := range evs {
				s.Append(ev)
			}
		}
		return s.end()
	}
	fresh := testing.AllocsPerRun(20, func() { embed(newStreamScratch()) })
	sc := embed(newStreamScratch())
	recycled := testing.AllocsPerRun(20, func() { sc = embed(sc) })
	t.Logf("allocs per stream: fresh %.0f, recycled %.0f", fresh, recycled)
	if recycled > fresh/4 {
		t.Errorf("recycled scratch made %.0f allocations per stream, fresh %.0f: want at most a quarter", recycled, fresh)
	}
}

// TestStreamingWLScratchLifecycle pins what outlives the scratch and
// when it is handed back: Stats and a repeated Finish work after the
// scratch has gone, and a stream that errors keeps it from the pool.
func TestStreamingWLScratchLifecycle(t *testing.T) {
	c := poolCase{"stencil8/H2", stencilTrace(t, 8, 4, 25), NewWL(2)}
	s := c.k.NewStream(c.tr.Procs())
	appendInterleaved(s, c.tr, vtime.NewRNG(1))
	fv, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if s.streamScratch != nil {
		t.Error("finished stream still holds its scratch")
	}
	stats := s.Stats()
	again, err := s.Finish()
	if err != nil || !reflect.DeepEqual(fv, again) || s.Stats() != stats {
		t.Errorf("repeated Finish: %v, embedding equal %v, stats %+v then %+v",
			err, reflect.DeepEqual(fv, again), stats, s.Stats())
	}
	if stats.Events != c.tr.NumEvents() || stats.DistinctFeatures != fv.Len() {
		t.Errorf("stats %+v after Finish (%d events, %d features)", stats, c.tr.NumEvents(), fv.Len())
	}
	s.Append(c.tr.Events[0][0])
	if fv, err := s.Finish(); err == nil || fv.Len() != 0 {
		t.Errorf("Append after Finish: Finish = %d features, %v; want the error", fv.Len(), err)
	}

	bad := c.k.newStream(2, newStreamScratch())
	bad.Append(trace.Event{Rank: 5, Kind: trace.KindInit, MsgID: trace.NoMsg})
	if sc := bad.end(); sc != nil {
		t.Error("a stream that failed handed its scratch back")
	}
	if _, err := bad.Finish(); err == nil {
		t.Error("failed stream finished without error")
	}
}

// TestStreamScratchPoolBounded checks that scratch grown past the pool
// bounds is left to the garbage collector.
func TestStreamScratchPoolBounded(t *testing.T) {
	// Sends whose receives never come are held to the end of the
	// stream, so the window, and then the free list, reaches n nodes.
	window := func(n int) *streamScratch {
		s := NewWL(2).newStream(2, newStreamScratch())
		for i := 0; i < n; i++ {
			s.Append(trace.Event{Rank: 0, Kind: trace.KindSend, Peer: 1, MsgID: int64(i)})
		}
		if got := s.Stats().MaxWindow; got != n {
			t.Fatalf("window of %d sends peaked at %d nodes", n, got)
		}
		return s.end()
	}
	if !putStreamScratch(window(1000)) {
		t.Error("a 1000-node scratch was not pooled")
	}
	if big := window(maxPooledNodes + 1); putStreamScratch(big) {
		t.Errorf("a scratch of %d free nodes was pooled; the bound is %d", len(big.free), maxPooledNodes)
	}
	feats := newStreamScratch()
	for i := 0; i <= maxPooledFeatures; i++ {
		feats.feats[uint64(i)] = 1
	}
	if putStreamScratch(feats) {
		t.Errorf("a scratch of %d features was pooled; the bound is %d", len(feats.feats), maxPooledFeatures)
	}
}
