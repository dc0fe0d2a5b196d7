package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/kernel"
	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// teeSinks hands every event to each sink in turn.
type teeSinks []trace.EventSink

func (m teeSinks) Append(ev trace.Event) {
	for _, s := range m {
		s.Append(ev)
	}
}

// TestStreamingWLMatchesGoldenRuns re-runs every golden case with its
// events teed, in scheduler order, into a trace and a WL push stream
// per kernel. The teed trace must be the golden one, and each stream's
// embedding must equal WL.Features on the golden trace's graph, the
// cursor merge over its v2 encoding (FeaturesFromReader), and three
// random interleaves that keep each rank's order.
func TestStreamingWLMatchesGoldenRuns(t *testing.T) {
	kernels := []kernel.WL{
		kernel.NewWL(0), kernel.NewWL(2), kernel.NewWL(3),
		{H: 2, Directed: false},
		{H: 2, Directed: true, Seed: 0xfeedface},
	}
	for _, c := range goldenSpecs(t) {
		want, err := os.ReadFile(filepath.Join("testdata", c.name+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		golden, err := trace.ReadBinary(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		// The fields Run fills in its own trace's meta.
		meta := trace.Meta{
			Pattern: "golden/" + c.name, Procs: c.cfg.Procs, Nodes: c.cfg.Nodes,
			NDPercent: c.cfg.NDPercent, Seed: c.cfg.Seed,
		}
		tr := trace.New(meta)
		sinks := teeSinks{tr}
		streams := make([]*kernel.WLStream, len(kernels))
		for i, k := range kernels {
			streams[i] = k.NewStream(c.cfg.Procs)
			sinks = append(sinks, streams[i])
		}
		cfg := c.cfg
		cfg.Sink = sinks
		if _, _, err := Run(cfg, meta, c.program); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got bytes.Buffer
		if err := tr.WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: trace teed from the sink differs from the golden file", c.name)
		}

		g, err := graph.FromTrace(golden)
		if err != nil {
			t.Fatal(err)
		}
		var v2 bytes.Buffer
		if err := golden.WriteBinaryV2(&v2); err != nil {
			t.Fatal(err)
		}
		rng := vtime.NewRNG(int64(len(c.name)))
		for i, k := range kernels {
			wantFV := k.Features(g)
			fv, err := streams[i].Finish()
			if err != nil || !reflect.DeepEqual(fv, wantFV) {
				t.Errorf("%s %s: scheduler-order push embedding differs from Features (err %v)", c.name, k.Name(), err)
			}
			r, err := trace.NewReader(bytes.NewReader(v2.Bytes()), int64(v2.Len()))
			if err != nil {
				t.Fatal(err)
			}
			if fv, err := k.FeaturesFromReader(r); err != nil || !reflect.DeepEqual(fv, wantFV) {
				t.Errorf("%s %s: cursor-merge embedding differs from Features (err %v)", c.name, k.Name(), err)
			}
			for j := 0; j < 3; j++ {
				s := k.NewStream(golden.Procs())
				appendInterleaved(s, golden, rng)
				if fv, err := s.Finish(); err != nil || !reflect.DeepEqual(fv, wantFV) {
					t.Errorf("%s %s: interleave %d embedding differs from Features (err %v)", c.name, k.Name(), j, err)
				}
			}
		}
	}
}

// appendInterleaved appends tr's events to s in a random interleave
// that keeps each rank's own order.
func appendInterleaved(s trace.EventSink, tr *trace.Trace, rng *vtime.RNG) {
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
