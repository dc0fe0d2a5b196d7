package graph

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// raceTrace runs a small message race and returns its trace.
func raceTrace(t testing.TB, procs int, nd float64, seed int64) *trace.Trace {
	t.Helper()
	cfg := sim.DefaultConfig(procs, seed)
	cfg.NDPercent = nd
	tr, _, err := sim.Run(cfg, trace.Meta{Pattern: "race"}, func(r *sim.Rank) {
		if r.Rank() == 0 {
			for i := 0; i < procs-1; i++ {
				r.Recv(sim.AnySource, sim.AnyTag)
			}
		} else {
			r.SendSize(0, 0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustGraph(t testing.TB, tr *trace.Trace) *Graph {
	t.Helper()
	g, err := FromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromTraceShape(t *testing.T) {
	const procs = 4
	tr := raceTrace(t, procs, 0, 1)
	g := mustGraph(t, tr)

	// Events: per rank init+finalize, 3 sends, 3 recvs.
	wantNodes := 2*procs + 3 + 3
	if g.NumNodes() != wantNodes {
		t.Errorf("NumNodes = %d, want %d", g.NumNodes(), wantNodes)
	}
	// Program edges: sum over ranks of (events-1). Rank 0 has 5 events,
	// others 3 → 4 + 3*2 = 10. Message edges: 3.
	if g.MessageEdges() != 3 {
		t.Errorf("MessageEdges = %d, want 3", g.MessageEdges())
	}
	if g.NumEdges()-g.MessageEdges() != 10 {
		t.Errorf("program edges = %d, want 10", g.NumEdges()-g.MessageEdges())
	}
	if g.Ranks() != procs {
		t.Errorf("Ranks = %d, want %d", g.Ranks(), procs)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFromTraceRejectsInvalid(t *testing.T) {
	bad := trace.New(trace.Meta{Procs: 1})
	bad.Append(trace.Event{Rank: 0, Kind: trace.KindRecv, Peer: 0, MsgID: 5, Lamport: 1})
	if _, err := FromTrace(bad); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestMessageEdgesJoinSendToRecv(t *testing.T) {
	tr := raceTrace(t, 3, 0, 1)
	g := mustGraph(t, tr)
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind != EdgeMessage {
			continue
		}
		from, to := &g.Nodes[e.From], &g.Nodes[e.To]
		if !from.Kind.IsSend() || !to.Kind.IsReceive() {
			t.Errorf("message edge %v→%v connects %v→%v", e.From, e.To, from.Kind, to.Kind)
		}
		if to.Rank != 0 {
			t.Errorf("race receive on rank %d, want 0", to.Rank)
		}
		if from.Rank == to.Rank {
			t.Errorf("message edge within one rank")
		}
	}
}

func TestNodesOfRankOrdered(t *testing.T) {
	tr := raceTrace(t, 4, 0, 1)
	g := mustGraph(t, tr)
	ids := g.NodesOfRank(0)
	if len(ids) != 5 { // init, 3 recvs, finalize
		t.Fatalf("rank 0 has %d nodes", len(ids))
	}
	for i, id := range ids {
		if g.Nodes[id].Seq != i {
			t.Errorf("node %d has seq %d", i, g.Nodes[id].Seq)
		}
	}
}

func TestNeighbors(t *testing.T) {
	tr := raceTrace(t, 3, 0, 1)
	g := mustGraph(t, tr)
	// Rank 0's first recv: in-neighbors are its init (program) and a
	// send (message); out-neighbor is the next recv.
	recv := g.NodesOfRank(0)[1]
	in := g.InNeighbors(recv, nil)
	out := g.OutNeighbors(recv, nil)
	if len(in) != 2 {
		t.Errorf("recv in-degree = %d, want 2", len(in))
	}
	if len(out) != 1 {
		t.Errorf("recv out-degree = %d, want 1", len(out))
	}
}

func TestLabelCounts(t *testing.T) {
	tr := raceTrace(t, 4, 0, 1)
	g := mustGraph(t, tr)
	counts := g.LabelCounts()
	if counts["init"] != 4 || counts["finalize"] != 4 || counts["send"] != 3 || counts["recv"] != 3 {
		t.Errorf("LabelCounts = %v", counts)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Graph { return mustGraph(t, raceTrace(t, 3, 0, 1)) }

	g := fresh()
	g.Edges[0].To = 9999
	if err := g.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}

	g = fresh()
	// Find a program edge and force it across ranks.
	for i := range g.Edges {
		if g.Edges[i].Kind == EdgeProgram {
			for j := range g.Nodes {
				if g.Nodes[j].Rank != g.Nodes[g.Edges[i].From].Rank && g.Nodes[j].Lamport > g.Nodes[g.Edges[i].From].Lamport {
					g.Edges[i].To = NodeID(j)
					break
				}
			}
			break
		}
	}
	if err := g.Validate(); err == nil {
		t.Error("cross-rank program edge accepted")
	}

	g = fresh()
	g.Nodes[2].ID = 7
	if err := g.Validate(); err == nil {
		t.Error("non-dense node ID accepted")
	}

	g = fresh()
	g.Out = nil
	if err := g.Validate(); err == nil {
		t.Error("unsealed graph accepted")
	}
}

func TestSliceByLamportPartition(t *testing.T) {
	tr := raceTrace(t, 4, 100, 3)
	g := mustGraph(t, tr)
	for _, count := range []int{1, 2, 3, 5, 10} {
		slices, err := g.SliceByLamport(count)
		if err != nil {
			t.Fatal(err)
		}
		if len(slices) != count {
			t.Fatalf("got %d slices, want %d", len(slices), count)
		}
		total := 0
		for _, s := range slices {
			total += s.NumNodes()
			if err := s.Validate(); err != nil {
				t.Errorf("slice invalid: %v", err)
			}
		}
		if total != g.NumNodes() {
			t.Errorf("count=%d: slices hold %d nodes, parent has %d", count, total, g.NumNodes())
		}
	}
}

func TestSliceByLamportOrdering(t *testing.T) {
	// Every node in slice k must have Lamport <= every node in k+1...
	// strictly: max lamport of slice k <= min lamport of slice k+1.
	g := mustGraph(t, raceTrace(t, 6, 100, 9))
	slices, err := g.SliceByLamport(4)
	if err != nil {
		t.Fatal(err)
	}
	prevMax := int64(-1)
	for k, s := range slices {
		if s.NumNodes() == 0 {
			continue
		}
		min, max := int64(1<<62), int64(0)
		for i := range s.Nodes {
			if l := s.Nodes[i].Lamport; l < min {
				min = l
			}
			if l := s.Nodes[i].Lamport; l > max {
				max = l
			}
		}
		if min <= prevMax {
			t.Errorf("slice %d min lamport %d overlaps previous max %d", k, min, prevMax)
		}
		prevMax = max
	}
}

func TestSliceCountOne(t *testing.T) {
	g := mustGraph(t, raceTrace(t, 3, 0, 1))
	slices, err := g.SliceByLamport(1)
	if err != nil {
		t.Fatal(err)
	}
	if slices[0].NumNodes() != g.NumNodes() {
		t.Error("single slice must contain every node")
	}
	// All intra-slice edges survive (every edge, since there is one slice).
	if slices[0].NumEdges() != g.NumEdges() {
		t.Errorf("single slice has %d edges, parent %d", slices[0].NumEdges(), g.NumEdges())
	}
}

func TestSliceRejectsBadCount(t *testing.T) {
	g := mustGraph(t, raceTrace(t, 3, 0, 1))
	if _, err := g.SliceByLamport(0); err == nil {
		t.Error("count 0 accepted")
	}
}

func TestSliceEmptyGraph(t *testing.T) {
	g := &Graph{}
	g.Seal()
	slices, err := g.SliceByLamport(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slices {
		if s.NumNodes() != 0 {
			t.Error("empty graph produced nonempty slice")
		}
	}
}

func TestSliceCallstacks(t *testing.T) {
	g := mustGraph(t, raceTrace(t, 4, 0, 1))
	keys := g.SliceCallstacks()
	if len(keys) != 3 { // one per recv
		t.Fatalf("SliceCallstacks = %d entries, want 3", len(keys))
	}
	for _, k := range keys {
		if k == "" {
			t.Error("empty callstack key")
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := mustGraph(t, raceTrace(t, 3, 0, 1))
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "race"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "rank=same", "style=dashed", "style=solid", "recv", "send"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	if strings.Count(out, "->") != g.NumEdges() {
		t.Errorf("DOT has %d edges, graph has %d", strings.Count(out, "->"), g.NumEdges())
	}
}

func TestWriteGraphML(t *testing.T) {
	g := mustGraph(t, raceTrace(t, 3, 0, 1))
	var buf bytes.Buffer
	if err := g.WriteGraphML(&buf, "race<&>"); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	// Well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		_, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("GraphML not well-formed: %v", err)
		}
	}
	for _, want := range []string{"graphml", `edgedefault="directed"`, "race&lt;&amp;&gt;",
		`key="label"`, `key="lamport"`, `key="kind"`, "recv", "message"} {
		if !strings.Contains(doc, want) {
			t.Errorf("GraphML missing %q", want)
		}
	}
	if got := strings.Count(doc, "<node "); got != g.NumNodes() {
		t.Errorf("%d node elements for %d nodes", got, g.NumNodes())
	}
	if got := strings.Count(doc, "<edge "); got != g.NumEdges() {
		t.Errorf("%d edge elements for %d edges", got, g.NumEdges())
	}
}

func TestEdgeKindString(t *testing.T) {
	if EdgeProgram.String() != "program" || EdgeMessage.String() != "message" {
		t.Error("EdgeKind.String wrong")
	}
}

// Property: for arbitrary seeds and ND levels the builder produces a
// valid graph whose message-edge count equals the trace's matched pairs.
func TestQuickBuilderInvariants(t *testing.T) {
	f := func(seed int64, ndRaw uint8) bool {
		nd := float64(ndRaw) / 255 * 100
		tr := raceTrace(t, 5, nd, seed)
		g, err := FromTrace(tr)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		return g.MessageEdges() == tr.MatchedPairs() && g.NumNodes() == tr.NumEvents()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFromTrace(b *testing.B) {
	tr := raceTrace(b, 16, 100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSliceByLamport(b *testing.B) {
	g := mustGraph(b, raceTrace(b, 16, 100, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SliceByLamport(8); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(7).String() != "7" {
		t.Error("NodeID.String wrong")
	}
}
