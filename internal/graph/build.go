package graph

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"github.com/anacin-go/anacinx/internal/par"
	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// Event-graph construction. Every source — an in-memory *trace.Trace or
// a v2 archive's *trace.Reader — is read through the same per-rank view
// (trace.Source): declared per-rank counts first, then one cursor pass
// per rank. Event graphs have a rigidly regular shape — nodes are
// rank-major, program edges follow each rank's stream, and every
// message edge slot is determined by the receiving rank and its receive
// ordinal — so the counts fix every node, edge and adjacency slot before
// any event is read, and workers fill disjoint ranges. The result is
// identical for every worker count.
//
// Validation is folded into construction: stage A checks each rank's
// stream invariants and that the stream agrees with its declared counts
// (a v2 footer is outside input, and a stream that disagreed with it
// would write into other ranks' slots); the cross-rank send/receive
// uniqueness checks ride on the join table that resolves message edges.

// parallelMinEvents is the event count below which the build runs on
// one worker: the fork/join overhead of a worker pool only pays for
// itself on traces that take longer to scan than to spawn workers.
const parallelMinEvents = 1 << 14

// rankLayout is one rank's declared counts and the first slot it owns
// in each graph-wide array.
type rankLayout struct {
	events, sends, recvs int
	maxSendID            int64
	// node is the rank's first node id, prog its first program edge,
	// msg its first message edge (counted after all program edges), and
	// out its first slot in the out-adjacency backing array.
	node, prog, msg, out int
}

// joinSlots maps a message id to a value+1 (0 = absent). The dense
// slice, indexed by id and claimed by compare-and-swap, serves the
// simulator's near-sequential ids, and concurrent duplicate claims are
// detected instead of silently racing; scattered ids use the map, on a
// single worker.
type joinSlots struct {
	dense  []int32
	sparse map[int64]int32
}

func newJoinSlots(scattered bool, maxID int64) joinSlots {
	if scattered {
		return joinSlots{sparse: make(map[int64]int32)}
	}
	return joinSlots{dense: make([]int32, maxID+1)}
}

// claim stores v for id and returns 0, or returns the value already
// stored. A dense id must be in range.
func (s joinSlots) claim(id int64, v int32) int32 {
	if s.sparse != nil {
		if prev := s.sparse[id]; prev != 0 {
			return prev
		}
		s.sparse[id] = v
		return 0
	}
	// The caller writes what v refers to before the CAS publishes it, so
	// a loser reading the winner's value observes it complete.
	if atomic.CompareAndSwapInt32(&s.dense[id], 0, v) {
		return 0
	}
	return atomic.LoadInt32(&s.dense[id])
}

// get returns the value stored for id, or 0. It must not run
// concurrently with claims on the same slots.
func (s joinSlots) get(id int64) int32 {
	if s.sparse != nil {
		return s.sparse[id]
	}
	if id < 0 || id >= int64(len(s.dense)) {
		return 0
	}
	return s.dense[id]
}

// builder carries one build's layout, output and join tables.
type builder struct {
	src    trace.Source
	lay    []rankLayout
	g      *Graph
	msgIDs []int64 // per node: the event's MsgID, the only column stages B and C need beyond the nodes
	// send maps a message id to its send's node id; recv to the
	// message edge that consumed it.
	send, recv      joinSlots
	outBack, inBack []int32
	numProg         int
}

// build constructs the event graph of src on up to workers goroutines
// partitioned over ranks; workers <= 0 picks one worker below
// parallelMinEvents declared events and GOMAXPROCS otherwise.
func build(src trace.Source, meta trace.Meta, workers int) (*Graph, error) {
	p := src.Procs()
	lay := make([]rankLayout, p)
	// Sums in int64: declared counts are outside input, and node ids and
	// edge indices must fit int32.
	var nodes, prog, recvs, sends int64
	maxSendID := int64(-1)
	for r := range lay {
		l := &lay[r]
		l.events, l.sends, l.recvs, l.maxSendID = src.RankCounts(r)
		l.node, l.prog, l.msg, l.out = int(nodes), int(prog), int(recvs), int(prog+sends)
		nodes += int64(l.events)
		if l.events > 0 {
			prog += int64(l.events - 1)
		}
		recvs += int64(l.recvs)
		sends += int64(l.sends)
		maxSendID = max(maxSendID, l.maxSendID)
	}
	if nodes > math.MaxInt32 || prog+recvs > math.MaxInt32 || prog+sends > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d events with %d sends and %d recvs exceed int32 node and edge ids", nodes, sends, recvs)
	}
	// The simulator issues sequential message ids, so the dense join
	// table's span is proportional to the send count; a hand-built
	// trace with scattered ids joins through maps on one worker.
	scattered := maxSendID > 4*sends+1023
	if workers <= 0 {
		workers = 1
		if nodes >= parallelMinEvents {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	if scattered {
		workers = 1
	}
	workers = min(workers, p)

	b := &builder{
		src: src,
		lay: lay,
		g: &Graph{
			Meta:  meta,
			Nodes: make([]Node, nodes),
			Edges: make([]Edge, prog+recvs),
			Out:   make([][]int32, nodes),
			In:    make([][]int32, nodes),
		},
		msgIDs:  make([]int64, nodes),
		send:    newJoinSlots(scattered, maxSendID),
		recv:    newJoinSlots(scattered, maxSendID),
		outBack: make([]int32, prog+sends),
		inBack:  make([]int32, prog+recvs),
		numProg: int(prog),
	}
	if err := forEachRank(workers, p, b.fillRank); err != nil {
		return nil, fmt.Errorf("graph: source trace invalid: %w", err)
	}
	if err := forEachRank(workers, p, b.linkRank); err != nil {
		return nil, fmt.Errorf("graph: source trace invalid: %w", err)
	}
	forEachRank(workers, p, b.adjacency)
	return b.g, nil
}

// forEachRank runs fn for every rank and returns the lowest-rank error.
// Ranks are claimed from a shared counter, so a heavy rank — the fan-in
// root of a message race — does not serialize behind a static partition.
func forEachRank(workers, p int, fn func(rank int) error) error {
	errs := make([]error, p)
	par.ForEach(workers, p, func(r int) { errs[r] = fn(r) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fillRank is stage A: read rank's stream once, check its invariants
// and its declared counts, and fill its nodes, program edges, msg-id
// column and send claims.
func (b *builder) fillRank(r int) error {
	l := &b.lay[r]
	g := b.g
	c := b.src.Cursor(r)
	var ev trace.Event
	var lastTime vtime.Time
	var lastLamport int64
	sends, recvs, maxID := 0, 0, int64(-1)
	i := 0
	for ; c.Next(&ev); i++ {
		switch {
		case i == l.events:
			return fmt.Errorf("rank %d: more events than the %d declared", r, l.events)
		case !ev.Kind.Valid():
			return fmt.Errorf("rank %d event %d: invalid kind %d", r, i, ev.Kind)
		case ev.Rank != r:
			return fmt.Errorf("rank %d event %d: recorded rank %d", r, i, ev.Rank)
		case ev.Seq != i:
			return fmt.Errorf("rank %d event %d: seq %d not dense", r, i, ev.Seq)
		case ev.Time < lastTime:
			return fmt.Errorf("rank %d event %d: time %v before predecessor %v", r, i, ev.Time, lastTime)
		case i > 0 && ev.Lamport <= lastLamport:
			return fmt.Errorf("rank %d event %d: lamport %d not after predecessor %d", r, i, ev.Lamport, lastLamport)
		}
		lastTime, lastLamport = ev.Time, ev.Lamport
		id := l.node + i
		g.Nodes[id] = Node{
			ID:           NodeID(id),
			Rank:         ev.Rank,
			Seq:          ev.Seq,
			Kind:         ev.Kind,
			Label:        ev.Label(),
			Lamport:      ev.Lamport,
			Time:         ev.Time,
			CallstackKey: ev.CallstackKey(),
		}
		if i > 0 {
			g.Edges[l.prog+i-1] = Edge{From: NodeID(id - 1), To: NodeID(id), Kind: EdgeProgram}
		}
		b.msgIDs[id] = ev.MsgID
		if ev.MsgID == trace.NoMsg {
			continue
		}
		if ev.Kind.IsReceive() {
			recvs++
		}
		if !ev.Kind.IsSend() {
			continue
		}
		if ev.MsgID < 0 {
			return fmt.Errorf("rank %d event %d: negative msg id %d", r, i, ev.MsgID)
		}
		if ev.MsgID > l.maxSendID {
			return fmt.Errorf("rank %d event %d: msg id %d above the declared maximum %d", r, i, ev.MsgID, l.maxSendID)
		}
		sends++
		maxID = max(maxID, ev.MsgID)
		if prev := b.send.claim(ev.MsgID, int32(id+1)); prev != 0 {
			return fmt.Errorf("msg %d sent twice (ranks %d and %d)", ev.MsgID, g.Nodes[prev-1].Rank, r)
		}
	}
	if err := c.Err(); err != nil {
		return err
	}
	if i != l.events || sends != l.sends || recvs != l.recvs || maxID != l.maxSendID {
		return fmt.Errorf("rank %d: stream (%d events, %d sends, %d recvs, max send id %d) disagrees with its declared counts (%d, %d, %d, %d)",
			r, i, sends, recvs, maxID, l.events, l.sends, l.recvs, l.maxSendID)
	}
	return nil
}

// linkRank is stage B: join rank's receives to their sends. A receive
// may precede its sender in rank-major order, which is why this stage
// needs stage A complete.
func (b *builder) linkRank(r int) error {
	l := &b.lay[r]
	g := b.g
	slot := b.numProg + l.msg
	for i := 0; i < l.events; i++ {
		to := l.node + i
		msgID := b.msgIDs[to]
		if msgID == trace.NoMsg || !g.Nodes[to].Kind.IsReceive() {
			continue
		}
		from := b.send.get(msgID)
		if from == 0 {
			return fmt.Errorf("rank %d event %d: recv of msg %d has no send", r, i, msgID)
		}
		if g.Nodes[to].Lamport <= g.Nodes[from-1].Lamport {
			return fmt.Errorf("rank %d event %d: recv of msg %d violates causality: lamport %d→%d",
				r, i, msgID, g.Nodes[from-1].Lamport, g.Nodes[to].Lamport)
		}
		g.Edges[slot] = Edge{From: NodeID(from - 1), To: NodeID(to), Kind: EdgeMessage}
		if prev := b.recv.claim(msgID, int32(slot+1)); prev != 0 {
			return fmt.Errorf("msg %d received twice (ranks %d and %d)", msgID, g.Nodes[g.Edges[prev-1].To].Rank, r)
		}
		slot++
	}
	return nil
}

// adjacency is stage C, the per-rank counterpart of Seal: each rank's
// nodes own a contiguous range of the backing arrays, so workers carve
// and fill without coordination. Out lists are [program edge, message
// edge] in ascending edge index — the order Seal produces by scanning
// edges in index order — and every list's capacity is clamped to its
// length, as Seal does.
func (b *builder) adjacency(r int) error {
	l := &b.lay[r]
	g := b.g
	op, ip := l.out, l.prog+l.msg
	recvSlot := int32(b.numProg + l.msg)
	for i := 0; i < l.events; i++ {
		id := l.node + i
		msgID := b.msgIDs[id]
		kind := g.Nodes[id].Kind
		var sendEdge int32
		isRecv := false
		if msgID != trace.NoMsg {
			if kind.IsSend() {
				sendEdge = b.recv.get(msgID)
			} else if kind.IsReceive() {
				isRecv = true
			}
		}
		out := b.outBack[op:op]
		if i < l.events-1 {
			out = append(out, int32(l.prog+i))
		}
		if sendEdge != 0 {
			out = append(out, sendEdge-1)
		}
		in := b.inBack[ip:ip]
		if i > 0 {
			in = append(in, int32(l.prog+i-1))
		}
		if isRecv {
			in = append(in, recvSlot)
			recvSlot++
		}
		op += len(out)
		ip += len(in)
		g.Out[id] = out[:len(out):len(out)]
		g.In[id] = in[:len(in):len(in)]
	}
	return nil
}
