package kernel

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"

	"github.com/anacin-go/anacinx/internal/graph"
	"github.com/anacin-go/anacinx/internal/trace"
)

// Streaming WL embedding. WL refinement is local: a node's depth-d
// label depends only on the depth-(d-1) labels of itself, its program
// neighbors (the previous and next event of its rank), and its message
// partner. Events therefore never need to exist all at once — a sliding
// window per rank holds each node only until its own refinement is done
// AND every neighbor that still needs its labels is done too. The
// feature histogram is aggregated into a map as occurrences appear;
// since vecBuilder.finish canonicalizes by sorting, the resulting
// FeatureVector is byte-identical to WL.Features on the materialized
// graph (a property the tests pin).
//
// A WLStream is pushed its events in any rank interleaving. It has two
// drivers: a simulation teeing its events into it in scheduler order
// (an archived campaign run, beside the trace.StreamWriter), and the
// (time, rank) cursor merge over a v2 trace.Reader (FeaturesFromReader,
// for replay of an archive).
//
// Window growth mirrors message latency: balanced patterns (stencils,
// meshes) hold a near-constant window, while an eager fan-in like
// message_race defers every unmatched send to the end of the stream.

// StreamingKernel is a Kernel that can embed a trace as its events
// arrive, without materializing the trace or its graph.
type StreamingKernel interface {
	Kernel
	// NewStream starts a push-driven embedding of a procs-rank trace.
	// Its Finish returns the same embedding Features produces on the
	// trace's event graph.
	NewStream(procs int) *WLStream
}

// StreamStats describes one streaming embedding pass.
type StreamStats struct {
	// Events is the number of trace events consumed.
	Events int
	// MaxWindow is the peak number of simultaneously buffered nodes.
	MaxWindow int
	// MaxInFlight is the peak number of message endpoints awaiting
	// their partner.
	MaxInFlight int
	// DistinctFeatures is the size of the resulting histogram.
	DistinctFeatures int
}

// FeaturesFromReader embeds the trace behind r under k. Kernels that
// implement StreamingKernel stream; any other kernel falls back to
// building the graph through the reader (graph.FromReader) and
// embedding that. Either way the result equals k.Features of the
// trace's event graph.
func FeaturesFromReader(k Kernel, r *trace.Reader) (FeatureVector, error) {
	if sk, ok := k.(StreamingKernel); ok {
		return embedMerged(sk.NewStream(r.Procs()), r)
	}
	g, err := graph.FromReader(r)
	if err != nil {
		return FeatureVector{}, err
	}
	return k.Features(g), nil
}

// FeaturesFromReader embeds the trace behind r by streaming it through
// a WLStream.
func (w WL) FeaturesFromReader(r *trace.Reader) (FeatureVector, error) {
	fv, _, err := w.FeaturesFromReaderStats(r)
	return fv, err
}

// FeaturesFromReaderStats is FeaturesFromReader plus the pass's
// windowing statistics (the footprint regression test pins MaxWindow).
func (w WL) FeaturesFromReaderStats(r *trace.Reader) (FeatureVector, StreamStats, error) {
	s := w.NewStream(r.Procs())
	fv, err := embedMerged(s, r)
	return fv, s.Stats(), err
}

// NewStream implements StreamingKernel. The stream's working memory
// comes from a package pool and goes back to it when Finish succeeds.
func (w WL) NewStream(procs int) *WLStream {
	if w.H < 0 {
		panic(fmt.Sprintf("kernel: WL.NewStream called with negative depth H=%d (construct with NewWL, or set H >= 0)", w.H))
	}
	return w.newStream(procs, getStreamScratch())
}

// newStream starts a stream on sc, resized for procs ranks and depth
// w.H.
func (w WL) newStream(procs int, sc *streamScratch) *WLStream {
	sc.reset(w.H, procs)
	return &WLStream{w: w, streamScratch: sc}
}

// streamScratch is a stream's working memory: everything a pass grows
// in proportion to its window. A mesh campaign embeds thousands of runs
// of one shape, so recycling the scratch across streams
// (streamScratchPool) turns the per-run cost of the window's nodes,
// buffers and maps into a one-time one, as colBlockPool does for the
// encoder's columns.
type streamScratch struct {
	dp       []uint64
	windows  []wlWindow
	inflight map[int64]*wlNode
	feats    map[uint64]float64
	work     []*wlNode
	neigh    []uint64
	// free holds released nodes for reuse, so a pass allocates nodes in
	// proportion to its peak window rather than its event count, and a
	// recycled scratch allocates none until it outgrows its last pass.
	free []*wlNode
}

// streamScratchPool recycles the scratch of streams that finished
// without error.
var streamScratchPool sync.Pool

// Pool bounds: scratch whose free list or feature map outgrew these is
// left to the garbage collector rather than pinned in the pool. A
// 1024-rank message_race run, the largest the benchmarks embed, peaks
// at about 27K nodes; the bounds sit above it.
const (
	maxPooledNodes    = 1 << 16
	maxPooledFeatures = 1 << 17
)

func newStreamScratch() *streamScratch {
	return &streamScratch{
		inflight: make(map[int64]*wlNode),
		feats:    make(map[uint64]float64),
	}
}

func getStreamScratch() *streamScratch {
	if sc, _ := streamScratchPool.Get().(*streamScratch); sc != nil {
		return sc
	}
	return newStreamScratch()
}

// putStreamScratch returns sc to the pool unless it is oversized,
// reporting whether it was pooled. sc must come from a stream that
// finished without error: every window is then empty and inflight is
// cleared.
func putStreamScratch(sc *streamScratch) bool {
	if len(sc.free) > maxPooledNodes || len(sc.feats) > maxPooledFeatures {
		return false
	}
	streamScratchPool.Put(sc)
	return true
}

// reset prepares sc for a procs-rank pass at depth h. Window buffers
// and maps are kept, emptied; free nodes whose labels do not hold h+1
// depths are dropped (a free list is uniform: all its nodes come from
// one depth).
func (sc *streamScratch) reset(h, procs int) {
	sc.dp = slices.Grow(sc.dp[:0], h+1)[:h+1]
	for d := range sc.dp {
		sc.dp[d] = hashWord(fnvOffset, uint64(d))
	}
	if n := cap(sc.windows); n < procs {
		sc.windows = slices.Grow(sc.windows[:n], procs-n)
	}
	sc.windows = sc.windows[:procs]
	for i := range sc.windows {
		sc.windows[i] = wlWindow{buf: sc.windows[i].buf[:0]}
	}
	clear(sc.feats)
	if len(sc.free) > 0 && len(sc.free[0].labels) != h+1 {
		clear(sc.free)
		sc.free = sc.free[:0]
	}
}

// wlNode is one buffered event during a streaming pass.
type wlNode struct {
	seq     int
	rank    int
	depth   int
	hasNext bool
	// isSend/isRecv mark message-capable roles (MsgID present).
	isSend, isRecv bool
	// pendingMsg marks a send whose receive has not arrived; until the
	// stream ends, it is unknown whether an out message edge exists.
	pendingMsg bool
	// waiting marks a receive held in inflight until its send arrives.
	waiting bool
	inWork  bool
	partner *wlNode
	labels  []uint64
}

// wlWindow is one rank's sliding window, a deque indexed by sequence.
// The live nodes are buf[lo:]; releasing the head advances lo, and a
// push into a full buffer whose released prefix is at least half of it
// slides the live nodes down instead of reallocating, so the buffer
// stays within a small multiple of the rank's peak window.
type wlWindow struct {
	buf  []*wlNode
	lo   int
	head int // seq of buf[lo]
	// events counts the rank's appended events: the next one's seq.
	events int
}

// nodes returns the live window, head first.
func (w *wlWindow) nodes() []*wlNode { return w.buf[w.lo:] }

func (w *wlWindow) at(seq int) *wlNode {
	i := seq - w.head
	if i < 0 || i >= len(w.buf)-w.lo {
		return nil
	}
	return w.buf[w.lo+i]
}

func (w *wlWindow) push(n *wlNode) {
	if len(w.buf) == cap(w.buf) && 2*w.lo >= len(w.buf) {
		k := copy(w.buf, w.buf[w.lo:])
		clear(w.buf[k:])
		w.buf, w.lo = w.buf[:k], 0
	}
	w.buf = append(w.buf, n)
}

// pop drops the head node.
func (w *wlWindow) pop() {
	w.buf[w.lo] = nil
	w.lo++
	w.head++
}

// WLStream is one push-driven streaming WL embedding: Append its
// trace's events, then Finish. It implements trace.EventSink, so a
// simulation can feed it directly (sim.Config.Sink), alone or beside a
// trace.StreamWriter. Events of one rank must arrive in that rank's
// order; ranks may interleave in any way, which changes only the
// window size, never the result. Each rank's sequence numbers are
// assigned here (an event's Seq is ignored), and since the stream
// cannot know a rank's last event before Finish, every node's hasNext
// stays provisional until then. Errors are sticky: the first one stops
// ingest and is returned by Finish.
type WLStream struct {
	w WL
	// The scratch is nil once Finish has taken it back.
	*streamScratch
	live     int
	stats    StreamStats
	fv       FeatureVector
	err      error
	finished bool
}

// Stats returns the pass's windowing statistics so far.
func (s *WLStream) Stats() StreamStats { return s.stats }

func (s *WLStream) addFeat(h uint64) { s.feats[h]++ }

func (s *WLStream) push(n *wlNode) {
	if n != nil && !n.inWork {
		n.inWork = true
		s.work = append(s.work, n)
	}
}

// cursorHeap merges the per-rank streams by (time, rank): an
// approximation of simulation order that keeps message partners close
// in the merged stream. The interleave only affects window size — the
// occurrence multiset, and therefore the embedding, is independent of
// consumption order.
type cursorEntry struct {
	cur  *trace.Cursor
	ev   trace.Event
	rank int
}
type cursorHeap []cursorEntry

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	if h[i].ev.Time != h[j].ev.Time {
		return h[i].ev.Time < h[j].ev.Time
	}
	return h[i].rank < h[j].rank
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(cursorEntry)) }
func (h *cursorHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// embedMerged appends every event behind r to s in (time, rank) order
// and finishes s, returning its embedding or the first decode or
// stream error.
func embedMerged(s *WLStream, r *trace.Reader) (FeatureVector, error) {
	p := r.Procs()
	h := make(cursorHeap, 0, p)
	for rank := 0; rank < p; rank++ {
		c := r.Cursor(rank)
		var ev trace.Event
		if c.Next(&ev) {
			h = append(h, cursorEntry{cur: c, ev: ev, rank: rank})
		} else if err := c.Err(); err != nil {
			return FeatureVector{}, err
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		e := &h[0]
		s.Append(e.ev)
		if e.cur.Next(&e.ev) {
			heap.Fix(&h, 0)
		} else {
			if err := e.cur.Err(); err != nil {
				return FeatureVector{}, err
			}
			heap.Pop(&h)
		}
	}
	return s.Finish()
}

// Finish ends the stream and returns its embedding, or the first error
// the stream met. Finish is idempotent; Append after Finish is an
// error. A stream that finishes without error hands its scratch back
// for the next stream; one that fails, or is never finished, leaves it
// to the garbage collector.
func (s *WLStream) Finish() (FeatureVector, error) {
	if sc := s.end(); sc != nil {
		putStreamScratch(sc)
	}
	if s.err != nil {
		return FeatureVector{}, s.err
	}
	return s.fv, nil
}

// end finishes the stream on its first call and detaches its scratch,
// returning it when the pass succeeded (nil otherwise, and on every
// later call).
func (s *WLStream) end() *streamScratch {
	if s.finished {
		return nil
	}
	s.finished = true
	if s.err == nil {
		s.err = s.finish()
	}
	sc := s.streamScratch
	s.streamScratch = nil
	if s.err != nil {
		return nil
	}
	s.stats.DistinctFeatures = len(sc.feats)
	// An empty pass keeps the zero FeatureVector, matching Features on
	// the empty graph: the literal zero value, not an allocated empty
	// vector.
	if s.stats.Events > 0 {
		s.fv = FromMap(sc.feats)
	}
	return sc
}

func (s *WLStream) finish() error {
	// Each rank's last node has no successor after all.
	for rank := range s.windows {
		if nodes := s.windows[rank].nodes(); len(nodes) > 0 {
			last := nodes[len(nodes)-1]
			last.hasNext = false
			s.push(last)
		}
	}
	// End of stream: every still-pending send is an unmatched send — a
	// node with no out message edge. A pending receive has no sender,
	// which no valid trace produces.
	for id, n := range s.inflight {
		if n.isRecv {
			return fmt.Errorf("kernel: recv of msg %d has no send", id)
		}
		n.pendingMsg = false
		s.push(n)
	}
	clear(s.inflight)
	// Final drain: everything left can now refine to full depth.
	for rank := range s.windows {
		for _, n := range s.windows[rank].nodes() {
			s.push(n)
		}
	}
	s.propagate()
	for rank := range s.windows {
		s.release(rank)
	}
	if s.live != 0 {
		return fmt.Errorf("kernel: streaming WL left %d nodes unrefined (internal error)", s.live)
	}
	return nil
}

// newNode returns a zeroed node for event seq of rank, recycled from
// the free list when one is available.
func (s *WLStream) newNode(seq, rank int) *wlNode {
	if k := len(s.free); k > 0 {
		n := s.free[k-1]
		s.free = s.free[:k-1]
		*n = wlNode{seq: seq, rank: rank, labels: n.labels}
		return n
	}
	return &wlNode{seq: seq, rank: rank, labels: make([]uint64, s.w.H+1)}
}

// kindLabelHash is labelInterner.Hash(k.String()) for every possible
// EventKind value, computed once so that the per-event label lookup
// takes no lock.
var kindLabelHash = func() (t [256]uint64) {
	for k := range t {
		t[k] = labelInterner.Hash(trace.EventKind(k).String())
	}
	return t
}()

// Append implements trace.EventSink: it adds one event as its rank's
// next node and refines whatever the arrival unblocks.
func (s *WLStream) Append(ev trace.Event) {
	if s.err != nil {
		return
	}
	if s.finished {
		s.err = fmt.Errorf("kernel: WLStream.Append after Finish")
		return
	}
	if ev.Rank < 0 || ev.Rank >= len(s.windows) {
		s.err = fmt.Errorf("kernel: event rank %d out of range [0,%d)", ev.Rank, len(s.windows))
		return
	}
	win := &s.windows[ev.Rank]
	seq := win.events
	win.events++
	n := s.newNode(seq, ev.Rank)
	base := kindLabelHash[ev.Kind]
	if s.w.Seed != 0 {
		base = splitmix64(base ^ s.w.Seed)
	}
	n.labels[0] = base
	s.addFeat(hashWord(s.dp[0], base))
	n.hasNext = true // provisional until Finish

	if ev.MsgID != trace.NoMsg {
		switch {
		case ev.Kind.IsSend():
			n.isSend = true
			if other, ok := s.inflight[ev.MsgID]; ok {
				if other.isSend {
					s.err = fmt.Errorf("kernel: msg %d sent twice (ranks %d and %d)", ev.MsgID, other.rank, n.rank)
					return
				}
				other.waiting = false
				n.partner, other.partner = other, n
				delete(s.inflight, ev.MsgID)
				s.push(other)
			} else {
				n.pendingMsg = true
				s.inflight[ev.MsgID] = n
			}
		case ev.Kind.IsReceive():
			n.isRecv = true
			if other, ok := s.inflight[ev.MsgID]; ok {
				if other.isRecv {
					s.err = fmt.Errorf("kernel: msg %d received twice (ranks %d and %d)", ev.MsgID, other.rank, n.rank)
					return
				}
				other.pendingMsg = false
				n.partner, other.partner = other, n
				delete(s.inflight, ev.MsgID)
				s.push(other)
			} else {
				n.waiting = true
				s.inflight[ev.MsgID] = n
			}
		}
		if len(s.inflight) > s.stats.MaxInFlight {
			s.stats.MaxInFlight = len(s.inflight)
		}
	}

	if len(win.nodes()) == 0 {
		win.head = seq
	}
	win.push(n)
	s.live++
	s.stats.Events++
	if s.live > s.stats.MaxWindow {
		s.stats.MaxWindow = s.live
	}

	partner := n.partner // read before a release can recycle n
	s.push(n)
	s.push(win.at(seq - 1)) // its arrival may unblock the predecessor
	s.propagate()
	s.release(ev.Rank)
	if partner != nil {
		s.release(partner.rank)
	}
}

// propagate advances every worklist node as far as its dependencies
// allow, feeding newly unblocked neighbors back onto the list.
func (s *WLStream) propagate() {
	for len(s.work) > 0 {
		n := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		n.inWork = false
		for s.advance(n) {
			win := &s.windows[n.rank]
			s.push(win.at(n.seq - 1))
			s.push(win.at(n.seq + 1))
			s.push(n.partner)
		}
	}
}

// advance computes n's next refinement depth if all depth-d inputs are
// available, reporting whether it advanced.
func (s *WLStream) advance(n *wlNode) bool {
	d := n.depth
	// A pending send or a waiting receive does not know its message
	// edge yet, so its next label is not computable.
	if d >= s.w.H || n.pendingMsg || n.waiting {
		return false
	}
	if n.partner != nil && n.partner.depth < d {
		return false
	}
	win := &s.windows[n.rank]
	var prev, next *wlNode
	if n.seq > win.head {
		if prev = win.at(n.seq - 1); prev == nil || prev.depth < d {
			return false
		}
	}
	if n.hasNext {
		if next = win.at(n.seq + 1); next == nil || next.depth < d {
			return false
		}
	}

	// Same recurrence as WL.Features: fold the sorted neighbor
	// contributions (in then out when directed, separated; unioned when
	// not) into the node's own depth-d label.
	h := hashWord(fnvOffset, n.labels[d])
	neigh := s.neigh[:0]
	if s.w.Directed {
		if prev != nil {
			neigh = append(neigh, contribution(graph.EdgeProgram, prev.labels[d]))
		}
		if n.isRecv && n.partner != nil {
			neigh = append(neigh, contribution(graph.EdgeMessage, n.partner.labels[d]))
		}
		h = foldSorted(h, neigh)
		h = hashWord(h, inOutSeparator)
		neigh = neigh[:0]
		if next != nil {
			neigh = append(neigh, contribution(graph.EdgeProgram, next.labels[d]))
		}
		if n.isSend && n.partner != nil {
			neigh = append(neigh, contribution(graph.EdgeMessage, n.partner.labels[d]))
		}
		h = foldSorted(h, neigh)
	} else {
		if prev != nil {
			neigh = append(neigh, contribution(graph.EdgeProgram, prev.labels[d]))
		}
		if next != nil {
			neigh = append(neigh, contribution(graph.EdgeProgram, next.labels[d]))
		}
		if n.partner != nil {
			neigh = append(neigh, contribution(graph.EdgeMessage, n.partner.labels[d]))
		}
		h = foldSorted(h, neigh)
	}
	s.neigh = neigh[:0]
	n.depth = d + 1
	n.labels[d+1] = h
	s.addFeat(hashWord(s.dp[d+1], h))
	return true
}

// release frees the window head of one rank while nothing still needs
// it: the head itself is fully refined, its successor (which reads the
// head's labels) is too, and so is its message partner. A freed node
// goes to the free list once nothing points at it: its partner's
// back-pointer is cleared (the partner is fully refined and never reads
// it again), and a receive still waiting in inflight for its send is
// left to the garbage collector.
func (s *WLStream) release(rank int) {
	win := &s.windows[rank]
	for len(win.nodes()) > 0 {
		n := win.nodes()[0]
		if n.depth < s.w.H || n.pendingMsg {
			return
		}
		if n.hasNext {
			next := win.at(n.seq + 1)
			if next == nil || next.depth < s.w.H {
				return
			}
		}
		if n.partner != nil && (n.partner.depth < s.w.H || n.partner.pendingMsg) {
			return
		}
		win.pop()
		s.live--
		if n.waiting {
			continue
		}
		if n.partner != nil {
			n.partner.partner = nil
		}
		s.free = append(s.free, n)
	}
}
