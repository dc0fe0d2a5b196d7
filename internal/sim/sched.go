package sim

import (
	"context"
	"fmt"
	"runtime/debug"
	"unsafe"

	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// message is one point-to-point payload in flight or in a mailbox.
type message struct {
	id          int64 // global identity, unique within a run
	src, dst    int
	tag         int
	size        int
	data        []byte
	chanSeq     int   // sequence on the (src,dst) channel
	sendLamport int64 // sender's Lamport clock at the send event
	arrival     vtime.Time
	deliverSeq  int64    // heap tie-break; assigned at scheduling time
	delayed     bool     // true when congestion jitter was applied
	internal    bool     // true for untraced collective plumbing
	rendezvous  bool     // sender completion deferred until consumption
	sendReq     *Request // pending non-blocking rendezvous send, if any
}

// eventHeap is a hand-rolled min-heap of in-flight messages ordered by
// (arrival, deliverSeq). Hand-rolled rather than container/heap so the
// per-message push/pop stays free of interface conversions and dynamic
// dispatch — it sits on the hot path of every send. The ordering keys
// live inline in the heap entries: a deep in-flight queue (a fan-in
// root tens of thousands of messages behind its senders) sifts through
// contiguous memory instead of dereferencing two *message per compare.
type eventHeap []heapEntry

// heapEntry is one in-flight message with its ordering keys hoisted out
// of the message object.
type heapEntry struct {
	arrival    vtime.Time
	deliverSeq int64
	msg        *message
}

func entryBefore(a, b heapEntry) bool {
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.deliverSeq < b.deliverSeq
}

func (h *eventHeap) push(m *message) {
	*h = append(*h, heapEntry{arrival: m.arrival, deliverSeq: m.deliverSeq, msg: m})
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryBefore((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() *message {
	old := *h
	m := old[0].msg
	last := len(old) - 1
	old[0] = old[last]
	old[last] = heapEntry{}
	*h = old[:last]
	h.down(0)
	return m
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && entryBefore(h[right], h[left]) {
			least = right
		}
		if !entryBefore(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

type rankStatus uint8

const (
	statusReady rankStatus = iota
	statusRunning
	statusBlocked
	statusDone
)

type waitKind uint8

const (
	waitRecv waitKind = iota
	waitProbe
	waitRequest
	waitAny
	waitRendezvous
)

// waiter describes why a rank is blocked.
type waiter struct {
	kind     waitKind
	src      int // filter (AnySource ok) for waitRecv/waitProbe
	tag      int
	internal bool       // waiting for collective plumbing, not user messages
	key      *MatchKey  // exact replay match, when replaying
	req      *Request   // for waitRequest
	reqs     []*Request // for waitAny
	msg      *message   // filled by the scheduler on match
}

func (w *waiter) describe() string {
	src := "any"
	if w.src != AnySource {
		src = fmt.Sprint(w.src)
	}
	tag := "any"
	if w.tag != AnyTag {
		tag = fmt.Sprint(w.tag)
	}
	switch w.kind {
	case waitRecv:
		return fmt.Sprintf("in Recv(src=%s, tag=%s)", src, tag)
	case waitProbe:
		return fmt.Sprintf("in Probe(src=%s, tag=%s)", src, tag)
	case waitRequest:
		if w.req != nil && w.req.isRecv {
			return fmt.Sprintf("in Wait(Irecv src=%s, tag=%s)", src, tag)
		}
		return "in Wait(Isend)"
	case waitAny:
		return fmt.Sprintf("in Waitany(%d requests)", len(w.reqs))
	case waitRendezvous:
		if w.msg != nil {
			return fmt.Sprintf("in Send(rendezvous to %d, tag=%d, %d B)", w.msg.dst, w.msg.tag, w.msg.size)
		}
		return "in Send(rendezvous)"
	}
	return "blocked"
}

// matches reports whether msg satisfies the waiter's filter and, when a
// replay key is pinned, whether it is exactly the recorded message.
func (w *waiter) matches(msg *message) bool {
	return msg.internal == w.internal && filterMatches(w.src, w.tag, w.key, msg)
}

// filterMatches applies the (src, tag) wildcard filter plus an optional
// replay pin. Internal/user isolation is enforced separately (by
// matchAllowed on mailbox scans and by the internal flags on waiters and
// posted requests), so collective plumbing may use wildcard receives.
func filterMatches(src, tag int, key *MatchKey, msg *message) bool {
	if src != AnySource && msg.src != src {
		return false
	}
	if tag != AnyTag && msg.tag != tag {
		return false
	}
	if key != nil && (msg.src != key.Src || msg.chanSeq != key.ChanSeq) {
		return false
	}
	return true
}

// chanState is the per-(src,dst) channel bookkeeping: the next ChanSeq
// to assign and the last scheduled arrival (which enforces the MPI
// non-overtaking bump in schedule).
type chanState struct {
	seq         int
	lastArrival vtime.Time
	hasArrival  bool
}

// chanRowLinearMax bounds the destination count up to which a source's
// channel row is searched linearly. Real communication patterns are
// sparse — a stencil rank talks to a handful of neighbours — so the
// linear form keeps the two per-message lookups inside one or two cache
// lines with zero hashing. Rows that outgrow the bound (all-to-all
// exchanges, fan-in roots) build a map index once and stay O(1). A var,
// not a const, so tests can force either regime and assert the traces
// are byte-identical.
var chanRowLinearMax = 16

// chanRow is the channel state for every destination one source has
// actually messaged, in first-touch order (a CSR-style row); index is
// nil until the row outgrows chanRowLinearMax. Keeping dst and state in
// one entry slice costs a single allocation per active row — parallel
// dst/state slices doubled the 32-rank scenarios' allocs/op.
type chanRow struct {
	entries []chanEntry
	index   map[int32]int32 // dst → position in entries
}

// chanEntry is one (dst, state) pair of a source's row.
type chanEntry struct {
	dst   int32
	state chanState
}

// chanRowInitialCap sizes a row's first allocation: stencil and ring
// patterns touch 2–4 destinations per source, so one small block covers
// the common row outright.
const chanRowInitialCap = 4

// chanTable tracks per-channel state sized to the channels actually
// touched: O(P) row headers plus O(channels used) entries, never the
// dense P*P table (24 MiB at 1024 ranks, 384 MiB at 4096) that a
// mostly-sparse communication pattern would leave cold.
type chanTable struct {
	rows []chanRow
}

func newChanTable(p int) chanTable {
	return chanTable{rows: make([]chanRow, p)}
}

// at returns the mutable state of the (src,dst) channel, creating it on
// first touch. The pointer is invalidated by the next at() call (the
// row's backing array may grow); both call sites use it transiently.
func (c *chanTable) at(src, dst int) *chanState {
	row := &c.rows[src]
	d := int32(dst)
	if row.index != nil {
		if i, ok := row.index[d]; ok {
			return &row.entries[i].state
		}
	} else {
		for i := range row.entries {
			if row.entries[i].dst == d {
				return &row.entries[i].state
			}
		}
	}
	if row.entries == nil {
		row.entries = make([]chanEntry, 0, chanRowInitialCap)
	}
	row.entries = append(row.entries, chanEntry{dst: d})
	i := int32(len(row.entries) - 1)
	if row.index != nil {
		row.index[d] = i
	} else if len(row.entries) > chanRowLinearMax {
		row.index = make(map[int32]int32, len(row.entries)*2)
		for j := range row.entries {
			row.index[row.entries[j].dst] = int32(j)
		}
	}
	return &row.entries[i].state
}

// channels returns the number of (src,dst) channels touched so far.
func (c *chanTable) channels() int {
	n := 0
	for i := range c.rows {
		n += len(c.rows[i].entries)
	}
	return n
}

// footprintBytes estimates the resident size of the table: row headers
// plus the capacity (not length) of every row's backing arrays and map.
// It exists for the memory-regression tests, which pin the O(channels
// used) bound.
func (c *chanTable) footprintBytes() int {
	const (
		rowHeader = int(unsafe.Sizeof(chanRow{}))
		entry     = int(unsafe.Sizeof(chanEntry{}))
		// One map bucket holds 8 entries of (key, value, tophash) plus an
		// overflow pointer; approximate the per-entry share generously.
		mapEntry = 2 * (4 + 4 + 8)
	)
	n := len(c.rows) * rowHeader
	for i := range c.rows {
		row := &c.rows[i]
		n += cap(row.entries) * entry
		if row.index != nil {
			n += len(row.index) * mapEntry
		}
	}
	return n
}

// readyHeap is an indexed min-heap of ready ranks ordered by
// (clock, id) — exactly pick's resume order, but O(log P) per transition
// and O(1) per peek instead of an O(P) scan per scheduler step (and per
// fast-path yield). Each Rank carries its heap index; a rank's clock
// never changes while it sits in the heap (only the running rank
// advances its own clock), so entries never need re-sifting in place.
type readyHeap []*Rank

func rankBefore(a, b *Rank) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

func (h *readyHeap) push(r *Rank) {
	r.heapIdx = len(*h)
	*h = append(*h, r)
	h.up(r.heapIdx)
}

func (h *readyHeap) pop() *Rank {
	old := *h
	r := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[0].heapIdx = 0
	old[last] = nil
	*h = old[:last]
	if last > 0 {
		h.down(0)
	}
	r.heapIdx = -1
	return r
}

// peek returns the ready rank with the smallest (clock, id), or nil.
func (h readyHeap) peek() *Rank {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

func (h readyHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !rankBefore(h[i], h[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h readyHeap) down(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && rankBefore(h[right], h[left]) {
			least = right
		}
		if !rankBefore(h[least], h[i]) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

func (h readyHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

// abortSentinel unwinds rank goroutines during shutdown.
type abortSentinel struct{}

// containsRequest reports whether req is one of reqs.
func containsRequest(reqs []*Request, req *Request) bool {
	for _, r := range reqs {
		if r == req {
			return true
		}
	}
	return false
}

// errStepBudget builds the runaway-program error (shared by pick and
// the fast-path yield).
func errStepBudget(budget int) error {
	return fmt.Errorf("sim: step budget %d exceeded (runaway program?)", budget)
}

// simulation holds all scheduler state. There is no scheduler
// goroutine: whichever goroutine holds control — the one running Run
// before the first rank starts and after the last one hands back, or
// the single resumed rank — runs the scheduler step (pick) itself and
// hands control straight to the next rank. Exactly one goroutine
// touches this state at any moment; the unbuffered resume and finished
// channels order each handoff.
type simulation struct {
	cfg  Config
	tr   *trace.Trace    // nil when events stream to sink instead
	sink trace.EventSink // Config.Sink
	// sinkEvents counts events handed to the sink, standing in for
	// tr.NumEvents() in the run's stats.
	sinkEvents int
	ranks      []*Rank

	events     eventHeap
	ready      readyHeap     // statusReady ranks, min (clock, id) first
	finished   chan struct{} // a rank hands control back to Run
	netRNG     *vtime.RNG
	msgID      int64
	deliverSeq int64
	chans      chanTable
	freeMsgs   []*message // recycled message structs (never escape a run)
	stats      Stats
	steps      int
	abortFlag  bool
	panicErr   *PanicError
	// endErr latches the first error that ends the run early: a step
	// budget overrun, a cancellation, or a deadlock.
	endErr error
	// ctx cancels the run; cancellable caches whether ctx can ever be
	// done so the hot scheduling paths skip the check entirely for
	// background runs.
	ctx         context.Context
	cancellable bool
}

// cancelCheckMask throttles context polling: pick and the fast-path
// yield consult ctx.Err() once every cancelCheckMask+1 steps,
// keeping the per-step cost of cancellation support to a counter test.
const cancelCheckMask = 0x3FF

// cancelled reports whether the run's context is done, latching the
// cancellation into endErr. Called only every cancelCheckMask+1 steps.
func (s *simulation) cancelled() bool {
	if !s.cancellable {
		return false
	}
	if err := s.ctx.Err(); err != nil {
		s.endErr = fmt.Errorf("sim: run cancelled: %w", err)
		return true
	}
	return false
}

func newSim(cfg Config, meta trace.Meta) *simulation {
	s := &simulation{
		cfg:      cfg,
		sink:     cfg.Sink,
		finished: make(chan struct{}),
		netRNG:   vtime.NewRNG(cfg.Seed).Split(0xC0FFEE),
		chans:    newChanTable(cfg.Procs),
		ready:    make(readyHeap, 0, cfg.Procs),
	}
	if s.sink == nil {
		s.tr = trace.NewWithCapacity(meta, cfg.EventsPerRankHint)
	}
	base := vtime.NewRNG(cfg.Seed)
	s.ranks = make([]*Rank, cfg.Procs)
	for i := range s.ranks {
		s.ranks[i] = &Rank{
			sim:     s,
			id:      i,
			node:    cfg.NodeOf(i),
			status:  statusReady,
			heapIdx: -1,
			resume:  make(chan struct{}),
			rng:     base.Split(uint64(i) + 1),
		}
		s.ready.push(s.ranks[i])
	}
	return s
}

// makeReady transitions a blocked (or freshly runnable) rank into the
// ready heap. The rank's clock must already be final: entries are never
// re-sifted while in the heap.
func (s *simulation) makeReady(r *Rank) {
	r.status = statusReady
	s.ready.push(r)
}

// newMessage takes a message struct from the free list, or allocates.
func (s *simulation) newMessage() *message {
	if n := len(s.freeMsgs); n > 0 {
		m := s.freeMsgs[n-1]
		s.freeMsgs[n-1] = nil
		s.freeMsgs = s.freeMsgs[:n-1]
		return m
	}
	return new(message)
}

// release recycles a fully consumed message struct. Only the struct is
// pooled — the payload slice escapes to user code with the delivered
// Message and is never reused. Zeroing the struct is what makes the
// pool safe: a recycled message must not leak delayed/rendezvous flags
// or a stale sendReq into the next send.
func (s *simulation) release(m *message) {
	*m = message{}
	s.freeMsgs = append(s.freeMsgs, m)
}

// run launches the rank goroutines, hands control to the first rank
// and waits until a rank hands it back with the run over.
func (s *simulation) run(program Program) (*trace.Trace, *Stats, error) {
	for _, r := range s.ranks {
		//anacin:allow goroutine the simulation is the sanctioned owner: it starts each rank exactly once and the handoff protocol keeps one goroutine runnable at a time
		go s.rankMain(r, program)
	}
	if next := s.pick(); next != nil {
		next.resume <- struct{}{}
		<-s.finished
	}
	s.shutdown()
	if s.panicErr != nil {
		return nil, nil, s.panicErr
	}
	if s.endErr != nil {
		return nil, nil, s.endErr
	}
	// Return a copy: a pointer into s would keep the whole simulation
	// (its ranks, its sink, its trace) reachable for as long as the
	// caller keeps the stats.
	stats := s.stats
	if s.sink != nil {
		stats.Events = s.sinkEvents
		return nil, &stats, nil
	}
	stats.Events = s.tr.NumEvents()
	return s.tr, &stats, nil
}

// rankMain is the goroutine body for one rank: wait for the first
// resume, record Init, run the program, record Finalize.
func (s *simulation) rankMain(r *Rank, program Program) {
	defer func() {
		if v := recover(); v != nil {
			if _, isAbort := v.(abortSentinel); !isAbort && s.panicErr == nil {
				s.panicErr = &PanicError{Rank: r.id, Value: v, Stack: string(debug.Stack())}
			}
		}
		r.status = statusDone
		s.handoff(s.pick())
	}()
	<-r.resume
	if s.abortFlag {
		panic(abortSentinel{})
	}
	r.lamport++
	r.record(trace.KindInit, trace.NoPeer, 0, 0, trace.NoMsg, 0, trace.Stack{})
	r.yield()
	program(r)
	r.lamport++
	r.record(trace.KindFinalize, trace.NoPeer, 0, 0, trace.NoMsg, 0, trace.Stack{})
	// The deferred handler marks the rank done and hands control on.
}

// pick is the discrete-event core: it repeatedly performs the globally
// earliest action — delivering the earliest in-flight message — until
// the earliest action is to resume the ready rank with the earliest
// local clock, and returns that rank, already marked running. It
// returns nil when the run is over: every rank done, or the run ended
// early with the cause in panicErr or endErr. During shutdown it
// returns nil at once, so an unwinding rank hands control back to Run.
func (s *simulation) pick() *Rank {
	for {
		if s.abortFlag || s.panicErr != nil || s.endErr != nil {
			return nil // surfaced by run
		}
		if s.steps&cancelCheckMask == 0 && s.cancelled() {
			return nil
		}
		s.steps++
		if s.steps > s.cfg.MaxEvents {
			s.endErr = errStepBudget(s.cfg.MaxEvents)
			return nil
		}

		next := s.ready.peek()
		var eventTime vtime.Time = vtime.Forever
		if len(s.events) > 0 {
			eventTime = s.events[0].arrival
		}

		switch {
		case next == nil && eventTime == vtime.Forever:
			if !s.allDone() {
				s.endErr = s.deadlock()
			}
			return nil
		case next == nil || eventTime <= next.clock:
			s.deliver(s.events.pop())
		default:
			s.ready.pop()
			next.status = statusRunning
			return next
		}
	}
}

// handoff passes control to next, or back to Run when next is nil. The
// caller must not touch scheduler state afterwards until it is resumed.
func (s *simulation) handoff(next *Rank) {
	if next == nil {
		s.finished <- struct{}{}
		return
	}
	next.resume <- struct{}{}
}

func (s *simulation) allDone() bool {
	for _, r := range s.ranks {
		if r.status != statusDone {
			return false
		}
	}
	return true
}

func (s *simulation) deadlock() error {
	e := &DeadlockError{Blocked: make(map[int]string), Time: s.maxClock()}
	for _, r := range s.ranks {
		if r.status == statusBlocked && r.waiting != nil {
			e.Blocked[r.id] = r.waiting.describe()
		}
	}
	return e
}

func (s *simulation) maxClock() vtime.Time {
	var t vtime.Time
	for _, r := range s.ranks {
		if r.clock > t {
			t = r.clock
		}
	}
	return t
}

// consumed notifies the sender side that a matching receive took msg,
// completing a rendezvous-protocol send: a blocked Send (or a Wait on a
// rendezvous Isend request) resumes with its clock advanced to the
// consumption time.
func (s *simulation) consumed(msg *message, at vtime.Time) {
	if !msg.rendezvous {
		return
	}
	snd := s.ranks[msg.src]
	if req := msg.sendReq; req != nil {
		req.done = true
		if at > req.completeAt {
			req.completeAt = at
		}
		if snd.status == statusBlocked && snd.waiting != nil &&
			snd.waiting.kind == waitRequest && snd.waiting.req == req {
			if at > snd.clock {
				snd.clock = at
			}
			snd.waiting = nil
			s.makeReady(snd)
		}
		return
	}
	if snd.status == statusBlocked && snd.waiting != nil &&
		snd.waiting.kind == waitRendezvous && snd.waiting.msg == msg {
		if at > snd.clock {
			snd.clock = at
		}
		snd.waiting = nil
		s.makeReady(snd)
	}
}

// deliver routes an arrived message: posted non-blocking receives are
// consulted first (MPI matches posted receives in posting order), then a
// blocking Recv/Probe waiter, and otherwise the message queues in the
// destination's mailbox as an "unexpected" message.
func (s *simulation) deliver(msg *message) {
	d := s.ranks[msg.dst]
	s.stats.Messages++
	s.stats.Bytes += int64(msg.size)
	if msg.delayed {
		s.stats.Delayed++
	}

	// Posted Irecv requests (always user-level), in posting order.
	for i, req := range d.posted {
		if req.done || msg.internal || !filterMatches(req.src, req.tag, req.key, msg) {
			continue
		}
		req.done = true
		req.msg = msg
		d.posted = append(d.posted[:i], d.posted[i+1:]...)
		s.consumed(msg, msg.arrival)
		// If the rank is parked in Wait on exactly this request — or in
		// a Waitany that includes it — release it; the receive
		// completes at arrival + overhead.
		if d.status == statusBlocked && d.waiting != nil {
			w := d.waiting
			switch {
			case w.kind == waitRequest && w.req == req:
				// The rank resumes inside Wait, past its overhead
				// accounting: charge the receive overhead here.
				d.clock = msg.arrival.Add(s.cfg.Net.RecvOverhead)
				d.waiting = nil
				s.makeReady(d)
			case w.kind == waitAny && containsRequest(w.reqs, req):
				// The rank resumes inside Waitany and then calls Wait,
				// which charges the overhead itself: advance only to
				// the arrival.
				w.req = req // report which request completed
				if msg.arrival > d.clock {
					d.clock = msg.arrival
				}
				d.waiting = nil
				s.makeReady(d)
			}
		}
		return
	}

	// Blocking waiter.
	if d.status == statusBlocked && d.waiting != nil {
		w := d.waiting
		switch w.kind {
		case waitRecv:
			if w.matches(msg) {
				w.msg = msg
				d.clock = msg.arrival.Add(s.cfg.Net.RecvOverhead)
				d.waiting = nil
				s.makeReady(d)
				s.consumed(msg, d.clock)
				return
			}
		case waitProbe:
			if w.matches(msg) {
				// Probe observes but does not consume.
				d.mailbox = append(d.mailbox, msg)
				w.msg = msg
				if msg.arrival > d.clock {
					d.clock = msg.arrival
				}
				d.waiting = nil
				s.makeReady(d)
				return
			}
		}
	}

	d.mailbox = append(d.mailbox, msg)
}

// schedule computes a message's arrival time under the network model and
// pushes it onto the event heap.
func (s *simulation) schedule(msg *message, sendClock vtime.Time) {
	net := &s.cfg.Net
	var alpha vtime.Duration
	var jitterMean vtime.Duration
	delayProb := s.cfg.NDPercent / 100
	if s.ranks[msg.src].node == s.ranks[msg.dst].node {
		alpha, jitterMean = net.IntraNodeLatency, net.JitterMeanIntra
	} else {
		alpha, jitterMean = net.InterNodeLatency, net.JitterMeanInter
		delayProb *= net.InterNodeNDBoost
	}
	transfer := vtime.Duration(float64(msg.size) / net.BandwidthBytesPerNs)
	arrival := sendClock.Add(net.SendOverhead).Add(alpha).Add(transfer)
	// The paper's "percentage of non-determinism": each message is
	// independently selected for a congestion delay; crossing a node
	// boundary raises the selection probability (InterNodeNDBoost).
	if s.netRNG.Bernoulli(delayProb) {
		arrival = arrival.Add(s.netRNG.ExpDuration(jitterMean))
		msg.delayed = true
	}
	// MPI non-overtaking: arrivals on one (src,dst) channel are strictly
	// increasing, so jitter can reorder messages from different senders
	// but never two messages on the same channel.
	ch := s.chans.at(msg.src, msg.dst)
	if ch.hasArrival && arrival <= ch.lastArrival {
		arrival = ch.lastArrival.Add(1)
	}
	ch.lastArrival = arrival
	ch.hasArrival = true
	msg.arrival = arrival
	s.deliverSeq++
	msg.deliverSeq = s.deliverSeq
	s.events.push(msg)
	if msg.arrival.Add(0) > s.stats.FinalTime {
		// FinalTime is finalized from rank clocks at the end; tracking
		// arrivals here keeps it monotone for aborted runs too.
		s.stats.FinalTime = msg.arrival
	}
}

// shutdown unwinds any rank goroutine that has not finished, so no
// goroutines leak when a run ends early (deadlock, panic, budget).
func (s *simulation) shutdown() {
	s.abortFlag = true
	for _, r := range s.ranks {
		for r.status != statusDone {
			r.status = statusRunning
			r.resume <- struct{}{}
			<-s.finished
		}
	}
	// Record the true final time from rank clocks.
	for _, r := range s.ranks {
		if r.clock > s.stats.FinalTime {
			s.stats.FinalTime = r.clock
		}
	}
}
