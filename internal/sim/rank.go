package sim

import (
	"fmt"

	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// Rank is the handle a Program uses to issue MPI-like operations. A Rank
// is owned by its goroutine; its methods must not be called from other
// goroutines.
type Rank struct {
	sim     *simulation
	id      int
	node    int
	clock   vtime.Time
	lamport int64
	status  rankStatus
	heapIdx int // position in the scheduler's ready heap, -1 when not queued
	resume  chan struct{}
	rng     *vtime.RNG

	mailbox    []*message // arrived, unmatched ("unexpected") messages
	posted     []*Request // outstanding Irecv requests, in post order
	waiting    *waiter    // non-nil while blocked
	scratch    waiter     // reused by every block; a rank waits on one thing at a time
	replayNext int        // cursor into the replay schedule
	collSeq    int        // collective instance counter
}

// Message is a received payload as seen by user code.
type Message struct {
	// Src is the sending rank.
	Src int
	// Tag is the message tag.
	Tag int
	// Size is the payload size in bytes (may exceed len(Data) when the
	// sender used SendSize).
	Size int
	// Data is the payload, nil for size-only messages.
	Data []byte
}

// Request is a handle for a non-blocking operation, completed by Wait.
type Request struct {
	owner      *Rank
	isRecv     bool
	src        int // filter for Irecv
	tag        int
	key        *MatchKey // replay pin, when replaying
	done       bool
	waited     bool
	msg        *message    // matched message for Irecv requests
	completeAt vtime.Time  // completion time for rendezvous Isend requests
	stack      trace.Stack // interned callstack at the post, reused for the Wait event
}

// Rank returns this rank's id in [0, Size).
func (r *Rank) Rank() int { return r.id }

// Size returns the number of ranks in the execution.
func (r *Rank) Size() int { return len(r.sim.ranks) }

// Node returns the compute node hosting this rank.
func (r *Rank) Node() int { return r.node }

// Now returns the rank's current virtual time.
func (r *Rank) Now() vtime.Time { return r.clock }

// Lamport returns the rank's current logical clock.
func (r *Rank) Lamport() int64 { return r.lamport }

// RNG returns this rank's private random stream. It is derived from the
// run's Seed, so values differ between runs with different seeds; do not
// use it for quantities that must be identical across runs (for example
// a mini-application's communication topology) — derive those from a
// fixed seed instead.
func (r *Rank) RNG() *vtime.RNG { return r.rng }

// Compute advances the rank's local clock by d, modelling computation
// between communication calls. Negative durations are ignored.
func (r *Rank) Compute(d vtime.Duration) {
	if d > 0 {
		r.clock = r.clock.Add(d)
	}
	r.yield()
}

// yield ends the rank's current scheduling step and blocks until it is
// resumed. Status must already be set (ready or blocked) by the caller;
// yield normalizes running → ready.
//
// Fast path: when the rank is still runnable and would be the
// scheduler's next pick anyway — its clock strictly precedes the
// earliest in-flight arrival and every other ready rank (with the
// scheduler's exact tie-breaks) — the rank simply keeps running without
// touching the event core. The decision predicate is precisely pick's.
//
// Slow path: the rank runs pick itself. If pick chooses this rank again
// it returns without a channel operation; otherwise it resumes the
// chosen rank directly (or hands control back to Run when the run is
// over) and parks until some goroutine resumes it.
func (r *Rank) yield() {
	if r.status == statusRunning && r.wouldRunNext() {
		return
	}
	s := r.sim
	if r.status == statusRunning {
		s.makeReady(r)
	}
	next := s.pick()
	if next == r {
		return
	}
	s.handoff(next)
	<-r.resume
	if s.abortFlag {
		panic(abortSentinel{})
	}
}

// wouldRunNext reports whether pick's next action would be to resume
// this rank: no in-flight message arrives at or before its clock (pick
// delivers events when eventTime <= clock), and no other ready rank
// precedes it under the ready heap's (clock, id) order.
func (r *Rank) wouldRunNext() bool {
	s := r.sim
	if s.abortFlag || s.panicErr != nil || s.endErr != nil {
		return false
	}
	s.steps++
	if s.steps > s.cfg.MaxEvents {
		s.endErr = errStepBudget(s.cfg.MaxEvents)
		return false
	}
	// A compute-bound rank can live on this fast path for long stretches
	// without running pick, so the cancellation poll must happen here
	// too or cancellation latency would be unbounded.
	if s.steps&cancelCheckMask == 0 && s.cancelled() {
		return false
	}
	if len(s.events) > 0 && s.events[0].arrival <= r.clock {
		return false
	}
	// The running rank is not in the ready heap, so its top is the best
	// competitor under the scheduler's (clock, id) order.
	if top := s.ready.peek(); top != nil && rankBefore(top, r) {
		return false
	}
	return true
}

// block parks the rank until the scheduler matches the given wait state,
// which it installs in the rank's reusable scratch waiter (safe because a
// rank waits on at most one thing at a time, and the previous wait's
// results are fully consumed before the next block). It returns the
// waiter so callers can read the fields the scheduler filled in.
func (r *Rank) block(w waiter) *waiter {
	r.scratch = w
	r.waiting = &r.scratch
	r.status = statusBlocked
	r.yield()
	return &r.scratch
}

// record appends a trace event for this rank at its current clock.
func (r *Rank) record(kind trace.EventKind, peer, tag, size int, msgID int64, chanSeq int, stack trace.Stack) {
	ev := trace.Event{
		Rank:    r.id,
		Kind:    kind,
		Peer:    peer,
		Tag:     tag,
		Size:    size,
		MsgID:   msgID,
		ChanSeq: chanSeq,
		Time:    r.clock,
		Lamport: r.lamport,
	}
	ev.SetStack(stack)
	if r.sim.sink != nil {
		r.sim.sink.Append(ev)
		r.sim.sinkEvents++
		return
	}
	r.sim.tr.Append(ev)
}

// capture returns the caller-of-caller's interned callstack when stack
// capture is enabled.
func (r *Rank) capture() trace.Stack {
	if !r.sim.cfg.CaptureStacks {
		return trace.Stack{}
	}
	return trace.CaptureStackInterned(2)
}

func (r *Rank) checkPeer(dst int) {
	if dst < 0 || dst >= len(r.sim.ranks) {
		panic(fmt.Sprintf("sim: rank %d used peer %d, valid range [0,%d)", r.id, dst, len(r.sim.ranks)))
	}
	if dst == r.id {
		panic(fmt.Sprintf("sim: rank %d sent to itself; self-messages are not modelled", r.id))
	}
}

// post creates and schedules a message from this rank.
func (r *Rank) post(dst, tag, size int, data []byte, internal bool) *message {
	s := r.sim
	s.msgID++
	ch := s.chans.at(r.id, dst)
	seq := ch.seq
	ch.seq = seq + 1
	var payload []byte
	if data != nil {
		payload = append([]byte(nil), data...) // sender may reuse its buffer
	}
	msg := s.newMessage()
	*msg = message{
		id:          s.msgID - 1,
		src:         r.id,
		dst:         dst,
		tag:         tag,
		size:        size,
		data:        payload,
		chanSeq:     seq,
		sendLamport: r.lamport,
		internal:    internal,
	}
	// Collective plumbing is always eager: the algorithms interleave
	// their sends and receives assuming sends cannot block.
	if !internal && s.cfg.Net.RendezvousThreshold > 0 && size >= s.cfg.Net.RendezvousThreshold {
		msg.rendezvous = true
	}
	s.schedule(msg, r.clock)
	return msg
}

// Send transmits data to rank dst with the given tag. Small sends are
// eager (complete locally after the send overhead); sends at or above
// NetModel.RendezvousThreshold block until a matching receive consumes
// the message, as in real MPI. The payload is copied.
func (r *Rank) Send(dst, tag int, data []byte) {
	r.sendCommon(dst, tag, len(data), data, trace.KindSend, r.capture(), nil)
}

// SendSize transmits a size-only message: the receiver observes Size but
// Data is nil. This mirrors the paper's benchmark configuration of
// 1-byte messages without paying for payload allocation.
func (r *Rank) SendSize(dst, tag, size int) {
	if size < 0 {
		panic(fmt.Sprintf("sim: negative message size %d", size))
	}
	r.sendCommon(dst, tag, size, nil, trace.KindSend, r.capture(), nil)
}

// checkTag rejects negative user tags; the negative tag space is
// reserved for collective plumbing (and AnyTag on the receive side).
func (r *Rank) checkTag(tag int, recvSide bool) {
	if tag >= 0 || (recvSide && tag == AnyTag) {
		return
	}
	panic(fmt.Sprintf("sim: rank %d used reserved negative tag %d", r.id, tag))
}

// sendCommon posts one user message and reports whether it used the
// rendezvous protocol. For rendezvous messages, req (when non-nil, i.e.
// Isend) is wired to the message BEFORE any yield so a consumption
// during the yield is never lost; a nil req (blocking Send) parks the
// rank until consumption. The message's identity is captured into
// locals up front: once this rank yields (or blocks), the receiver may
// consume the message and release its struct back to the pool.
func (r *Rank) sendCommon(dst, tag, size int, data []byte, kind trace.EventKind, stack trace.Stack, req *Request) (rendezvous bool) {
	r.checkPeer(dst)
	r.checkTag(tag, false)
	r.lamport++
	msg := r.post(dst, tag, size, data, false)
	rendezvous = msg.rendezvous
	if rendezvous && req != nil {
		msg.sendReq = req
	}
	msgID, chanSeq := msg.id, msg.chanSeq
	r.clock = r.clock.Add(r.sim.cfg.Net.SendOverhead)
	if rendezvous && req == nil {
		r.block(waiter{kind: waitRendezvous, msg: msg})
	}
	r.record(kind, dst, tag, size, msgID, chanSeq, stack)
	r.yield()
	return rendezvous
}

// Isend is the non-blocking send. Under the eager protocol the request
// is complete immediately; under the rendezvous protocol (payload at or
// above NetModel.RendezvousThreshold) it completes when a matching
// receive consumes the message, so Wait may block.
func (r *Rank) Isend(dst, tag int, data []byte) *Request {
	stack := r.capture()
	req := &Request{owner: r, stack: stack}
	if !r.sendCommon(dst, tag, len(data), data, trace.KindIsend, stack, req) {
		req.done = true
	}
	return req
}

// Sendrecv performs a send and a receive "concurrently": the send is
// issued non-blocking, then the receive completes, then the send is
// waited for. Head-to-head Sendrecv pairs therefore cannot deadlock
// even above the rendezvous threshold. It records isend, recv, and
// wait events, like an MPI tracer watching the underlying calls.
func (r *Rank) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) Message {
	req := r.Isend(dst, sendTag, data)
	m := r.Recv(src, recvTag)
	r.Wait(req)
	return m
}

// replayKey consumes the next recorded match for this rank when a replay
// schedule is installed, or returns nil.
func (r *Rank) replayKey() *MatchKey {
	sched := r.sim.cfg.Replay
	if sched == nil {
		return nil
	}
	if r.replayNext >= len(sched.PerRank[r.id]) {
		panic(fmt.Sprintf("sim: rank %d issued more receives than the replay schedule recorded (%d)",
			r.id, len(sched.PerRank[r.id])))
	}
	key := sched.PerRank[r.id][r.replayNext]
	r.replayNext++
	return &key
}

// Recv blocks until a message matching (src, tag) is available and
// returns it. src may be AnySource and tag may be AnyTag; it is the
// AnySource form whose match order is non-deterministic under message
// races. Under replay the match is pinned to the recorded message.
func (r *Rank) Recv(src, tag int) Message {
	r.checkTag(tag, true)
	stack := r.capture()
	msg := r.recvCommon(src, tag, r.replayKey(), false)
	r.lamport = maxInt64(r.lamport, msg.sendLamport) + 1
	r.record(trace.KindRecv, msg.src, msg.tag, msg.size, msg.id, msg.chanSeq, stack)
	m := Message{Src: msg.src, Tag: msg.tag, Size: msg.size, Data: msg.data}
	r.sim.release(msg)
	r.yield()
	return m
}

// mailboxShiftMax bounds the suffix length up to which removeMailbox
// compacts in place. In-place compaction keeps the slice anchored at
// its backing array, so small mailboxes (the 32-rank steady state)
// never lose front capacity to head advancement and never reallocate.
const mailboxShiftMax = 32

// removeMailbox deletes the message at index i, preserving arrival
// order. Short suffixes compact in place; past mailboxShiftMax the
// shorter side of the hole shifts instead — for a front-of-queue match,
// the steady state of a fan-in rank draining a long mailbox, the prefix
// shift is empty and removal is O(1) instead of memmoving the whole
// tail, which made large-P message-race receives O(P) each.
func (r *Rank) removeMailbox(i int) {
	if tail := len(r.mailbox) - 1 - i; tail > mailboxShiftMax && i < tail {
		copy(r.mailbox[1:i+1], r.mailbox[:i])
		r.mailbox[0] = nil // release the vacated slot's pointer
		r.mailbox = r.mailbox[1:]
		return
	}
	r.mailbox = append(r.mailbox[:i], r.mailbox[i+1:]...)
}

// recvCommon matches a message from the mailbox or blocks for one.
func (r *Rank) recvCommon(src, tag int, key *MatchKey, internal bool) *message {
	if src != AnySource {
		if src < 0 || src >= len(r.sim.ranks) {
			panic(fmt.Sprintf("sim: rank %d received from invalid src %d", r.id, src))
		}
	}
	// Earliest-arrived matching message wins: mailbox order is arrival
	// order, which is exactly the non-deterministic quantity ANACIN-X
	// perturbs.
	for i, msg := range r.mailbox {
		if !matchAllowed(msg, internal) {
			continue
		}
		if filterMatches(src, tag, key, msg) {
			r.removeMailbox(i)
			r.clock = r.clock.Add(r.sim.cfg.Net.RecvOverhead)
			r.sim.consumed(msg, r.clock)
			return msg
		}
	}
	w := r.block(waiter{kind: waitRecv, src: src, tag: tag, key: key, internal: internal})
	return w.msg
}

// matchAllowed prevents user receives from consuming internal collective
// messages and vice versa.
func matchAllowed(msg *message, internal bool) bool { return msg.internal == internal }

// Irecv posts a non-blocking receive for (src, tag) and returns its
// request. The matching decision is made at posting time order, as in
// MPI; complete it with Wait.
func (r *Rank) Irecv(src, tag int) *Request {
	r.checkTag(tag, true)
	stack := r.capture()
	req := &Request{owner: r, isRecv: true, src: src, tag: tag, key: r.replayKey(), stack: stack}
	// An already-arrived message can satisfy the request immediately.
	for i, msg := range r.mailbox {
		if matchAllowed(msg, false) && filterMatches(src, tag, req.key, msg) {
			r.removeMailbox(i)
			req.done = true
			req.msg = msg
			at := r.clock
			if msg.arrival > at {
				at = msg.arrival
			}
			r.sim.consumed(msg, at)
			break
		}
	}
	if !req.done {
		r.posted = append(r.posted, req)
	}
	r.lamport++
	r.record(trace.KindIrecv, src, tag, 0, trace.NoMsg, 0, stack)
	r.yield()
	return req
}

// Wait blocks until req completes and returns the received message for
// Irecv requests (the zero Message for Isend requests). Waiting twice on
// the same request panics, as in MPI.
func (r *Rank) Wait(req *Request) Message {
	if req == nil || req.owner != r {
		panic("sim: Wait on nil or foreign request")
	}
	if req.waited {
		panic("sim: Wait called twice on one request")
	}
	req.waited = true
	switch {
	case !req.done:
		r.block(waiter{kind: waitRequest, src: req.src, tag: req.tag, req: req})
	case req.isRecv && req.msg != nil:
		// Completed before Wait: pay the receive overhead now if the
		// message arrived in the past, or wait until it arrives.
		if req.msg.arrival > r.clock {
			r.clock = req.msg.arrival
		}
		r.clock = r.clock.Add(r.sim.cfg.Net.RecvOverhead)
	case !req.isRecv && req.completeAt > r.clock:
		// Rendezvous Isend consumed in the past at a later virtual
		// time than this rank has reached.
		r.clock = req.completeAt
	}
	var m Message
	if req.isRecv {
		msg := req.msg
		r.lamport = maxInt64(r.lamport, msg.sendLamport) + 1
		r.record(trace.KindWait, msg.src, msg.tag, msg.size, msg.id, msg.chanSeq, req.stack)
		m = Message{Src: msg.src, Tag: msg.tag, Size: msg.size, Data: msg.data}
		req.msg = nil
		r.sim.release(msg)
	} else {
		r.lamport++
		r.record(trace.KindWait, trace.NoPeer, 0, 0, trace.NoMsg, 0, req.stack)
	}
	r.yield()
	return m
}

// Waitall completes the given requests in order.
func (r *Rank) Waitall(reqs []*Request) []Message {
	msgs := make([]Message, len(reqs))
	for i, req := range reqs {
		msgs[i] = r.Wait(req)
	}
	return msgs
}

// Waitany blocks until at least one not-yet-waited request completes
// and returns that request's index and message. Like MPI_Waitany, the
// index depends on completion order, which makes Waitany itself a root
// source of non-determinism even when every Irecv names a concrete
// source. Among requests already complete when Waitany is called, the
// one with the earliest completion wins (message arrival for receives,
// consumption time for rendezvous sends; ties: lowest index), mirroring
// the matching rule. It panics if every request was already waited.
func (r *Rank) Waitany(reqs []*Request) (int, Message) {
	if len(reqs) == 0 {
		panic("sim: Waitany with no requests")
	}
	// Collect the eligible (not yet waited) requests, preferring a
	// completed one with the earliest completion.
	best := -1
	var bestArrival vtime.Time
	eligible := 0
	for i, req := range reqs {
		if req == nil || req.owner != r {
			panic("sim: Waitany on nil or foreign request")
		}
		if req.waited {
			continue
		}
		eligible++
		if !req.done {
			continue
		}
		// An eager Isend completed "in the past" (completeAt zero); a
		// consumed rendezvous Isend completed at its consumption time, so
		// it competes with receive arrivals instead of always winning.
		at := req.completeAt
		if req.isRecv && req.msg != nil {
			at = req.msg.arrival
		}
		if best == -1 || at < bestArrival {
			best, bestArrival = i, at
		}
	}
	if eligible == 0 {
		panic("sim: Waitany called with every request already waited")
	}
	if best >= 0 {
		return best, r.Wait(reqs[best])
	}
	// None complete: park on the whole set; the scheduler reports the
	// request it completed via the waiter.
	pending := make([]*Request, 0, eligible)
	for _, req := range reqs {
		if !req.waited {
			pending = append(pending, req)
		}
	}
	w := r.block(waiter{kind: waitAny, reqs: pending})
	for i, req := range reqs {
		if req == w.req {
			return i, r.Wait(req)
		}
	}
	panic("sim: Waitany completed an unknown request")
}

// Probe blocks until a message matching (src, tag) is available, without
// consuming it, and reports its envelope.
func (r *Rank) Probe(src, tag int) (msgSrc, msgTag, size int) {
	for _, msg := range r.mailbox {
		if matchAllowed(msg, false) && filterMatches(src, tag, nil, msg) {
			return msg.src, msg.tag, msg.size
		}
	}
	w := r.block(waiter{kind: waitProbe, src: src, tag: tag})
	return w.msg.src, w.msg.tag, w.msg.size
}

// iprobePollCost is the virtual time one unsuccessful Iprobe consumes.
// Charging a small cost makes polling loops advance virtual time, so a
// spin on Iprobe eventually reaches the arrival time of in-flight
// messages instead of live-locking the simulation at a fixed instant.
const iprobePollCost = 50 * vtime.Nanosecond

// Iprobe reports whether a message matching (src, tag) has arrived,
// without consuming it. An unsuccessful probe costs iprobePollCost of
// virtual time.
func (r *Rank) Iprobe(src, tag int) (ok bool, msgSrc, msgTag, size int) {
	for _, msg := range r.mailbox {
		if matchAllowed(msg, false) && filterMatches(src, tag, nil, msg) {
			return true, msg.src, msg.tag, msg.size
		}
	}
	r.clock = r.clock.Add(iprobePollCost)
	r.yield()
	return false, 0, 0, 0
}

// sendInternal and recvInternal are the untraced plumbing used by the
// collective algorithms in collectives.go. They move virtual time and
// Lamport clocks like their public counterparts but record no events,
// so a collective appears in the trace as the single logical operation
// the application called — matching how an MPI tracer sees it.
func (r *Rank) sendInternal(dst, tag int, data []byte) {
	r.checkPeer(dst)
	r.lamport++
	r.post(dst, tag, len(data), data, true)
	r.clock = r.clock.Add(r.sim.cfg.Net.SendOverhead)
	r.yield()
}

// recvInternal returns only the payload: the message struct is recycled
// before control leaves the simulator core.
func (r *Rank) recvInternal(src, tag int) []byte {
	msg := r.recvCommon(src, tag, nil, true)
	r.lamport = maxInt64(r.lamport, msg.sendLamport) + 1
	data := msg.data
	r.sim.release(msg)
	r.yield()
	return data
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
