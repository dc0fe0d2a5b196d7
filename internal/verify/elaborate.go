package verify

import (
	"fmt"
	"runtime"
	"strings"

	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// The elaborator runs a pattern's rank programs against a recording
// implementation of sim.FullProc — never the scheduler. All P programs
// execute as coroutines under a single baton: exactly one runs at a
// time, and the engine always resumes the lowest-id runnable rank
// (highest-id under the alternate policy), so elaboration is a pure
// function of the program. Message matching follows the simulator's
// rules — per-channel non-overtaking, Irecv post-order matching,
// wildcard receives — with the policy deciding which candidate a
// wildcard admits when several are pending. Running the same program
// under both policies and comparing op skeletons detects
// matching-dependent control flow (see analyze.go).

// Policy selects the canonical schedule and wildcard-matching order of
// one elaboration.
type Policy int

const (
	// PolicyLow resumes the lowest-id runnable rank and matches
	// wildcards to the lowest (src, chanSeq) candidate.
	PolicyLow Policy = iota
	// PolicyHigh is the adversarial mirror: highest-id rank, highest
	// source candidate. Within one channel FIFO order still holds.
	PolicyHigh
)

// DefaultMaxOps bounds the total ops of one elaboration; exceeding it
// aborts with Result.BudgetExceeded (the livelock guard for Iprobe
// spins and runaway programs).
const DefaultMaxOps = 1 << 20

// iprobeStallLimit aborts a rank that polls Iprobe this many times
// without any global progress in between.
const iprobeStallLimit = 10_000

type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

type blockKind uint8

const (
	blockNone blockKind = iota
	blockRecv
	blockProbe
	blockReq
	blockAny
	blockRendezvous
	blockColl
)

// emsg is a user message in flight or pending in a mailbox.
type emsg struct {
	rec     *MsgRec
	data    []byte
	rendez  bool
	sender  *eproc    // woken on consumption of a rendezvous message
	sendReq *reqState // the Isend request the message completes, if any
}

// reqState backs one opaque *sim.Request token handed to the program.
type reqState struct {
	isRecv   bool
	src, tag int // Irecv filter
	done     bool
	waited   bool
	msg      *emsg // matched message for Irecv
	slot     int   // index into the owner's slot list (Irecv only)
	sendMsg  *emsg // posted message for rendezvous Isend
}

// collRound is one engine-wide collective instance: the k-th collective
// call of every rank joins round k.
type collRound struct {
	name    string
	root    int
	arrived []bool
	count   int
	data    [][]byte
	parts   [][][]byte
	op      sim.ReduceOp
	done    bool
	out     [][]byte
	outDeck [][][]byte // per-rank [][]byte results (gather/allgather/alltoall)
}

// abortUnwind is the sentinel panic used to unwind rank goroutines when
// the engine aborts elaboration.
type abortUnwind struct{}

type engine struct {
	n      int
	policy Policy
	rvt    int // rendezvous threshold; 0 disables, as in sim.NetModel
	maxOps int

	procs  []*eproc
	yield  chan struct{}
	rounds []*collRound
	msgs   []*MsgRec
	ops    int
	// progress counts state-changing operations; Iprobe stall detection
	// compares it across polls.
	progress int

	abort          bool
	budgetExceeded bool
	collMismatch   string
	stalled        bool
	// stallWaits/stallDescs snapshot the blocked ranks' wait-for edges
	// and op descriptions at the moment of a stall, before unwinding
	// tears the state down.
	stallWaits [][]int
	stallDescs []string

	// callerCache memoizes pattern-caller resolution per raw PC stack.
	callerCache map[[8]uintptr]string
}

type eproc struct {
	e  *engine
	id int

	resume    chan struct{}
	state     procState
	abortFlag bool

	// Block metadata, valid while state == stateBlocked.
	bkind     blockKind
	bsrc, btg int
	breqs     []*reqState
	bmsg      *emsg // rendezvous send awaiting consumption
	bround    *collRound
	// bop is the blocking op's index and bawait the ranks a collective
	// still awaited at block time; captureStall formats them into the
	// description only when the elaboration stalls.
	bop, bawait int

	// Wake payload set by the proc that unblocked this one.
	wakeMsg *emsg
	wakeReq *reqState

	mailbox []*emsg
	posted  []*reqState
	reqs    map[*sim.Request]*reqState
	allReqs []*reqState
	chanSeq []int
	collSeq int

	ops         []Op
	slots       []Slot
	traced      int
	panicMsg    string
	finished    bool
	softYielded bool
	iprobeStall int
	iprobeMark  int
}

// elaborate runs prog on n ranks under the given policy and returns the
// static model.
func elaborate(prog sim.ProcProgram, n int, policy Policy, rendezvousThreshold, maxOps int) *Result {
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	e := &engine{
		n:           n,
		policy:      policy,
		rvt:         rendezvousThreshold,
		maxOps:      maxOps,
		yield:       make(chan struct{}),
		callerCache: make(map[[8]uintptr]string),
	}
	e.procs = make([]*eproc, n)
	for i := 0; i < n; i++ {
		e.procs[i] = &eproc{
			e:       e,
			id:      i,
			resume:  make(chan struct{}),
			state:   stateReady,
			reqs:    make(map[*sim.Request]*reqState),
			chanSeq: make([]int, n),
		}
	}
	for _, p := range e.procs {
		go p.run(prog)
	}
	e.loop()
	return e.result()
}

// run is one rank's goroutine body: wait for the baton, execute the
// program, and always hand the baton back — even on panic.
func (p *eproc) run(prog sim.ProcProgram) {
	defer func() {
		if r := recover(); r != nil {
			if _, unwind := r.(abortUnwind); !unwind {
				p.panicMsg = fmt.Sprint(r)
			}
		}
		p.state = stateDone
		p.e.yield <- struct{}{}
	}()
	<-p.resume
	if p.abortFlag {
		panic(abortUnwind{})
	}
	p.state = stateRunning
	prog(p)
	p.finished = true
}

// loop drives the baton until every rank is done or no rank can run.
func (e *engine) loop() {
	for {
		next := e.pickRunnable()
		if next == nil {
			if e.allDone() {
				return
			}
			// No runnable rank with ranks outstanding: either the
			// elaboration stalled (deadlock / unmatched receive) or an
			// abort is already in progress.
			if !e.abort {
				e.stalled = true
				e.captureStall()
				e.abort = true
			}
			if e.unwindOne() {
				continue
			}
			return
		}
		next.state = stateRunning
		next.resume <- struct{}{}
		<-e.yield
	}
}

// pickRunnable returns the ready rank the policy prefers, or nil. Ranks
// that soft-yielded (failed Iprobe polls) are deprioritized so other
// ready ranks get the baton first; one is returned only when nothing
// else can run.
func (e *engine) pickRunnable() *eproc {
	if e.abort {
		return nil
	}
	var fallback *eproc
	for i := 0; i < e.n; i++ {
		idx := i
		if e.policy == PolicyHigh {
			idx = e.n - 1 - i
		}
		p := e.procs[idx]
		if p.state != stateReady {
			continue
		}
		if p.softYielded {
			if fallback == nil {
				fallback = p
			}
			continue
		}
		return p
	}
	if fallback != nil {
		fallback.softYielded = false
		return fallback
	}
	return nil
}

// captureStall snapshots every blocked rank's wait-for edges and op
// description before the unwind destroys them.
func (e *engine) captureStall() {
	e.stallWaits = make([][]int, e.n)
	e.stallDescs = make([]string, e.n)
	for i, p := range e.procs {
		if p.state == stateBlocked {
			e.stallWaits[i] = p.waitTargets()
			e.stallDescs[i] = p.blockDesc()
		}
	}
}

// unwindOne resumes one parked goroutine so it can observe the abort
// flag and exit; reports whether one was found.
func (e *engine) unwindOne() bool {
	for _, p := range e.procs {
		if p.state == stateReady || p.state == stateBlocked {
			p.abortFlag = true
			p.state = stateRunning
			p.resume <- struct{}{}
			<-e.yield
			return true
		}
	}
	return false
}

func (e *engine) allDone() bool {
	for _, p := range e.procs {
		if p.state != stateDone {
			return false
		}
	}
	return true
}

// result assembles the Result from the engine's final state.
func (e *engine) result() *Result {
	res := &Result{
		Procs:          e.n,
		Ranks:          make([]RankResult, e.n),
		Msgs:           e.msgs,
		Slots:          make([][]Slot, e.n),
		Stalled:        e.stalled,
		CollMismatch:   e.collMismatch,
		BudgetExceeded: e.budgetExceeded,
		OpCount:        e.ops,
		WaitsOn:        e.stallWaits,
	}
	for i, p := range e.procs {
		rr := RankResult{
			Ops:      p.ops,
			Traced:   p.traced + 2, // Init/Finalize bracket
			Done:     p.finished && p.panicMsg == "",
			PanicMsg: p.panicMsg,
		}
		if e.stallDescs != nil {
			rr.BlockDesc = e.stallDescs[i]
		}
		if rr.Done {
			for _, req := range p.posted {
				if !req.done {
					rr.PendingRecvs = append(rr.PendingRecvs,
						p.ops[p.slots[req.slot].Op].describe(p.id))
				}
			}
			for _, req := range p.allReqs {
				if !req.waited {
					rr.UnwaitedReqs = append(rr.UnwaitedReqs, describeReq(req))
				}
			}
		}
		res.Ranks[i] = rr
		res.Slots[i] = p.slots
	}
	return res
}

// waitTargets lists the ranks whose progress this blocked rank needs.
func (p *eproc) waitTargets() []int {
	anyNotDone := func() []int {
		var out []int
		for _, q := range p.e.procs {
			if q != p && q.state != stateDone {
				out = append(out, q.id)
			}
		}
		return out
	}
	switch p.bkind {
	case blockRecv, blockProbe:
		if p.bsrc == sim.AnySource {
			return anyNotDone()
		}
		return []int{p.bsrc}
	case blockReq:
		req := p.breqs[0]
		if req.isRecv {
			if req.src == sim.AnySource {
				return anyNotDone()
			}
			return []int{req.src}
		}
		return []int{req.sendMsg.rec.Dst}
	case blockAny:
		var out []int
		seen := make([]bool, p.e.n)
		add := func(r int) {
			if r >= 0 && r < p.e.n && !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
		for _, req := range p.breqs {
			if req.isRecv {
				if req.src == sim.AnySource {
					return anyNotDone()
				}
				add(req.src)
			} else {
				add(req.sendMsg.rec.Dst)
			}
		}
		return out
	case blockRendezvous:
		return []int{p.bmsg.rec.Dst}
	case blockColl:
		var out []int
		for i, arrived := range p.bround.arrived {
			if !arrived {
				out = append(out, i)
			}
		}
		return out
	}
	return nil
}

// blockDesc describes the op this blocked rank is parked in.
func (p *eproc) blockDesc() string {
	o := p.ops[p.bop]
	switch p.bkind {
	case blockReq:
		return fmt.Sprintf("rank %d op %d: Wait(%s) in %s", p.id, o.Seq, describeReq(p.breqs[0]), o.Caller)
	case blockAny:
		return fmt.Sprintf("rank %d: Waitany over %d requests", p.id, len(p.breqs))
	case blockColl:
		return fmt.Sprintf("rank %d: collective %s #%d awaiting %d rank(s)", p.id, o.Coll, p.collSeq-1, p.bawait)
	}
	return o.describe(p.id)
}

// --- the baton ---

// block parks the rank, blocked in op, until another proc (or the
// engine) wakes it.
func (p *eproc) block(kind blockKind, op int) {
	p.bkind = kind
	p.bop = op
	p.state = stateBlocked
	p.e.yield <- struct{}{}
	<-p.resume
	if p.abortFlag {
		panic(abortUnwind{})
	}
	p.state = stateRunning
	p.bkind = blockNone
	p.breqs = nil
	p.bmsg = nil
	p.bround = nil
}

// softYield hands the baton back while staying runnable (Iprobe polls).
func (p *eproc) softYield() {
	p.state = stateReady
	p.softYielded = true
	p.e.yield <- struct{}{}
	<-p.resume
	if p.abortFlag {
		panic(abortUnwind{})
	}
	p.state = stateRunning
}

// charge counts one op against the elaboration budget.
func (p *eproc) charge() {
	p.e.ops++
	if p.e.ops > p.e.maxOps {
		p.e.budgetExceeded = true
		p.e.abort = true
		panic(abortUnwind{})
	}
}

// op appends one model op for this rank and returns its index.
func (p *eproc) op(o Op) int {
	o.Seq = len(p.ops)
	o.Caller = p.patternCaller()
	o.MatchSrc, o.MatchSeq = -1, -1
	p.ops = append(p.ops, o)
	p.traced += o.Events
	return o.Seq
}

// patternCaller names the nearest caller outside this package — the
// pattern function that issued the op. Resolution is memoized on the
// raw PC stack: pattern loops issue ops from a handful of sites, so the
// symbolization cost is paid once per site, not once per op.
func (p *eproc) patternCaller() string {
	var pcs [8]uintptr
	n := runtime.Callers(3, pcs[:])
	var key [8]uintptr
	copy(key[:], pcs[:n])
	if name, ok := p.e.callerCache[key]; ok {
		return name
	}
	name := "?"
	frames := runtime.CallersFrames(pcs[:n])
	for {
		frame, more := frames.Next()
		if frame.Function != "" && !strings.Contains(frame.Function, "internal/verify") {
			name = shortFunc(frame.Function)
			break
		}
		if !more {
			break
		}
	}
	p.e.callerCache[key] = name
	return name
}

// shortFunc trims a fully qualified function name to its last two path
// segments ("patterns.(*MessageRace).drainRaces").
func shortFunc(fn string) string {
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	return fn
}

// --- sim.Proc surface ---

// Rank implements sim.Proc.
func (p *eproc) Rank() int { return p.id }

// Size implements sim.Proc.
func (p *eproc) Size() int { return p.e.n }

// Compute implements sim.Proc. It shapes the skeleton but records no
// trace event and never blocks.
func (p *eproc) Compute(d vtime.Duration) {
	p.charge()
	p.op(Op{Kind: OpCompute})
}

// Send implements sim.Proc.
func (p *eproc) Send(dst, tag int, data []byte) {
	p.sendCommon(dst, tag, len(data), data, OpSend, nil)
}

// SendSize implements sim.Proc.
func (p *eproc) SendSize(dst, tag, size int) {
	if size < 0 {
		panic(fmt.Sprintf("verify: negative message size %d", size))
	}
	p.sendCommon(dst, tag, size, nil, OpSend, nil)
}

// Recv implements sim.Proc.
func (p *eproc) Recv(src, tag int) sim.Message {
	p.charge()
	p.checkRecvArgs(src, tag)
	seq := p.op(Op{Kind: OpRecv, Peer: src, Tag: tag, Events: 1})
	slot := len(p.slots)
	p.slots = append(p.slots, Slot{
		Rank: p.id, Op: seq, SrcFilter: src, TagFilter: tag,
		Caller: p.ops[seq].Caller, MatchSrc: -1, MatchSeq: -1,
	})
	m := p.takeMatching(src, tag)
	if m == nil {
		p.bsrc, p.btg = src, tag
		p.block(blockRecv, seq)
		m = p.wakeMsg
		p.wakeMsg = nil
	}
	p.noteMatch(seq, slot, m)
	return sim.Message{Src: m.rec.Src, Tag: m.rec.Tag, Size: m.rec.Size, Data: m.data}
}

// checkRecvArgs mirrors the simulator's receive argument validation.
func (p *eproc) checkRecvArgs(src, tag int) {
	if src != sim.AnySource && (src < 0 || src >= p.e.n) {
		panic(fmt.Sprintf("verify: rank %d received from invalid src %d", p.id, src))
	}
	if tag < 0 && tag != sim.AnyTag {
		panic(fmt.Sprintf("verify: rank %d used reserved negative tag %d", p.id, tag))
	}
}

// noteMatch records the canonical match on both the op and its slot.
func (p *eproc) noteMatch(opSeq, slot int, m *emsg) {
	p.ops[opSeq].MatchSrc = m.rec.Src
	p.ops[opSeq].MatchSeq = m.rec.ChanSeq
	p.slots[slot].MatchSrc = m.rec.Src
	p.slots[slot].MatchSeq = m.rec.ChanSeq
}

// sendCommon posts one user message, blocking under the rendezvous
// protocol until it is consumed.
func (p *eproc) sendCommon(dst, tag, size int, data []byte, kind OpKind, req *reqState) int {
	p.charge()
	p.checkPeer(dst)
	if tag < 0 {
		panic(fmt.Sprintf("verify: rank %d used reserved negative tag %d", p.id, tag))
	}
	seq := p.op(Op{Kind: kind, Peer: dst, Tag: tag, Size: size, Events: 1})
	rec := &MsgRec{
		Src: p.id, Dst: dst, Tag: tag, Size: size,
		ChanSeq: p.chanSeq[dst], SrcOp: seq, Caller: p.ops[seq].Caller,
	}
	p.chanSeq[dst]++
	p.e.msgs = append(p.e.msgs, rec)
	m := &emsg{rec: rec, sender: p}
	if data != nil {
		m.data = append([]byte(nil), data...)
	}
	if p.e.rvt > 0 && size >= p.e.rvt {
		m.rendez = true
	}
	if req != nil {
		req.sendMsg = m
		m.sendReq = req
		if !m.rendez {
			req.done = true
		}
	}
	p.e.progress++
	p.deliver(m)
	if m.rendez && req == nil && !m.rec.Consumed {
		p.bmsg = m
		p.block(blockRendezvous, seq)
	}
	return seq
}

func (p *eproc) checkPeer(dst int) {
	if dst < 0 || dst >= p.e.n {
		panic(fmt.Sprintf("verify: rank %d used peer %d, valid range [0,%d)", p.id, dst, p.e.n))
	}
	if dst == p.id {
		panic(fmt.Sprintf("verify: rank %d sent to itself; self-messages are not modelled", p.id))
	}
}

// deliver routes a freshly posted message at its destination: earliest
// posted matching receive wins (posted Irecvs in post order, then a
// blocked Recv), mirroring the simulator; otherwise it queues in the
// mailbox.
func (p *eproc) deliver(m *emsg) {
	dst := p.e.procs[m.rec.Dst]
	for i, req := range dst.posted {
		if !req.done && filterMatch(req.src, req.tag, m.rec) {
			req.done = true
			req.msg = m
			m.rec.Consumed = true
			dst.slots[req.slot].MatchSrc = m.rec.Src
			dst.slots[req.slot].MatchSeq = m.rec.ChanSeq
			dst.posted = append(dst.posted[:i], dst.posted[i+1:]...)
			p.completeRendezvous(m)
			dst.wakeOnRequest(req)
			return
		}
	}
	if dst.state == stateBlocked {
		switch dst.bkind {
		case blockRecv:
			if filterMatch(dst.bsrc, dst.btg, m.rec) {
				m.rec.Consumed = true
				dst.wakeMsg = m
				dst.state = stateReady
				p.completeRendezvous(m)
				return
			}
		case blockProbe:
			if filterMatch(dst.bsrc, dst.btg, m.rec) {
				dst.wakeMsg = m
				dst.state = stateReady
			}
		case blockReq:
			req := dst.breqs[0]
			if req.isRecv && !req.done && filterMatch(req.src, req.tag, m.rec) {
				// A blocked Wait on an Irecv that was still in the posted
				// list is handled above; reaching here means the request
				// was consumed already, so nothing to do.
				break
			}
		}
	}
	dst.mailbox = append(dst.mailbox, m)
}

// completeRendezvous wakes a sender parked on (or a request tied to)
// the consumed rendezvous message.
func (p *eproc) completeRendezvous(m *emsg) {
	if !m.rendez {
		return
	}
	s := m.sender
	if s.state == stateBlocked && s.bkind == blockRendezvous && s.bmsg == m {
		s.state = stateReady
		return
	}
	// Isend: mark the request complete and wake a parked Wait/Waitany.
	if req := m.sendReq; req != nil && !req.done {
		req.done = true
		s.wakeOnRequest(req)
	}
}

// wakeOnRequest readies the rank if it is parked waiting on req.
func (p *eproc) wakeOnRequest(req *reqState) {
	if p.state != stateBlocked {
		return
	}
	switch p.bkind {
	case blockReq:
		if p.breqs[0] == req {
			p.wakeReq = req
			p.state = stateReady
		}
	case blockAny:
		for _, cand := range p.breqs {
			if cand == req {
				p.wakeReq = req
				p.state = stateReady
				return
			}
		}
	}
}

// filterMatch applies the simulator's receive filter to a message.
func filterMatch(src, tag int, m *MsgRec) bool {
	return (src == sim.AnySource || src == m.Src) &&
		(tag == sim.AnyTag || tag == m.Tag)
}

// takeMatching consumes the policy-preferred pending message matching
// (src, tag), or returns nil. Within one channel the earliest matching
// message must win (non-overtaking); across channels the policy picks
// the lowest or highest source.
func (p *eproc) takeMatching(src, tag int) *emsg {
	idx := p.findMatching(src, tag)
	if idx < 0 {
		return nil
	}
	m := p.mailbox[idx]
	p.mailbox = append(p.mailbox[:idx], p.mailbox[idx+1:]...)
	m.rec.Consumed = true
	p.e.progress++
	p.completeRendezvous(m)
	return m
}

// findMatching locates the policy-preferred candidate in the mailbox.
func (p *eproc) findMatching(src, tag int) int {
	best := -1
	for i, m := range p.mailbox {
		if !filterMatch(src, tag, m.rec) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := p.mailbox[best]
		if m.rec.Src == b.rec.Src {
			continue // FIFO within a channel: the earlier message stands
		}
		if p.e.policy == PolicyHigh {
			if m.rec.Src > b.rec.Src {
				best = i
			}
		} else if m.rec.Src < b.rec.Src {
			best = i
		}
	}
	return best
}

// peekMatching is findMatching without consumption (probes).
func (p *eproc) peekMatching(src, tag int) *emsg {
	if i := p.findMatching(src, tag); i >= 0 {
		return p.mailbox[i]
	}
	return nil
}

// --- non-blocking operations ---

// Isend implements sim.FullProc.
func (p *eproc) Isend(dst, tag int, data []byte) *sim.Request {
	req := &reqState{}
	p.sendCommon(dst, tag, len(data), data, OpIsend, req)
	token := &sim.Request{}
	p.reqs[token] = req
	p.allReqs = append(p.allReqs, req)
	return token
}

// Irecv implements sim.FullProc.
func (p *eproc) Irecv(src, tag int) *sim.Request {
	p.charge()
	p.checkRecvArgs(src, tag)
	seq := p.op(Op{Kind: OpIrecv, Peer: src, Tag: tag, Events: 1})
	slot := len(p.slots)
	p.slots = append(p.slots, Slot{
		Rank: p.id, Op: seq, SrcFilter: src, TagFilter: tag,
		Caller: p.ops[seq].Caller, MatchSrc: -1, MatchSeq: -1,
	})
	req := &reqState{isRecv: true, src: src, tag: tag, slot: slot}
	if m := p.takeMatching(src, tag); m != nil {
		req.done = true
		req.msg = m
		p.noteMatch(seq, slot, m)
	} else {
		p.posted = append(p.posted, req)
	}
	token := &sim.Request{}
	p.reqs[token] = req
	p.allReqs = append(p.allReqs, req)
	return token
}

// lookup resolves a request token, mirroring the simulator's ownership
// checks.
func (p *eproc) lookup(token *sim.Request) *reqState {
	if token == nil {
		panic("verify: Wait on nil or foreign request")
	}
	req, ok := p.reqs[token]
	if !ok {
		panic("verify: Wait on nil or foreign request")
	}
	return req
}

// Wait implements sim.FullProc.
func (p *eproc) Wait(token *sim.Request) sim.Message {
	req := p.lookup(token)
	if req.waited {
		panic("verify: Wait called twice on one request")
	}
	req.waited = true
	p.charge()
	seq := p.op(Op{Kind: OpWait, Peer: -1, Tag: -1, Events: 1})
	if !req.done {
		p.breqs = []*reqState{req}
		p.block(blockReq, seq)
		p.wakeReq = nil
	}
	if req.isRecv {
		m := req.msg
		p.ops[seq].Peer = m.rec.Src
		p.ops[seq].Tag = m.rec.Tag
		p.ops[seq].MatchSrc = m.rec.Src
		p.ops[seq].MatchSeq = m.rec.ChanSeq
		return sim.Message{Src: m.rec.Src, Tag: m.rec.Tag, Size: m.rec.Size, Data: m.data}
	}
	return sim.Message{}
}

func describeReq(req *reqState) string {
	if req.isRecv {
		return fmt.Sprintf("Irecv src=%s tag=%s", peerString(req.src), tagString(req.tag))
	}
	return fmt.Sprintf("Isend dst=%d tag=%d", req.sendMsg.rec.Dst, req.sendMsg.rec.Tag)
}

// Waitall implements sim.FullProc.
func (p *eproc) Waitall(tokens []*sim.Request) []sim.Message {
	msgs := make([]sim.Message, len(tokens))
	for i, tok := range tokens {
		msgs[i] = p.Wait(tok)
	}
	return msgs
}

// Waitany implements sim.FullProc. Among already-complete requests the
// canonical policy takes the lowest index (highest under PolicyHigh);
// with none complete it parks on the whole set.
func (p *eproc) Waitany(tokens []*sim.Request) (int, sim.Message) {
	if len(tokens) == 0 {
		panic("verify: Waitany with no requests")
	}
	p.charge()
	eligible := 0
	completed := 0
	chosen := -1
	states := make([]*reqState, len(tokens))
	for i, tok := range tokens {
		req := p.lookup(tok)
		states[i] = req
		if req.waited {
			continue
		}
		eligible++
		if req.done {
			completed++
			if chosen < 0 || p.e.policy == PolicyHigh {
				chosen = i
			}
		}
	}
	if eligible == 0 {
		panic("verify: Waitany called with every request already waited")
	}
	seq := p.op(Op{Kind: OpWaitany, Peer: -1, Tag: -1, Size: completed})
	if chosen >= 0 {
		return chosen, p.Wait(tokens[chosen])
	}
	pending := make([]*reqState, 0, eligible)
	for _, req := range states {
		if req != nil && !req.waited {
			pending = append(pending, req)
		}
	}
	p.breqs = pending
	p.block(blockAny, seq)
	woken := p.wakeReq
	p.wakeReq = nil
	for i, req := range states {
		if req == woken {
			return i, p.Wait(tokens[i])
		}
	}
	panic("verify: Waitany completed an unknown request")
}

// Probe implements sim.FullProc.
func (p *eproc) Probe(src, tag int) (msgSrc, msgTag, size int) {
	p.charge()
	p.checkRecvArgs(src, tag)
	seq := p.op(Op{Kind: OpProbe, Peer: src, Tag: tag})
	if m := p.peekMatching(src, tag); m != nil {
		return m.rec.Src, m.rec.Tag, m.rec.Size
	}
	p.bsrc, p.btg = src, tag
	p.block(blockProbe, seq)
	m := p.wakeMsg
	p.wakeMsg = nil
	return m.rec.Src, m.rec.Tag, m.rec.Size
}

// Iprobe implements sim.FullProc. A failed poll hands the baton back so
// other ranks can make the probed-for message appear; a long stall with
// no global progress aborts the elaboration (livelock guard).
func (p *eproc) Iprobe(src, tag int) (ok bool, msgSrc, msgTag, size int) {
	p.charge()
	p.checkRecvArgs(src, tag)
	p.op(Op{Kind: OpIprobe, Peer: src, Tag: tag})
	if m := p.peekMatching(src, tag); m != nil {
		p.iprobeStall = 0
		return true, m.rec.Src, m.rec.Tag, m.rec.Size
	}
	if p.e.progress == p.iprobeMark {
		p.iprobeStall++
		if p.iprobeStall > iprobeStallLimit {
			panic(fmt.Sprintf("verify: rank %d polled Iprobe %d times with no progress (livelock)",
				p.id, p.iprobeStall))
		}
	} else {
		p.iprobeMark = p.e.progress
		p.iprobeStall = 0
	}
	p.softYield()
	return false, 0, 0, 0
}

// Sendrecv implements sim.FullProc, decomposed exactly as the simulator
// does: non-blocking send, blocking receive, wait.
func (p *eproc) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) sim.Message {
	req := p.Isend(dst, sendTag, data)
	m := p.Recv(src, recvTag)
	p.Wait(req)
	return m
}

// --- collectives ---

// joinCollective enters this rank's next collective round, blocking
// until every rank has arrived; the last arrival computes the outputs.
func (p *eproc) joinCollective(name string, root int, data []byte, parts [][]byte, op sim.ReduceOp) *collRound {
	p.charge()
	if root < 0 || root >= p.e.n {
		panic(fmt.Sprintf("verify: collective root %d out of range [0,%d)", root, p.e.n))
	}
	seq := p.collSeq
	p.collSeq++
	for len(p.e.rounds) <= seq {
		p.e.rounds = append(p.e.rounds, nil)
	}
	round := p.e.rounds[seq]
	if round == nil {
		round = &collRound{
			name:    name,
			root:    root,
			arrived: make([]bool, p.e.n),
			data:    make([][]byte, p.e.n),
			parts:   make([][][]byte, p.e.n),
		}
		p.e.rounds[seq] = round
	}
	if round.name != name || round.root != root {
		p.e.collMismatch = fmt.Sprintf(
			"collective sequence mismatch: rank %d called %s(root=%d) as collective #%d, other ranks called %s(root=%d)",
			p.id, name, root, seq, round.name, round.root)
		p.e.abort = true
		panic(abortUnwind{})
	}
	round.arrived[p.id] = true
	round.count++
	if data != nil {
		round.data[p.id] = append([]byte(nil), data...)
	}
	round.parts[p.id] = parts
	if round.op == nil {
		round.op = op
	}
	opIdx := p.op(Op{Kind: OpCollective, Peer: root, Coll: name, Size: len(data), Events: 1})
	p.e.progress++
	if round.count < p.e.n {
		p.bround = round
		p.bawait = p.e.n - round.count
		p.block(blockColl, opIdx)
		return round
	}
	round.complete(p.e.n)
	// Wake every rank parked on this round.
	for _, q := range p.e.procs {
		if q.state == stateBlocked && q.bkind == blockColl && q.bround == round {
			q.state = stateReady
		}
	}
	return round
}

// complete computes every rank's output once all have arrived. Rooted
// and ordered combines use rank order — the canonical deterministic
// choice (the simulator's trees are deterministic too; ReduceArrival's
// arrival order is data non-determinism the static model does not
// track).
func (c *collRound) complete(n int) {
	c.done = true
	c.out = make([][]byte, n)
	switch c.name {
	case "barrier":
	case "bcast":
		for i := 0; i < n; i++ {
			c.out[i] = append([]byte(nil), c.data[c.root]...)
		}
	case "reduce", "reduce_arrival":
		c.out[c.root] = c.combineAll(n)
	case "allreduce":
		acc := c.combineAll(n)
		for i := 0; i < n; i++ {
			c.out[i] = append([]byte(nil), acc...)
		}
	case "scan":
		acc := append([]byte(nil), c.data[0]...)
		c.out[0] = append([]byte(nil), acc...)
		for i := 1; i < n; i++ {
			acc = c.op(acc, c.data[i])
			c.out[i] = append([]byte(nil), acc...)
		}
	case "scatter":
		rootParts := c.parts[c.root]
		if len(rootParts) != n {
			panic(fmt.Sprintf("verify: Scatter root has %d parts for %d ranks", len(rootParts), n))
		}
		for i := 0; i < n; i++ {
			c.out[i] = append([]byte(nil), rootParts[i]...)
		}
	case "gather":
		c.outDeck = make([][][]byte, n)
		all := make([][]byte, n)
		for i := 0; i < n; i++ {
			all[i] = append([]byte(nil), c.data[i]...)
		}
		c.outDeck[c.root] = all
	case "allgather":
		c.outDeck = make([][][]byte, n)
		for i := 0; i < n; i++ {
			all := make([][]byte, n)
			for j := 0; j < n; j++ {
				all[j] = append([]byte(nil), c.data[j]...)
			}
			c.outDeck[i] = all
		}
	case "alltoall":
		c.outDeck = make([][][]byte, n)
		for i := 0; i < n; i++ {
			if len(c.parts[i]) != n {
				panic(fmt.Sprintf("verify: Alltoall with %d parts for %d ranks", len(c.parts[i]), n))
			}
		}
		for i := 0; i < n; i++ {
			row := make([][]byte, n)
			for j := 0; j < n; j++ {
				row[j] = append([]byte(nil), c.parts[j][i]...)
			}
			c.outDeck[i] = row
		}
	}
}

// combineAll folds every rank's contribution in rank order.
func (c *collRound) combineAll(n int) []byte {
	if c.op == nil {
		panic("verify: reduction with nil op")
	}
	acc := append([]byte(nil), c.data[0]...)
	for i := 1; i < n; i++ {
		acc = c.op(acc, c.data[i])
	}
	return acc
}

// Barrier implements sim.FullProc.
func (p *eproc) Barrier() { p.joinCollective("barrier", 0, nil, nil, nil) }

// Bcast implements sim.FullProc.
func (p *eproc) Bcast(root int, data []byte) []byte {
	round := p.joinCollective("bcast", root, data, nil, nil)
	return round.out[p.id]
}

// Reduce implements sim.FullProc.
func (p *eproc) Reduce(root int, data []byte, op sim.ReduceOp) []byte {
	if op == nil {
		panic("verify: Reduce with nil op")
	}
	round := p.joinCollective("reduce", root, data, nil, op)
	return round.out[p.id]
}

// ReduceArrival implements sim.FullProc. Combination order is rank
// order here: the arrival-order data non-determinism the simulator
// exposes is outside the static structural model.
func (p *eproc) ReduceArrival(root int, data []byte, op sim.ReduceOp) []byte {
	if op == nil {
		panic("verify: ReduceArrival with nil op")
	}
	round := p.joinCollective("reduce_arrival", root, data, nil, op)
	return round.out[p.id]
}

// Allreduce implements sim.FullProc.
func (p *eproc) Allreduce(data []byte, op sim.ReduceOp) []byte {
	if op == nil {
		panic("verify: Allreduce with nil op")
	}
	round := p.joinCollective("allreduce", 0, data, nil, op)
	return round.out[p.id]
}

// Gather implements sim.FullProc.
func (p *eproc) Gather(root int, data []byte) [][]byte {
	round := p.joinCollective("gather", root, data, nil, nil)
	if round.outDeck != nil {
		return round.outDeck[p.id]
	}
	return nil
}

// Scatter implements sim.FullProc.
func (p *eproc) Scatter(root int, parts [][]byte) []byte {
	round := p.joinCollective("scatter", root, nil, parts, nil)
	return round.out[p.id]
}

// Allgather implements sim.FullProc.
func (p *eproc) Allgather(data []byte) [][]byte {
	round := p.joinCollective("allgather", 0, data, nil, nil)
	return round.outDeck[p.id]
}

// Scan implements sim.FullProc.
func (p *eproc) Scan(data []byte, op sim.ReduceOp) []byte {
	if op == nil {
		panic("verify: Scan with nil op")
	}
	round := p.joinCollective("scan", 0, data, nil, op)
	return round.out[p.id]
}

// Alltoall implements sim.FullProc.
func (p *eproc) Alltoall(parts [][]byte) [][]byte {
	if len(parts) != p.e.n {
		panic(fmt.Sprintf("verify: Alltoall with %d parts for %d ranks", len(parts), p.e.n))
	}
	round := p.joinCollective("alltoall", 0, nil, parts, nil)
	return round.outDeck[p.id]
}

// The recorder must satisfy the full recording seam.
var _ sim.FullProc = (*eproc)(nil)
