// Package trace defines the execution-trace model recorded by the
// simulated MPI runtime and consumed by the event-graph builder.
//
// A Trace is the Go analogue of the per-rank dumpi/PnMPI trace files that
// ANACIN-X records for a real MPI execution: one ordered stream of MPI
// events per rank, where each event carries the call kind, the peer,
// the matched message identity, a Lamport timestamp (logical time), a
// virtual timestamp, and the callstack of application frames that issued
// the call. Callstacks are what the root-source analysis (paper Fig. 8)
// ranks; message identities are what the event-graph builder joins on.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"github.com/anacin-go/anacinx/internal/vtime"
)

// EventKind identifies the MPI operation an event records.
type EventKind uint8

// Event kinds. P2P kinds come first; collective kinds follow. The
// numeric values are part of the serialized trace format and must not
// be reordered.
const (
	KindInit EventKind = iota
	KindFinalize
	KindSend
	KindIsend
	KindRecv
	KindIrecv
	KindWait
	KindBarrier
	KindBcast
	KindReduce
	KindAllreduce
	KindGather
	KindScatter
	KindAllgather
	KindAlltoall
	KindScan
	numKinds // sentinel; keep last
)

var kindNames = [...]string{
	KindInit:      "init",
	KindFinalize:  "finalize",
	KindSend:      "send",
	KindIsend:     "isend",
	KindRecv:      "recv",
	KindIrecv:     "irecv",
	KindWait:      "wait",
	KindBarrier:   "barrier",
	KindBcast:     "bcast",
	KindReduce:    "reduce",
	KindAllreduce: "allreduce",
	KindGather:    "gather",
	KindScatter:   "scatter",
	KindAllgather: "allgather",
	KindAlltoall:  "alltoall",
	KindScan:      "scan",
}

// String returns the lower-case MPI-style name of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined event kind.
func (k EventKind) Valid() bool { return k < numKinds }

// IsCollective reports whether the kind is a collective operation.
func (k EventKind) IsCollective() bool { return k >= KindBarrier && k < numKinds }

// IsReceive reports whether the kind can complete a message reception.
// KindRecv events always carry the matched MsgID; KindWait events carry
// it when they completed an Irecv (and NoMsg when they completed an
// Isend). KindIrecv events mark the posting only and never carry a
// MsgID — the match is reported by the corresponding Wait.
func (k EventKind) IsReceive() bool { return k == KindRecv || k == KindWait }

// IsSend reports whether the kind produces a message (send-side P2P).
func (k EventKind) IsSend() bool { return k == KindSend || k == KindIsend }

// ParseKind converts a kind name (as produced by String) back to the
// EventKind. It returns an error for unknown names.
func ParseKind(s string) (EventKind, error) {
	for k, name := range kindNames {
		if name == s {
			return EventKind(k), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// NoPeer marks events without a peer rank (Init, Finalize, Barrier, ...).
const NoPeer = -1

// NoMsg marks events that do not carry a message identity.
const NoMsg = -1

// Event is one recorded MPI call on one rank.
type Event struct {
	// Rank is the MPI rank that issued the call.
	Rank int `json:"rank"`
	// Seq is the 0-based position of the event in its rank's stream.
	Seq int `json:"seq"`
	// Kind is the MPI operation.
	Kind EventKind `json:"kind"`
	// Peer is the remote rank for P2P operations, the root for rooted
	// collectives, or NoPeer.
	Peer int `json:"peer"`
	// Tag is the MPI message tag, or 0 when not applicable.
	Tag int `json:"tag"`
	// Size is the message payload size in bytes (0 when not applicable).
	Size int `json:"size"`
	// MsgID identifies the message this event sent or received, or NoMsg.
	// A send and the recv that consumed its message share one MsgID;
	// the event-graph builder joins on it.
	MsgID int64 `json:"msg_id"`
	// ChanSeq is the 0-based sequence number of the message on its
	// (src rank → dst rank) channel. Unlike MsgID it is stable across
	// runs with identical per-channel send orders, which makes
	// (src, ChanSeq) the matching identity used by record-and-replay.
	ChanSeq int `json:"chan_seq"`
	// Time is the virtual time at which the call completed.
	Time vtime.Time `json:"time"`
	// Lamport is the logical (Lamport) timestamp of the event.
	Lamport int64 `json:"lamport"`
	// Callstack holds the application call-path that issued the MPI call,
	// innermost frame first, runtime and simulator frames trimmed.
	Callstack []string `json:"callstack,omitempty"`

	// ckey caches the ";"-joined CallstackKey when the callstack came
	// through the interner (SetStack) or a binary trace's string table.
	// It is deliberately unexported and excluded from serialization:
	// the wire formats carry only Callstack, and CallstackKey falls
	// back to joining it when no cached key is present (hand-built
	// events, JSON-decoded traces).
	ckey string
}

// SetStack attaches an interned callstack to the event: Callstack
// aliases st.Frames (shared, must not be mutated) and CallstackKey
// returns st.Key without re-joining the frames.
func (e *Event) SetStack(st Stack) {
	e.Callstack = st.Frames
	e.ckey = st.Key
}

// CallstackKey returns the callstack as a single ";"-joined string,
// innermost frame first, suitable for use as a map key. Events with no
// recorded callstack return "(unknown)". For events recorded through
// the interner the key is precomputed and shared; otherwise it is
// joined on demand.
func (e *Event) CallstackKey() string {
	if e.ckey != "" {
		return e.ckey
	}
	if len(e.Callstack) == 0 {
		return "(unknown)"
	}
	n := len(e.Callstack) - 1
	for _, f := range e.Callstack {
		n += len(f)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(e.Callstack[0])
	for _, f := range e.Callstack[1:] {
		b.WriteByte(';')
		b.WriteString(f)
	}
	return b.String()
}

// Label returns the node label used by graph kernels: the operation name.
// ANACIN-X labels event-graph vertices with the MPI function that
// produced them; kernel similarity is computed over these labels.
func (e *Event) Label() string { return e.Kind.String() }

// Meta describes the run that produced a trace. It is carried alongside
// the events so analysis output can be labelled without out-of-band
// bookkeeping.
type Meta struct {
	Pattern    string  `json:"pattern"`
	Procs      int     `json:"procs"`
	Nodes      int     `json:"nodes"`
	Iterations int     `json:"iterations"`
	MsgSize    int     `json:"msg_size"`
	NDPercent  float64 `json:"nd_percent"`
	Seed       int64   `json:"seed"`
}

// Trace is the complete record of one simulated execution: one ordered
// event stream per rank.
type Trace struct {
	Meta   Meta      `json:"meta"`
	Events [][]Event `json:"events"` // indexed by rank, then by Seq

	// arena is the unconsumed tail of the current carving chunk. When a
	// capacity hint is set, each rank's stream is carved from shared
	// chunks lazily on its first Append, so a large-P trace pays for the
	// ranks that record events, not Procs × hint up front. Unexported
	// and absent from the wire formats: a decoded trace simply appends
	// without an arena.
	arena       []Event
	perRankHint int
}

// arenaChunkEvents bounds one arena chunk (~4096 events ≈ 0.5 MiB), so
// lazily touched ranks share a handful of large allocations instead of
// one small one each.
const arenaChunkEvents = 4096

// New returns an empty trace for the given number of ranks.
func New(meta Meta) *Trace {
	return NewWithCapacity(meta, 0)
}

// NewWithCapacity returns an empty trace whose rank streams are carved
// with perRankHint capacity from shared arena chunks, each rank lazily
// on its first Append. The hint is a capacity, not a limit: streams
// still grow past it (a full stream is copied out of the arena into one
// of twice its length, so a stream of n events is copied O(log n)
// times). Callers that know the approximate event count per rank (the
// simulator, bulk converters) use it to avoid the repeated
// append-doubling copies of a cold stream; perRankHint <= 0 behaves
// like New.
func NewWithCapacity(meta Meta, perRankHint int) *Trace {
	t := &Trace{Meta: meta, Events: make([][]Event, meta.Procs)}
	if perRankHint > 0 {
		t.perRankHint = perRankHint
	}
	return t
}

// Procs returns the number of ranks in the trace.
func (t *Trace) Procs() int { return len(t.Events) }

// Source is the per-rank view of one trace that the event-graph builder
// and the order-hash fold read: the rank count, each rank's declared
// counts, and a cursor over each rank's stream. *Trace and *Reader
// implement it; a Reader's counts come from its footer, so a consumer
// must check the stream it reads against them.
type Source interface {
	Procs() int
	RankCounts(rank int) (events, sends, recvs int, maxSendID int64)
	Cursor(rank int) *Cursor
}

// RankCounts returns rank's event count, its counts of message-carrying
// sends and receives, and the largest MsgID among its sends (-1 if
// none): the entry a v2 footer declares, counted in one pass.
func (t *Trace) RankCounts(rank int) (events, sends, recvs int, maxSendID int64) {
	evs := t.Events[rank]
	maxSendID = -1
	for i := range evs {
		e := &evs[i]
		if e.MsgID == NoMsg {
			continue
		}
		if e.Kind.IsSend() {
			sends++
			if e.MsgID > maxSendID {
				maxSendID = e.MsgID
			}
		} else if e.Kind.IsReceive() {
			recvs++
		}
	}
	return len(evs), sends, recvs, maxSendID
}

// Cursor returns a cursor over rank's events: the in-memory counterpart
// of Reader.Cursor. Events are copied out as they are; the cursor never
// fails except on an out-of-range rank.
func (t *Trace) Cursor(rank int) *Cursor {
	if rank < 0 || rank >= len(t.Events) {
		return &Cursor{err: fmt.Errorf("trace: cursor rank %d out of range [0,%d)", rank, len(t.Events))}
	}
	return &Cursor{evs: t.Events[rank]}
}

// carve cuts a zero-length, hint-capacity stream from the arena,
// refilling it with a fresh chunk when the tail runs short. The carved
// slice's capacity is clamped to the carving, so appends past the hint
// reallocate instead of bleeding into the next rank's events.
func (t *Trace) carve() []Event {
	hint := t.perRankHint
	if len(t.arena) < hint {
		n := arenaChunkEvents
		if n < hint {
			n = hint
		}
		t.arena = make([]Event, n)
	}
	s := t.arena[:0:hint]
	t.arena = t.arena[hint:]
	return s
}

// Append adds an event to its rank's stream, assigning Seq.
// It panics if the event's rank is out of range, which would indicate a
// runtime bug rather than a recoverable condition.
func (t *Trace) Append(e Event) {
	if e.Rank < 0 || e.Rank >= len(t.Events) {
		panic(fmt.Sprintf("trace: event rank %d out of range [0,%d)", e.Rank, len(t.Events)))
	}
	evs := t.Events[e.Rank]
	if evs == nil && t.perRankHint > 0 {
		evs = t.carve()
	}
	if n := len(evs); n > 0 && n == cap(evs) {
		// Double a full stream: append's ~1.25x growth for large slices
		// would copy a hot rank's stream dozens of times.
		grown := make([]Event, n, 2*n)
		copy(grown, evs)
		evs = grown
	}
	e.Seq = len(evs)
	t.Events[e.Rank] = append(evs, e)
}

// NumEvents returns the total event count across all ranks.
func (t *Trace) NumEvents() int {
	n := 0
	for _, evs := range t.Events {
		n += len(evs)
	}
	return n
}

// MaxLamport returns the largest Lamport timestamp in the trace, or 0
// for an empty trace.
func (t *Trace) MaxLamport() int64 {
	var max int64
	for _, evs := range t.Events {
		for i := range evs {
			if evs[i].Lamport > max {
				max = evs[i].Lamport
			}
		}
	}
	return max
}

// Validate checks structural invariants:
//   - per-rank Seq values are dense and ordered;
//   - virtual times are non-decreasing within a rank;
//   - Lamport clocks strictly increase within a rank;
//   - every received MsgID was sent exactly once, and no message is
//     received twice;
//   - event kinds are defined.
//
// It returns the first violation found.
func (t *Trace) Validate() error {
	sent := make(map[int64]int)  // MsgID -> sending rank
	recvd := make(map[int64]int) // MsgID -> receiving rank
	for rank, evs := range t.Events {
		var lastTime vtime.Time
		var lastLamport int64
		for i := range evs {
			e := &evs[i]
			if !e.Kind.Valid() {
				return fmt.Errorf("rank %d event %d: invalid kind %d", rank, i, e.Kind)
			}
			if e.Rank != rank {
				return fmt.Errorf("rank %d event %d: recorded rank %d", rank, i, e.Rank)
			}
			if e.Seq != i {
				return fmt.Errorf("rank %d event %d: seq %d not dense", rank, i, e.Seq)
			}
			if e.Time < lastTime {
				return fmt.Errorf("rank %d event %d: time %v before predecessor %v", rank, i, e.Time, lastTime)
			}
			if i > 0 && e.Lamport <= lastLamport {
				return fmt.Errorf("rank %d event %d: lamport %d not after predecessor %d", rank, i, e.Lamport, lastLamport)
			}
			lastTime, lastLamport = e.Time, e.Lamport
			if e.MsgID != NoMsg {
				switch {
				case e.Kind.IsSend():
					if prev, dup := sent[e.MsgID]; dup {
						return fmt.Errorf("msg %d sent twice (ranks %d and %d)", e.MsgID, prev, rank)
					}
					sent[e.MsgID] = rank
				case e.Kind.IsReceive():
					if prev, dup := recvd[e.MsgID]; dup {
						return fmt.Errorf("msg %d received twice (ranks %d and %d)", e.MsgID, prev, rank)
					}
					recvd[e.MsgID] = rank
				}
			}
		}
	}
	for id := range recvd {
		if _, ok := sent[id]; !ok {
			return fmt.Errorf("msg %d received but never sent", id)
		}
	}
	return nil
}

// MatchedPairs returns the number of send events whose message was
// consumed by a receive in the same trace.
func (t *Trace) MatchedPairs() int {
	recvd := make(map[int64]bool)
	for _, evs := range t.Events {
		for i := range evs {
			if evs[i].Kind.IsReceive() && evs[i].MsgID != NoMsg {
				recvd[evs[i].MsgID] = true
			}
		}
	}
	n := 0
	for _, evs := range t.Events {
		for i := range evs {
			if evs[i].Kind.IsSend() && recvd[evs[i].MsgID] {
				n++
			}
		}
	}
	return n
}

// KindCounts returns how many events of each kind the trace contains.
func (t *Trace) KindCounts() map[EventKind]int {
	counts := make(map[EventKind]int)
	for _, evs := range t.Events {
		for i := range evs {
			counts[evs[i].Kind]++
		}
	}
	return counts
}

// CommMatrix returns counts[src][dst] = number of messages src sent to
// dst (counting traced sends only, not collective plumbing).
func (t *Trace) CommMatrix() [][]int {
	n := t.Procs()
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	for rank, evs := range t.Events {
		for i := range evs {
			e := &evs[i]
			if e.Kind.IsSend() && e.Peer >= 0 && e.Peer < n {
				counts[rank][e.Peer]++
			}
		}
	}
	return counts
}

// Callstacks returns the distinct callstack keys in the trace, sorted.
func (t *Trace) Callstacks() []string {
	set := make(map[string]bool)
	for _, evs := range t.Events {
		for i := range evs {
			set[evs[i].CallstackKey()] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
