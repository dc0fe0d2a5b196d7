package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// Binary trace format v2 ("ANCNTR02"): columnar, compressed, and
// append-only, built for campaign archives that write hundreds of runs
// and read back a few ranks at a time. Where v1 interleaves nine
// varints per event, v2 groups events into per-rank segments and stores
// each field as its own column: kinds as raw bytes, identities as plain
// varints, and the monotone clock columns (time, lamport) plus the
// locally near-sequential ones (msg id, channel seq) as varint deltas,
// which collapse to one or two bytes per value. Each segment's column
// payload, and the footer, are then DEFLATE-compressed — the columnar
// grouping is what makes this bite, since same-field bytes share a
// skewed distribution the entropy coder can exploit. Callstacks are
// dictionary-coded once per file; the dictionary is front-coded in
// sorted order (each key stores only its suffix after the longest
// common prefix with its predecessor).
//
// The file ends with a footer index — per-rank event/send/receive
// counts, the per-rank maximum send id, and the (offset, count) list of
// the rank's segments — followed by a fixed 16-byte trailer holding the
// footer offset and a trailing magic. A reader seeks the trailer from
// EOF, loads the footer, and can then decode any single rank without
// touching the rest of the file (segments are compressed
// independently); the counts are exactly the inputs the graph
// builder's layout needs, so graph construction from a v2 file skips
// the counting pass entirely.
//
// Layout:
//
//	magic "ANCNTR02"
//	meta: pattern (uvarint len + bytes), varint procs/nodes/iterations/
//	      msg size, 8-byte LE math.Float64bits(nd percent), varint seed
//	segment blocks (any order, located per rank by the footer). A
//	block holds one run of events per rank it covers: the steady-state
//	flush emits single-rank blocks, and the final drain at Close packs
//	rank tails into blocks of at most ~v2DrainBlockEvents events, so a
//	small trace's ranks share one compression context instead of
//	paying DEFLATE's fixed cost per rank, while a cursor reading a
//	wide trace never inflates more than a small shared block to reach
//	its own run. Block layout:
//	  uvarint run count, per run (uvarint rank, uvarint count), then
//	  uvarint raw payload len, uvarint compressed len, DEFLATE(payload)
//	  where the payload is each run's columns in header order:
//	  kind bytes; peer/tag/size varints; msg id, chan seq, time,
//	  lamport varint deltas (restarting from 0 each run); stack-index
//	  uvarints
//	footer: uvarint raw len, uvarint compressed len, DEFLATE(payload);
//	  the payload is:
//	  dictionary: uvarint count, front-coded sorted keys
//	    (uvarint shared-prefix len, uvarint suffix len, suffix bytes),
//	    then count uvarints mapping stack index -> sorted position
//	  rank index: uvarint rank count, per rank uvarint events/sends/
//	    recvs, varint max send id, uvarint segment count, per segment
//	    uvarint offset + uvarint count
//	trailer: 8-byte LE footer offset, magic "ANCNTR02"
//
// Every block is its own compression context, so only the DEFLATE
// level (CodecOptions.Level) changes the archived bytes.
var binaryMagicV2 = [8]byte{'A', 'N', 'C', 'N', 'T', 'R', '0', '2'}

// v2MaxPayloadBytes bounds a segment payload's claimed raw size per
// event: nine fields of at most ten varint bytes each, rounded up. The
// reader rejects larger claims before allocating, so corrupted length
// fields cannot force huge allocations.
const v2MaxPayloadBytesPerEvent = 96

// v2MinEventBytes is the smallest raw payload one event can occupy: a
// kind byte, seven one-byte varints and a one-byte stack index.
const v2MinEventBytes = 9

// v2SegmentEvents is the StreamWriter's per-rank flush threshold. It
// bounds both the writer's buffering and a reader cursor's working set:
// decoding never holds more than one segment of columns per open
// cursor. 1024 events ≈ 9 KiB of column data.
const v2SegmentEvents = 1024

// v2DrainBlockEvents caps how many events Close's final drain packs
// into one multi-rank block. Small enough that the inflated payload a
// reader holds to serve the block's ranks stays a few KiB; large enough
// that a small trace's ranks share one compression context. (The
// reader inflates a shared block once per pass and caches the payload
// until every rank's cursor has decoded its run — see sharedBlock in
// reader.go.)
const v2DrainBlockEvents = 256

// v2TrailerSize is the fixed byte size of the v2 trailer.
const v2TrailerSize = 16

// EventSink consumes trace events as they are recorded. The simulator
// accepts one in place of materializing a *Trace (sim.Config.Sink), and
// StreamWriter implements it by encoding straight to a v2 file, so a
// run's peak trace memory is the sink's segment buffers instead of the
// full event record.
type EventSink interface {
	// Append records one event. Implementations assign the per-rank
	// sequence number themselves (events of one rank must arrive in
	// stream order) and surface failures from their Close/Err methods
	// rather than returning them per event.
	Append(Event)
}

// segRef names one run inside a block for the footer: rank and event
// count. The block's file offset is assigned when the block is written.
type segRef struct {
	rank, count int
}

// v2Segment locates one encoded run of events within the file.
type v2Segment struct {
	off   int64
	count int
}

// colBlockCap is a fresh colBlock's per-column capacity in events: one
// carve covers a small rank's whole stream (master–worker workers,
// drain-only ranks).
const colBlockCap = 64

// colBlock is the pooled backing storage of one rank's column buffers:
// one byte slice for kinds, one int64 arena carved into the seven
// numeric columns, one int slice for stack indices, each holding
// cap(kinds) events. A rank that fills its block moves to a fresh one
// of twice the capacity, at most v2SegmentEvents (the rank flushes at
// that many), and returns the larger block to the pool at Close: a
// later writer's hot rank starts at the size this one grew to, instead
// of regrowing nine columns from colBlockCap. Pooling these is what
// keeps a wide writer (1024 ranks × 9 columns) from paying tens of
// thousands of append-growth allocations per encode.
type colBlock struct {
	kinds  []byte
	i64    []int64
	stacks []int
}

var colBlockPool sync.Pool

func newColBlock(events int) *colBlock {
	return &colBlock{
		kinds:  make([]byte, 0, events),
		i64:    make([]int64, 7*events),
		stacks: make([]int, 0, events),
	}
}

func getColBlock() *colBlock {
	if cb, ok := colBlockPool.Get().(*colBlock); ok {
		return cb
	}
	return newColBlock(colBlockCap)
}

func putColBlock(cb *colBlock) { colBlockPool.Put(cb) }

// rankEncoder buffers one rank's pending column data and accumulates
// its footer counts. Column slices are carved from a pooled colBlock on
// the rank's first event, move to a larger block when full (grow), and
// are released at Close.
type rankEncoder struct {
	cb       *colBlock
	kinds    []byte
	peers    []int64
	tags     []int64
	sizes    []int64
	msgIDs   []int64
	chanSeqs []int64
	times    []int64
	lamports []int64
	stacks   []int

	events, sends, recvs int
	maxSendID            int64
	segs                 []v2Segment
}

// attach carves the rank's empty column buffers out of cb.
func (re *rankEncoder) attach(cb *colBlock) {
	c := cap(cb.kinds)
	re.cb = cb
	re.kinds = cb.kinds[:0]
	re.stacks = cb.stacks[:0]
	re.peers = cb.i64[0:0:c]
	re.tags = cb.i64[c : c : 2*c]
	re.sizes = cb.i64[2*c : 2*c : 3*c]
	re.msgIDs = cb.i64[3*c : 3*c : 4*c]
	re.chanSeqs = cb.i64[4*c : 4*c : 5*c]
	re.times = cb.i64[5*c : 5*c : 6*c]
	re.lamports = cb.i64[6*c : 6*c : 7*c]
}

// grow moves the rank's pending events to a fresh block of twice the
// capacity, capped at v2SegmentEvents. The outgrown block is dropped,
// not pooled, so the pool fills with blocks of the size writers need.
// Append calls it only on a full block, which holds fewer than
// v2SegmentEvents events (a rank flushes at that many).
func (re *rankEncoder) grow() {
	old := *re
	re.attach(newColBlock(min(2*cap(old.kinds), v2SegmentEvents)))
	re.kinds = append(re.kinds, old.kinds...)
	re.peers = append(re.peers, old.peers...)
	re.tags = append(re.tags, old.tags...)
	re.sizes = append(re.sizes, old.sizes...)
	re.msgIDs = append(re.msgIDs, old.msgIDs...)
	re.chanSeqs = append(re.chanSeqs, old.chanSeqs...)
	re.times = append(re.times, old.times...)
	re.lamports = append(re.lamports, old.lamports...)
	re.stacks = append(re.stacks, old.stacks...)
}

// release returns the rank's colBlock to the pool and drops the column
// slices, which alias it.
func (re *rankEncoder) release() {
	if re.cb == nil {
		return
	}
	putColBlock(re.cb)
	re.cb = nil
	re.kinds, re.stacks = nil, nil
	re.peers, re.tags, re.sizes, re.msgIDs = nil, nil, nil, nil
	re.chanSeqs, re.times, re.lamports = nil, nil, nil
}

// fileSink is the buffered file writer plus its running offset and
// sticky I/O error.
type fileSink struct {
	bw      *bufio.Writer
	off     int64
	err     error
	scratch [binary.MaxVarintLen64]byte
}

func (s *fileSink) write(p []byte) {
	if s.err != nil {
		return
	}
	n, err := s.bw.Write(p)
	s.off += int64(n)
	s.err = err
}

func (s *fileSink) writeVarint(v int64) {
	if s.err != nil {
		return
	}
	n := binary.PutVarint(s.scratch[:], v)
	s.write(s.scratch[:n])
}

func (s *fileSink) writeUvarint(v uint64) {
	if s.err != nil {
		return
	}
	n := binary.PutUvarint(s.scratch[:], v)
	s.write(s.scratch[:n])
}

func (s *fileSink) writeString(str string) {
	s.writeUvarint(uint64(len(str)))
	if s.err == nil {
		n, err := s.bw.WriteString(str)
		s.off += int64(n)
		s.err = err
	}
}

// StreamWriter encodes a v2 binary trace incrementally. Events arrive
// via Append in any rank interleaving (each rank's own events in
// stream order); segments are flushed as rank buffers fill, and Close
// writes the dictionary, footer, and trailer. Errors are sticky: the
// first I/O or usage error disables further encoding and is returned by
// Close (and Err).
//
// Each block is DEFLATEd inline on the Append path with one pooled
// compression context, so a writer starts no goroutines; callers that
// want parallelism run one writer per run.
//
// StreamWriter implements EventSink.
type StreamWriter struct {
	sink   fileSink
	err    error // usage/compression errors; merged with sink.err at Close
	closed bool

	meta  Meta
	ranks []rankEncoder
	dict  map[string]int
	keys  []string // dictionary keys in index (first-seen) order
	total int

	// lastKey/lastIdx memoize the previous Append's dictionary hit:
	// event streams repeat callsites in tight alternation, and interned
	// keys are pointer-equal, so this string compare is O(1) far more
	// often than not.
	lastKey string
	lastIdx int

	level int

	payload []byte      // raw segment/footer payload being assembled
	header  []byte      // block header being assembled
	refs    []segRef    // footer refs scratch
	comp    *compressor // DEFLATE context, taken at the first block
}

// NewStreamWriter starts a v2 binary trace for meta on w with default
// codec options, writing the header immediately. The caller must Close
// the writer to produce a complete file.
func NewStreamWriter(w io.Writer, meta Meta) *StreamWriter {
	return NewStreamWriterOptions(w, meta, CodecOptions{})
}

// NewStreamWriterOptions is NewStreamWriter with explicit codec
// options. The compression level changes the archived bytes.
func NewStreamWriterOptions(w io.Writer, meta Meta, opts CodecOptions) *StreamWriter {
	sw := &StreamWriter{
		sink:    fileSink{bw: bufio.NewWriter(w)},
		meta:    meta,
		dict:    make(map[string]int),
		lastIdx: -1,
	}
	if meta.Procs < 0 {
		sw.err = fmt.Errorf("trace: negative proc count %d", meta.Procs)
		return sw
	}
	sw.ranks = make([]rankEncoder, meta.Procs)
	level, err := opts.level()
	if err != nil {
		sw.err = err
		return sw
	}
	sw.level = level
	for i := range sw.ranks {
		sw.ranks[i].maxSendID = -1
	}
	sw.sink.write(binaryMagicV2[:])
	sw.sink.writeString(meta.Pattern)
	sw.sink.writeVarint(int64(meta.Procs))
	sw.sink.writeVarint(int64(meta.Nodes))
	sw.sink.writeVarint(int64(meta.Iterations))
	sw.sink.writeVarint(int64(meta.MsgSize))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(meta.NDPercent))
	sw.sink.write(b[:])
	sw.sink.writeVarint(meta.Seed)
	return sw
}

// Append implements EventSink: it buffers one event into its rank's
// pending segment, flushing the segment when it reaches
// v2SegmentEvents. The event's Seq is ignored — position in the rank's
// append order is authoritative, exactly as Trace.Append assigns it.
func (sw *StreamWriter) Append(e Event) {
	if sw.err != nil {
		return
	}
	if sw.closed {
		sw.err = fmt.Errorf("trace: StreamWriter.Append after Close")
		return
	}
	if e.Rank < 0 || e.Rank >= len(sw.ranks) {
		sw.err = fmt.Errorf("trace: event rank %d out of range [0,%d)", e.Rank, len(sw.ranks))
		return
	}
	re := &sw.ranks[e.Rank]
	if re.cb == nil {
		re.attach(getColBlock())
	} else if len(re.kinds) == cap(re.kinds) {
		re.grow()
	}
	re.kinds = append(re.kinds, byte(e.Kind))
	re.peers = append(re.peers, int64(e.Peer))
	re.tags = append(re.tags, int64(e.Tag))
	re.sizes = append(re.sizes, int64(e.Size))
	re.msgIDs = append(re.msgIDs, e.MsgID)
	re.chanSeqs = append(re.chanSeqs, int64(e.ChanSeq))
	re.times = append(re.times, int64(e.Time))
	re.lamports = append(re.lamports, e.Lamport)
	key := e.CallstackKey()
	idx := sw.lastIdx
	if idx < 0 || key != sw.lastKey {
		var ok bool
		idx, ok = sw.dict[key]
		if !ok {
			idx = len(sw.keys)
			sw.dict[key] = idx
			sw.keys = append(sw.keys, key)
		}
		sw.lastKey, sw.lastIdx = key, idx
	}
	re.stacks = append(re.stacks, idx)
	if e.MsgID != NoMsg {
		if e.Kind.IsSend() {
			re.sends++
			if e.MsgID > re.maxSendID {
				re.maxSendID = e.MsgID
			}
		} else if e.Kind.IsReceive() {
			re.recvs++
		}
	}
	re.events++
	sw.total++
	if len(re.kinds) >= v2SegmentEvents {
		sw.flushRanks(e.Rank, e.Rank+1)
	}
}

// growFor returns dst with room for at least need more bytes, copying
// on reallocation.
func growFor(dst []byte, need int) []byte {
	if cap(dst)-len(dst) >= need {
		return dst
	}
	ndst := make([]byte, len(dst), len(dst)+need+cap(dst)/2)
	copy(ndst, dst)
	return ndst
}

// appendColumn encodes one int64 column into dst, either as plain
// varints or as deltas from the previous value (starting at 0 each
// run). Worst-case space is reserved once and the varint bytes written
// by direct indexing: a wide flush emits hundreds of thousands of
// varints, and the per-append bounds dance of binary.AppendVarint is
// measurable at that volume. The encoding (zigzag, 7-bit groups) is
// byte-identical to binary.AppendVarint's.
func appendColumn(dst []byte, vals []int64, delta bool) []byte {
	dst = growFor(dst, len(vals)*binary.MaxVarintLen64)
	buf := dst[len(dst):cap(dst)]
	i := 0
	var prev int64
	for _, v := range vals {
		d := v
		if delta {
			d = v - prev
			prev = v
		}
		u := uint64(d) << 1
		if d < 0 {
			u = ^u
		}
		for u >= 0x80 {
			buf[i] = byte(u) | 0x80
			i++
			u >>= 7
		}
		buf[i] = byte(u)
		i++
	}
	return dst[:len(dst)+i]
}

// appendUvarintColumn encodes one uvarint column (the stack indices)
// the same way.
func appendUvarintColumn(dst []byte, vals []int) []byte {
	dst = growFor(dst, len(vals)*binary.MaxVarintLen64)
	buf := dst[len(dst):cap(dst)]
	i := 0
	for _, v := range vals {
		u := uint64(v)
		for u >= 0x80 {
			buf[i] = byte(u) | 0x80
			i++
			u >>= 7
		}
		buf[i] = byte(u)
		i++
	}
	return dst[:len(dst)+i]
}

// flushRanks encodes the buffered events of ranks [lo, hi) that have
// any as one block of per-rank runs sharing one DEFLATE stream,
// compresses it, and writes it.
func (sw *StreamWriter) flushRanks(lo, hi int) {
	if sw.err != nil {
		return
	}
	refs := sw.refs[:0]
	for r := lo; r < hi; r++ {
		if n := len(sw.ranks[r].kinds); n > 0 {
			refs = append(refs, segRef{rank: r, count: n})
		}
	}
	sw.refs = refs[:0]
	if len(refs) == 0 {
		return
	}
	header := sw.header[:0]
	header = binary.AppendUvarint(header, uint64(len(refs)))
	for _, ref := range refs {
		header = binary.AppendUvarint(header, uint64(ref.rank))
		header = binary.AppendUvarint(header, uint64(ref.count))
	}
	payload := sw.payload[:0]
	for _, ref := range refs {
		re := &sw.ranks[ref.rank]
		payload = append(payload, re.kinds...)
		payload = appendColumn(payload, re.peers, false)
		payload = appendColumn(payload, re.tags, false)
		payload = appendColumn(payload, re.sizes, false)
		payload = appendColumn(payload, re.msgIDs, true)
		payload = appendColumn(payload, re.chanSeqs, true)
		payload = appendColumn(payload, re.times, true)
		payload = appendColumn(payload, re.lamports, true)
		payload = appendUvarintColumn(payload, re.stacks)
		re.kinds = re.kinds[:0]
		re.peers = re.peers[:0]
		re.tags = re.tags[:0]
		re.sizes = re.sizes[:0]
		re.msgIDs = re.msgIDs[:0]
		re.chanSeqs = re.chanSeqs[:0]
		re.times = re.times[:0]
		re.lamports = re.lamports[:0]
		re.stacks = re.stacks[:0]
	}
	sw.header, sw.payload = header, payload
	off := sw.sink.off
	sw.sink.write(header)
	sw.writeCompressedPayload()
	for _, ref := range refs {
		re := &sw.ranks[ref.rank]
		re.segs = append(re.segs, v2Segment{off: off, count: ref.count})
	}
}

// writeCompressedPayload DEFLATE-compresses the assembled sw.payload
// and writes it framed as uvarint raw len, uvarint compressed len,
// compressed bytes — the framing of every block payload and of the
// footer. The payload buffer is reset for the next use.
func (sw *StreamWriter) writeCompressedPayload() {
	defer func() { sw.payload = sw.payload[:0] }()
	if sw.err != nil {
		return
	}
	if sw.comp == nil {
		c, err := getCompressor(sw.level)
		if err != nil {
			sw.err = err
			return
		}
		sw.comp = c
	}
	comp, err := sw.comp.compress(sw.payload)
	if err != nil {
		sw.err = err
		return
	}
	sw.sink.writeUvarint(uint64(len(sw.payload)))
	sw.sink.writeUvarint(uint64(len(comp)))
	sw.sink.write(comp)
}

// commonPrefixLen returns the length of the longest common prefix of a
// and b.
func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Close flushes the pending segments and writes the dictionary, footer, and trailer. It returns the first
// error the writer encountered. Close is idempotent; Append after
// Close is an error.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	// Drain rank tails into multi-rank blocks of bounded size: one
	// block for a small trace, ~v2DrainBlockEvents-event blocks for a
	// wide one (a tail larger than the budget flushes alone).
	lo, pending := 0, 0
	for r := range sw.ranks {
		n := len(sw.ranks[r].kinds)
		if pending > 0 && pending+n > v2DrainBlockEvents {
			sw.flushRanks(lo, r)
			lo, pending = r, 0
		}
		pending += n
	}
	sw.flushRanks(lo, len(sw.ranks))
	for r := range sw.ranks {
		sw.ranks[r].release()
	}
	footerOff := sw.sink.off

	// Dictionary: keys sorted for front-coding, then the permutation
	// from first-seen index (what segments reference) to sorted slot.
	sorted := append([]string(nil), sw.keys...)
	sort.Strings(sorted)
	pos := make(map[string]int, len(sorted))
	for i, k := range sorted {
		pos[k] = i
	}
	payload := sw.payload[:0]
	payload = binary.AppendUvarint(payload, uint64(len(sorted)))
	prev := ""
	for _, k := range sorted {
		p := commonPrefixLen(prev, k)
		payload = binary.AppendUvarint(payload, uint64(p))
		payload = binary.AppendUvarint(payload, uint64(len(k)-p))
		payload = append(payload, k[p:]...)
		prev = k
	}
	for _, k := range sw.keys {
		payload = binary.AppendUvarint(payload, uint64(pos[k]))
	}

	// Rank index.
	payload = binary.AppendUvarint(payload, uint64(len(sw.ranks)))
	for r := range sw.ranks {
		re := &sw.ranks[r]
		payload = binary.AppendUvarint(payload, uint64(re.events))
		payload = binary.AppendUvarint(payload, uint64(re.sends))
		payload = binary.AppendUvarint(payload, uint64(re.recvs))
		payload = binary.AppendVarint(payload, re.maxSendID)
		payload = binary.AppendUvarint(payload, uint64(len(re.segs)))
		for _, s := range re.segs {
			payload = binary.AppendUvarint(payload, uint64(s.off))
			payload = binary.AppendUvarint(payload, uint64(s.count))
		}
	}
	sw.payload = payload
	sw.writeCompressedPayload()

	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(footerOff))
	sw.sink.write(b[:])
	sw.sink.write(binaryMagicV2[:])
	if ferr := sw.sink.bw.Flush(); sw.sink.err == nil {
		sw.sink.err = ferr
	}
	if sw.err == nil {
		sw.err = sw.sink.err
	}
	putCompressor(sw.comp)
	sw.comp = nil
	sw.payload, sw.header = nil, nil
	return sw.err
}

// Err returns the writer's sticky usage, compression or I/O error
// without closing it.
func (sw *StreamWriter) Err() error {
	if sw.err != nil {
		return sw.err
	}
	return sw.sink.err
}

// NumEvents returns how many events have been appended.
func (sw *StreamWriter) NumEvents() int { return sw.total }

// WriteBinaryV2 serializes the trace in the v2 binary format with
// default codec options.
func (t *Trace) WriteBinaryV2(w io.Writer) error {
	sw := NewStreamWriter(w, t.Meta)
	for _, evs := range t.Events {
		for i := range evs {
			sw.Append(evs[i])
		}
	}
	return sw.Close()
}

// SaveBinaryV2File writes the trace to path in the v2 binary format.
func (t *Trace) SaveBinaryV2File(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return t.WriteBinaryV2(f)
}
