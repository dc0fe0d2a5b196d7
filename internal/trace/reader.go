package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"sort"
	"sync"

	"github.com/anacin-go/anacinx/internal/vtime"
)

// Reader decodes a v2 binary trace (see binaryv2.go) without
// materializing a *Trace: the footer index is loaded up front, and
// per-rank Cursors then stream events one segment of columns at a time.
// Opening a Reader costs the meta block, the callstack dictionary, and
// the rank index — independent of event count — and a cursor's working
// set is one segment, so consumers that fold over events (the graph
// builder, the streaming kernel path, OrderHash) run in flat memory
// regardless of run length.
//
// A Reader is safe for concurrent cursor use: Cursors read through
// io.ReaderAt, and the only mutable state they share — the cache of
// inflated multi-rank drain blocks — is mutex-guarded (sharedBlock).
type Reader struct {
	src    io.ReaderAt
	closer io.Closer

	meta      Meta
	keys      []string   // dictionary, in stack-index order
	frames    [][]string // split frames per key (nil for "(unknown)")
	ranks     []rankIndex
	footerOff int64
	total     int
	maxSeg    int
	dictBytes int64
	size      int64

	// shared caches the inflated payload and run list of every block
	// referenced by two or more ranks (the multi-rank drain blocks
	// Close packs tails into), so N cursors crossing one block cost one
	// inflate instead of N. Built once at open; lookups are lock-free,
	// per-block state is mutex-guarded.
	shared map[int64]*sharedBlock
}

// rankIndex is one rank's footer entry.
type rankIndex struct {
	events, sends, recvs int
	maxSendID            int64
	segs                 []v2Segment
}

// sectionDecoder reads varint-framed fields: from a byte-range of the
// underlying file through a bufio.Reader, or from an inflated payload
// held in memory through a bytes.Reader.
type sectionDecoder struct {
	br interface {
		io.Reader
		io.ByteReader
	}
}

func (d *sectionDecoder) uvarint() (uint64, error) { return binary.ReadUvarint(d.br) }
func (d *sectionDecoder) varint() (int64, error)   { return binary.ReadVarint(d.br) }

func (d *sectionDecoder) stringN(n uint64) (string, error) {
	if n > 1<<20 {
		return "", fmt.Errorf("trace: unreasonable string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (d *sectionDecoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	return d.stringN(n)
}

// inflateFrame reads a compressed frame (uvarint raw len, uvarint
// compressed len, DEFLATE bytes) from br and returns the decompressed
// payload, inflated into dst when its capacity suffices (pass nil for a
// fresh allocation the caller may retain). The inflater itself comes
// from the process-wide pool (codec.go) instead of being constructed
// per frame. minRaw and maxRaw bound the claimed raw size, so corrupted
// length fields cannot force huge allocations or an inflate of a
// payload too small for what the frame's header declares; maxComp
// bounds the compressed bytes by the space actually available in the
// file section. Errors carry no prefix: the caller names the frame, so
// the hot path formats nothing.
func inflateFrame(br *bufio.Reader, dst []byte, minRaw, maxRaw, maxComp int64) ([]byte, error) {
	rawLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	compLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if int64(rawLen) > maxRaw {
		return nil, fmt.Errorf("unreasonable payload size %d", rawLen)
	}
	if int64(rawLen) < minRaw {
		return nil, fmt.Errorf("payload size %d below the %d bytes its header requires", rawLen, minRaw)
	}
	if int64(compLen) > maxComp {
		return nil, fmt.Errorf("compressed size %d exceeds section", compLen)
	}
	fr := getInflater(io.LimitReader(br, int64(compLen)))
	defer putInflater(fr)
	if rawLen > 1<<20 {
		// A huge claim (within maxRaw) must not force a huge allocation
		// before the inflate proves it real: grow incrementally.
		var buf bytes.Buffer
		n, err := io.Copy(&buf, io.LimitReader(fr, int64(rawLen)+1))
		if err != nil {
			return nil, fmt.Errorf("inflate: %w", err)
		}
		if n != int64(rawLen) {
			return nil, fmt.Errorf("payload is %d bytes, frame declares %d", n, rawLen)
		}
		return buf.Bytes(), nil
	}
	if cap(dst) < int(rawLen) {
		dst = make([]byte, rawLen)
	}
	dst = dst[:rawLen]
	if _, err := io.ReadFull(fr, dst); err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	var extra [1]byte
	if n, err := fr.Read(extra[:]); n != 0 || (err != nil && err != io.EOF) {
		if n != 0 {
			return nil, fmt.Errorf("payload exceeds declared %d bytes", rawLen)
		}
		return nil, fmt.Errorf("inflate: %w", err)
	}
	return dst, nil
}

// OpenReader opens a v2 binary trace file for streaming access. The
// caller must Close the Reader to release the file. v1 files are
// rejected (they carry no index; load them with LoadBinaryFile).
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader opens a v2 binary trace held by src (size bytes) for
// streaming access. Close is a no-op for readers constructed this way.
func NewReader(src io.ReaderAt, size int64) (*Reader, error) {
	if size < 8+v2TrailerSize {
		return nil, fmt.Errorf("trace: file too short (%d bytes) for a v2 binary trace", size)
	}
	var head [8]byte
	if _, err := src.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("trace: binary header: %w", err)
	}
	if head != binaryMagicV2 {
		if head == binaryMagic {
			return nil, fmt.Errorf("trace: v1 binary trace has no seekable index; load it with LoadBinaryFile")
		}
		return nil, unknownMagicError(head)
	}
	var trailer [v2TrailerSize]byte
	if _, err := src.ReadAt(trailer[:], size-v2TrailerSize); err != nil {
		return nil, fmt.Errorf("trace: v2 trailer: %w", err)
	}
	var tail [8]byte
	copy(tail[:], trailer[8:])
	if tail != binaryMagicV2 {
		return nil, fmt.Errorf("trace: truncated v2 binary trace (no trailing magic)")
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerOff < 8 || footerOff > size-v2TrailerSize {
		return nil, fmt.Errorf("trace: v2 footer offset %d out of range", footerOff)
	}
	r := &Reader{src: src, footerOff: footerOff, size: size}

	// Meta block. Its reader is reused for the footer.
	br := bufio.NewReader(io.NewSectionReader(src, 8, footerOff-8))
	d := &sectionDecoder{br: br}
	var err error
	if r.meta.Pattern, err = d.string(); err != nil {
		return nil, fmt.Errorf("trace: v2 meta: %w", err)
	}
	ints := make([]int64, 4)
	for i := range ints {
		if ints[i], err = d.varint(); err != nil {
			return nil, fmt.Errorf("trace: v2 meta: %w", err)
		}
	}
	r.meta.Procs = int(ints[0])
	r.meta.Nodes = int(ints[1])
	r.meta.Iterations = int(ints[2])
	r.meta.MsgSize = int(ints[3])
	var bits [8]byte
	if _, err := io.ReadFull(d.br, bits[:]); err != nil {
		return nil, fmt.Errorf("trace: v2 meta: %w", err)
	}
	r.meta.NDPercent = math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
	if r.meta.Seed, err = d.varint(); err != nil {
		return nil, fmt.Errorf("trace: v2 meta: %w", err)
	}
	if r.meta.Procs < 0 || r.meta.Procs > 1<<22 {
		return nil, fmt.Errorf("trace: unreasonable proc count %d", r.meta.Procs)
	}

	if err := r.readFooter(br); err != nil {
		return nil, err
	}
	r.buildSharedIndex()
	return r, nil
}

// buildSharedIndex registers every block offset referenced by more than
// one rank for cross-cursor payload caching.
func (r *Reader) buildSharedIndex() {
	counts := make(map[int64]int)
	for i := range r.ranks {
		for _, s := range r.ranks[i].segs {
			counts[s.off]++
		}
	}
	for i := range r.ranks {
		for _, s := range r.ranks[i].segs {
			if counts[s.off] < 2 {
				continue
			}
			if r.shared == nil {
				r.shared = make(map[int64]*sharedBlock)
			}
			if r.shared[s.off] == nil {
				r.shared[s.off] = &sharedBlock{refs: counts[s.off], left: counts[s.off]}
			}
		}
	}
}

// readFooter inflates, through br, and parses the dictionary and rank
// index.
func (r *Reader) readFooter(br *bufio.Reader) error {
	section := r.size - v2TrailerSize - r.footerOff
	br.Reset(io.NewSectionReader(r.src, r.footerOff, section))
	// A corrupted raw-length claim is bounded by DEFLATE's worst-case
	// expansion of the compressed bytes actually present in the section.
	payload, err := inflateFrame(br, nil, 0, 1040*section+64, section)
	if err != nil {
		return fmt.Errorf("trace: v2 footer: %w", err)
	}
	d := &sectionDecoder{br: bytes.NewReader(payload)}

	nKeys, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("trace: v2 dictionary: %w", err)
	}
	if nKeys > 1<<22 {
		return fmt.Errorf("trace: unreasonable callstack table size %d", nKeys)
	}
	sorted := make([]string, nKeys)
	prev := ""
	for i := range sorted {
		p, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("trace: v2 dictionary: %w", err)
		}
		if p > uint64(len(prev)) {
			return fmt.Errorf("trace: v2 dictionary entry %d: prefix %d exceeds predecessor length %d", i, p, len(prev))
		}
		suffix, err := d.string()
		if err != nil {
			return fmt.Errorf("trace: v2 dictionary: %w", err)
		}
		sorted[i] = prev[:p] + suffix
		prev = sorted[i]
	}
	r.keys = make([]string, nKeys)
	r.frames = make([][]string, nKeys)
	for i := range r.keys {
		p, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("trace: v2 dictionary: %w", err)
		}
		if p >= nKeys {
			return fmt.Errorf("trace: v2 dictionary permutation entry %d out of table", p)
		}
		r.keys[i] = sorted[p]
		if r.keys[i] != "(unknown)" {
			r.frames[i] = splitCallstackKey(r.keys[i])
		}
	}

	nRanks, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("trace: v2 rank index: %w", err)
	}
	if int(nRanks) != r.meta.Procs {
		return fmt.Errorf("trace: v2 rank index has %d ranks, meta declares %d", nRanks, r.meta.Procs)
	}
	r.ranks = make([]rankIndex, nRanks)
	for rank := range r.ranks {
		ri := &r.ranks[rank]
		events, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("trace: v2 rank index: %w", err)
		}
		if events > 1<<30 {
			return fmt.Errorf("trace: unreasonable event count %d", events)
		}
		sends, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("trace: v2 rank index: %w", err)
		}
		recvs, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("trace: v2 rank index: %w", err)
		}
		maxSendID, err := d.varint()
		if err != nil {
			return fmt.Errorf("trace: v2 rank index: %w", err)
		}
		// The counts size the graph builder's allocations before any
		// segment is decoded, so they must be consistent with each other
		// and with the bytes present: every event takes at least
		// v2MinEventBytes of payload, and DEFLATE expands a compressed
		// byte at most ~1032x (1040 as in the footer bound above).
		if sends > events || recvs > events-sends {
			return fmt.Errorf("trace: v2 rank %d: %d sends + %d recvs exceed %d events", rank, sends, recvs, events)
		}
		if maxSendID < -1 {
			return fmt.Errorf("trace: v2 rank %d: max send id %d below -1", rank, maxSendID)
		}
		if uint64(r.total)+events > uint64(r.footerOff-8)*1040/v2MinEventBytes {
			return fmt.Errorf("trace: v2 rank %d: %d events exceed what the %d-byte data section can hold",
				rank, uint64(r.total)+events, r.footerOff-8)
		}
		nSegs, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("trace: v2 rank index: %w", err)
		}
		if nSegs > events {
			return fmt.Errorf("trace: v2 rank %d: %d segments for %d events", rank, nSegs, events)
		}
		ri.events = int(events)
		ri.sends = int(sends)
		ri.recvs = int(recvs)
		ri.maxSendID = maxSendID
		ri.segs = make([]v2Segment, nSegs)
		var sum int
		for i := range ri.segs {
			off, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("trace: v2 rank index: %w", err)
			}
			count, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("trace: v2 rank index: %w", err)
			}
			if int64(off) < 8 || int64(off) >= r.footerOff {
				return fmt.Errorf("trace: v2 rank %d segment %d: offset %d out of data section", rank, i, off)
			}
			if count == 0 || count > events {
				return fmt.Errorf("trace: v2 rank %d segment %d: bad count %d", rank, i, count)
			}
			ri.segs[i] = v2Segment{off: int64(off), count: int(count)}
			sum += int(count)
			if int(count) > r.maxSeg {
				r.maxSeg = int(count)
			}
		}
		if sum != ri.events {
			return fmt.Errorf("trace: v2 rank %d: segments hold %d events, index declares %d", rank, sum, ri.events)
		}
		r.total += ri.events
	}
	return nil
}

// Meta returns the run description stored in the header.
func (r *Reader) Meta() Meta { return r.meta }

// Procs returns the number of ranks in the trace.
func (r *Reader) Procs() int { return len(r.ranks) }

// NumEvents returns the total event count across all ranks (from the
// footer, without decoding).
func (r *Reader) NumEvents() int { return r.total }

// RankCounts returns rank's footer entry: its event count, its counts
// of message-carrying sends and receives, and the largest MsgID among
// its sends (-1 if none). These are exactly the inputs the graph
// builder's layout needs.
func (r *Reader) RankCounts(rank int) (events, sends, recvs int, maxSendID int64) {
	ri := &r.ranks[rank]
	return ri.events, ri.sends, ri.recvs, ri.maxSendID
}

// Callstacks returns the distinct callstack keys in the trace, sorted —
// the same set Trace.Callstacks reports after materializing.
func (r *Reader) Callstacks() []string {
	keys := append([]string(nil), r.keys...)
	sort.Strings(keys)
	return keys
}

// Close releases the underlying file when the Reader was constructed by
// OpenReader; otherwise it is a no-op.
func (r *Reader) Close() error {
	if r.closer == nil {
		return nil
	}
	c := r.closer
	r.closer = nil
	return c.Close()
}

// blockRun names one run inside a block: the rank it belongs to and its
// event count.
type blockRun struct {
	rank, count int
}

// readBlockRuns parses a block's run list from br into runs (reused
// when capacity allows) and returns it with the block's total event
// count.
func readBlockRuns(r *Reader, br *bufio.Reader, off int64, runs []blockRun) ([]blockRun, int, error) {
	nRuns, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: v2 block at %d: %w", off, err)
	}
	if nRuns == 0 || nRuns > uint64(len(r.ranks)) {
		return nil, 0, fmt.Errorf("trace: v2 block at %d: %d runs for %d ranks", off, nRuns, len(r.ranks))
	}
	runs = slices.Grow(runs, int(nRuns))
	total := 0
	for i := 0; i < int(nRuns); i++ {
		rank, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("trace: v2 block at %d: %w", off, err)
		}
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, fmt.Errorf("trace: v2 block at %d: %w", off, err)
		}
		if count == 0 || count > 1<<30 {
			return nil, 0, fmt.Errorf("trace: v2 block at %d: bad run count %d", off, count)
		}
		runs = append(runs, blockRun{rank: int(rank), count: int(count)})
		total += int(count)
	}
	return runs, total, nil
}

// readBlock reads, parses, and inflates the block at off through br,
// which it re-points at the block's section. The run list is appended
// to runs and the payload inflated into dst, each reused when capacity
// allows; pass nil for fresh allocations the caller may retain.
func (r *Reader) readBlock(br *bufio.Reader, off int64, runs []blockRun, dst []byte) ([]blockRun, []byte, error) {
	br.Reset(io.NewSectionReader(r.src, off, r.footerOff-off))
	runs, total, err := readBlockRuns(r, br, off, runs)
	if err != nil {
		return nil, nil, err
	}
	// Every event takes at least v2MinEventBytes of payload.
	payload, err := inflateFrame(br, dst, int64(total)*v2MinEventBytes,
		int64(total)*v2MaxPayloadBytesPerEvent+64, r.footerOff-off)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: v2 block at %d: %w", off, err)
	}
	return runs, payload, nil
}

// sharedBlock caches one multi-rank block's inflated payload and run
// list across the cursors that reference it. The first cursor of a
// pass to arrive inflates; the rest reuse payload and run list without
// touching the file. refs is the number of consumers per pass (one per
// referencing rank) and left how many of them this pass still has to
// serve. When the last one has been served the cache empties itself, so
// a drained Reader pins no payload, and re-arms left for the next pass:
// every full pass over the Reader inflates each shared block once.
type sharedBlock struct {
	mu      sync.Mutex
	refs    int
	left    int
	loaded  bool
	err     error
	runs    []blockRun
	payload []byte
}

// acquire returns the block's payload and run list, inflating on the
// pass's first use through the acquiring cursor's reader br. The
// returned slices are immutable shared state, freshly allocated per
// inflate because other cursors may still be decoding an earlier one.
func (sb *sharedBlock) acquire(r *Reader, off int64, br *bufio.Reader) ([]byte, []blockRun, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if !sb.loaded {
		sb.runs, sb.payload, sb.err = r.readBlock(br, off, nil, nil)
		sb.loaded = true
	}
	payload, runs, err := sb.payload, sb.runs, sb.err
	sb.left--
	if sb.left <= 0 {
		sb.loaded, sb.runs, sb.payload, sb.err = false, nil, nil, nil
		sb.left = sb.refs
	}
	return payload, runs, err
}

// skipNVarintsAt advances off past n varints in p.
func skipNVarintsAt(p []byte, off, n int) (int, error) {
	for i := 0; i < n; i++ {
		for {
			if off >= len(p) {
				return 0, io.ErrUnexpectedEOF
			}
			b := p[off]
			off++
			if b < 0x80 {
				break
			}
		}
	}
	return off, nil
}

// skipRunAt advances off past one sibling run's columns (count kind
// bytes, then eight varint columns of count values) in p.
func skipRunAt(p []byte, off, count int) (int, error) {
	if off+count > len(p) {
		return 0, io.ErrUnexpectedEOF
	}
	return skipNVarintsAt(p, off+count, 8*count)
}

// segBuf holds one decoded segment: the column buffers plus the
// scratch (block reader, run list, inflate buffer) used to fill them.
// A cursor takes one from segBufPool for the life of its stream and
// returns it at the end (a cursor abandoned earlier leaves it to the
// garbage collector); all buffers are reused across loads.
type segBuf struct {
	n        int
	kinds    []byte
	peers    []int64
	tags     []int64
	sizes    []int64
	msgIDs   []int64
	chanSeqs []int64
	times    []int64
	lamports []int64
	stacks   []int32

	br      *bufio.Reader
	runs    []blockRun
	payload []byte
}

// segBufPool recycles cursor scratch across cursors and passes, in the
// manner of codec.go's inflater and buffer pools: a mesh run opens one
// cursor per rank for the embedding and again for the order hash, and
// each would otherwise allocate its own columns and 4 KiB block reader.
var segBufPool sync.Pool

// maxPooledPayload is the largest inflate buffer a pooled segBuf keeps:
// the payload bound of one full segment.
const maxPooledPayload = v2SegmentEvents*v2MaxPayloadBytesPerEvent + 64

func getSegBuf() *segBuf {
	if b, _ := segBufPool.Get().(*segBuf); b != nil {
		return b
	}
	return &segBuf{br: bufio.NewReader(nil)}
}

// putSegBuf returns b to the pool unless a segment larger than any
// writer produces grew it: an unusual or hostile archive must not pin
// large buffers in the pool.
func putSegBuf(b *segBuf) {
	if cap(b.kinds) > v2SegmentEvents || cap(b.payload) > maxPooledPayload {
		return
	}
	b.br.Reset(nil)
	segBufPool.Put(b)
}

// grow sizes every column to n, reallocating only when needed. A
// reallocation for a segment the writer can produce rounds the
// capacity up to a power of two, so a pooled buffer serves the next
// cursor's segment of similar size as it is; the seven int64 columns
// share one allocation.
func (b *segBuf) grow(n int) {
	if cap(b.kinds) < n {
		c := max(n, min(1<<bits.Len(uint(n-1)), v2SegmentEvents))
		b.kinds = make([]byte, c)
		b.stacks = make([]int32, c)
		cols := make([]int64, 7*c)
		for i, col := range []*[]int64{&b.peers, &b.tags, &b.sizes, &b.msgIDs, &b.chanSeqs, &b.times, &b.lamports} {
			*col = cols[i*c : (i+1)*c : (i+1)*c]
		}
	}
	b.kinds, b.stacks = b.kinds[:n], b.stacks[:n]
	b.peers, b.tags, b.sizes = b.peers[:n], b.tags[:n], b.sizes[:n]
	b.msgIDs, b.chanSeqs = b.msgIDs[:n], b.chanSeqs[:n]
	b.times, b.lamports = b.times[:n], b.lamports[:n]
}

// load decodes the block at seg into the buffer: rank's run lands in
// the column slices, sibling runs are varint-skipped. Shared blocks
// come inflated from the Reader's cache; private blocks are read and
// inflated into the segBuf's own scratch.
func (b *segBuf) load(r *Reader, rank int, seg v2Segment) error {
	var payload []byte
	var runs []blockRun
	var err error
	if sh := r.shared[seg.off]; sh != nil {
		payload, runs, err = sh.acquire(r, seg.off, b.br)
	} else {
		b.runs, b.payload, err = r.readBlock(b.br, seg.off, b.runs[:0], b.payload)
		payload, runs = b.payload, b.runs
	}
	if err != nil {
		return err
	}

	myIdx := -1
	for i, run := range runs {
		if run.rank != rank {
			continue
		}
		if myIdx != -1 {
			return fmt.Errorf("trace: v2 block at %d: rank %d appears twice", seg.off, rank)
		}
		if run.count != seg.count {
			return fmt.Errorf("trace: v2 block at %d: run count %d, index says %d", seg.off, run.count, seg.count)
		}
		myIdx = i
	}
	if myIdx == -1 {
		return fmt.Errorf("trace: v2 block at %d: no run for rank %d", seg.off, rank)
	}

	off := 0
	for i := 0; i < myIdx; i++ {
		if off, err = skipRunAt(payload, off, runs[i].count); err != nil {
			return fmt.Errorf("trace: v2 block at %d: skipping rank %d run: %w", seg.off, runs[i].rank, err)
		}
	}
	n := seg.count
	// Every event takes at least v2MinEventBytes of payload, so a run
	// the payload cannot hold is rejected before any column grows.
	if off+n*v2MinEventBytes > len(payload) {
		return fmt.Errorf("trace: v2 segment at %d: %d events need at least %d payload bytes, %d remain: %w",
			seg.off, n, n*v2MinEventBytes, len(payload)-off, io.ErrUnexpectedEOF)
	}
	b.grow(n)
	copy(b.kinds, payload[off:off+n])
	off += n
	for _, col := range []struct {
		vals  []int64
		delta bool
		name  string
	}{
		{b.peers, false, "peers"},
		{b.tags, false, "tags"},
		{b.sizes, false, "sizes"},
		{b.msgIDs, true, "msg ids"},
		{b.chanSeqs, true, "chan seqs"},
		{b.times, true, "times"},
		{b.lamports, true, "lamports"},
	} {
		var prev int64
		for i := 0; i < n; i++ {
			v, w := binary.Varint(payload[off:])
			if w <= 0 {
				return fmt.Errorf("trace: v2 segment at %d: %s: malformed varint", seg.off, col.name)
			}
			off += w
			if col.delta {
				prev += v
				col.vals[i] = prev
			} else {
				col.vals[i] = v
			}
		}
	}
	for i := 0; i < n; i++ {
		si, w := binary.Uvarint(payload[off:])
		if w <= 0 {
			return fmt.Errorf("trace: v2 segment at %d: stacks: malformed varint", seg.off)
		}
		off += w
		if si >= uint64(len(r.keys)) {
			return fmt.Errorf("trace: callstack index %d out of table", si)
		}
		b.stacks[i] = int32(si)
	}
	for i := myIdx + 1; i < len(runs); i++ {
		if off, err = skipRunAt(payload, off, runs[i].count); err != nil {
			return fmt.Errorf("trace: v2 block at %d: skipping rank %d run: %w", seg.off, runs[i].rank, err)
		}
	}
	if off != len(payload) {
		return fmt.Errorf("trace: v2 block at %d: %d trailing payload bytes", seg.off, len(payload)-off)
	}
	b.n = n
	return nil
}

// Cursor returns a fresh streaming cursor over rank's events. Multiple
// cursors (of the same or different ranks) may be used concurrently.
func (r *Reader) Cursor(rank int) *Cursor {
	c := &Cursor{r: r, rank: rank}
	if rank < 0 || rank >= len(r.ranks) {
		c.err = fmt.Errorf("trace: cursor rank %d out of range [0,%d)", rank, len(r.ranks))
	}
	return c
}

// Cursor streams one rank's events in sequence order, decoding one
// segment of columns at a time, or, for a cursor from Trace.Cursor,
// copying them from the in-memory stream evs (r == nil).
type Cursor struct {
	r      *Reader
	evs    []Event
	rank   int
	segIdx int
	pos    int
	seq    int
	err    error
	cur    *segBuf
}

// Err returns the first decode error the cursor hit, or nil.
func (c *Cursor) Err() error { return c.err }

// nextSegment decodes the next segment into the cursor's buffer. It
// returns false at end-of-stream or on error (recorded in c.err), and
// then hands the buffer back to segBufPool: the stream is over, and
// Next never reads it again.
func (c *Cursor) nextSegment() bool {
	segs := c.r.ranks[c.rank].segs
	if c.segIdx < len(segs) {
		if c.cur == nil {
			c.cur = getSegBuf()
		}
		c.err = c.cur.load(c.r, c.rank, segs[c.segIdx])
	}
	if c.segIdx >= len(segs) || c.err != nil {
		if c.cur != nil {
			putSegBuf(c.cur)
			c.cur = nil
		}
		return false
	}
	c.segIdx++
	c.pos = 0
	return true
}

// Next decodes the next event into *ev and reports whether one was
// available. After Next returns false, Err distinguishes end-of-stream
// from a decode failure. The event's Callstack (and cached key) alias
// the Reader's dictionary and must be treated as immutable.
func (c *Cursor) Next(ev *Event) bool {
	if c.err != nil {
		return false
	}
	if c.r == nil {
		if c.pos == len(c.evs) {
			return false
		}
		*ev = c.evs[c.pos]
		c.pos++
		return true
	}
	for c.cur == nil || c.pos == c.cur.n {
		if !c.nextSegment() {
			return false
		}
	}
	b := c.cur
	i := c.pos
	*ev = Event{
		Rank:    c.rank,
		Seq:     c.seq,
		Kind:    EventKind(b.kinds[i]),
		Peer:    int(b.peers[i]),
		Tag:     int(b.tags[i]),
		Size:    int(b.sizes[i]),
		MsgID:   b.msgIDs[i],
		ChanSeq: int(b.chanSeqs[i]),
		Time:    vtime.Time(b.times[i]),
		Lamport: b.lamports[i],
	}
	if si := b.stacks[i]; c.r.frames[si] != nil {
		ev.Callstack = c.r.frames[si]
		ev.ckey = c.r.keys[si]
	}
	c.pos++
	c.seq++
	return true
}

// OrderHash streams the communication-structure hash of the trace —
// identical to materializing it and calling Trace.OrderHash.
func (r *Reader) OrderHash() (uint64, error) { return orderHash(r) }

// ToTrace materializes the full *Trace and validates it — the v2 analog
// of ReadBinary's v1 path.
func (r *Reader) ToTrace() (*Trace, error) {
	t := New(r.meta)
	var ev Event
	for rank := range r.ranks {
		if n := r.ranks[rank].events; n > 0 {
			t.Events[rank] = make([]Event, 0, n)
		}
		c := r.Cursor(rank)
		for c.Next(&ev) {
			t.Append(ev)
		}
		if err := c.Err(); err != nil {
			return nil, err
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: binary trace invalid: %w", err)
	}
	return t, nil
}

// FooterStats summarizes a v2 file's index for inspection tooling.
type FooterStats struct {
	// Ranks is the rank count; Segments the total segment count.
	Ranks, Segments int
	// Events is the total event count; MaxSegmentEvents the largest
	// single segment.
	Events, MaxSegmentEvents int
	// Sends and Recvs count message-carrying send and receive events.
	Sends, Recvs int
	// DictEntries is the callstack dictionary size.
	DictEntries int
	// DataBytes is the size of the segment section, FooterBytes of the
	// footer (dictionary + rank index), FileBytes of the whole file.
	DataBytes, FooterBytes, FileBytes int64
}

// Stats returns the file's footer statistics.
func (r *Reader) Stats() FooterStats {
	st := FooterStats{
		Ranks:            len(r.ranks),
		Events:           r.total,
		MaxSegmentEvents: r.maxSeg,
		DictEntries:      len(r.keys),
		DataBytes:        r.footerOff - 8,
		FooterBytes:      r.size - v2TrailerSize - r.footerOff,
		FileBytes:        r.size,
	}
	for i := range r.ranks {
		st.Segments += len(r.ranks[i].segs)
		st.Sends += r.ranks[i].sends
		st.Recvs += r.ranks[i].recvs
	}
	return st
}
