package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

// WriteJSON serializes the trace as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadJSON parses a trace previously written with WriteJSON and
// validates it.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if t.Meta.Procs != len(t.Events) {
		return nil, fmt.Errorf("trace: meta declares %d procs but %d event streams present",
			t.Meta.Procs, len(t.Events))
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: invalid: %w", err)
	}
	return &t, nil
}

// SaveFile writes the trace to path as JSON.
func (t *Trace) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	if err := t.WriteJSON(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadFile reads a JSON trace from path.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(bufio.NewReader(f))
}

// Hash returns a 64-bit FNV-1a digest over the trace's semantic content
// (meta, event streams including matching and callstacks). Two runs with
// identical communication behaviour hash equal; any reordering of message
// matches changes the hash. Used by determinism tests and by the CLI to
// show at a glance whether two runs differed.
func (t *Trace) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		io.WriteString(h, s)
	}
	writeStr(t.Meta.Pattern)
	writeInt(int64(t.Meta.Procs))
	writeInt(int64(t.Meta.Nodes))
	writeInt(int64(t.Meta.Iterations))
	writeInt(int64(t.Meta.MsgSize))
	writeInt(int64(t.Meta.NDPercent * 1e6))
	writeInt(t.Meta.Seed)
	for _, evs := range t.Events {
		writeInt(int64(len(evs)))
		for i := range evs {
			e := &evs[i]
			writeInt(int64(e.Kind))
			writeInt(int64(e.Peer))
			writeInt(int64(e.Tag))
			writeInt(int64(e.Size))
			writeInt(e.MsgID)
			writeInt(int64(e.ChanSeq))
			writeInt(int64(e.Time))
			writeInt(e.Lamport)
			writeInt(int64(len(e.Callstack)))
			for _, f := range e.Callstack {
				writeStr(f)
			}
		}
	}
	return h.Sum64()
}

// OrderHash is like Hash but covers only the communication structure
// (kinds, peers, tags, and message matching), ignoring timestamps. Two
// runs whose messages matched identically have equal OrderHash even if
// virtual times differ; this is the quantity record-and-replay must
// preserve.
func (t *Trace) OrderHash() uint64 {
	h, _ := orderHash(t) // in-memory cursors cannot fail
	return h
}

// orderHash folds src's communication structure: per rank, the event
// count, then every event's kind, peer, tag and channel sequence.
func orderHash(src Source) (uint64, error) {
	h := uint64(fnvOffset64)
	var ev Event
	for rank := 0; rank < src.Procs(); rank++ {
		events, _, _, _ := src.RankCounts(rank)
		h = fnv64aInt(h, int64(events))
		c := src.Cursor(rank)
		for c.Next(&ev) {
			h = fnv64aInt(h, int64(ev.Kind))
			h = fnv64aInt(h, int64(ev.Peer))
			h = fnv64aInt(h, int64(ev.Tag))
			h = fnv64aInt(h, int64(ev.ChanSeq))
		}
		if err := c.Err(); err != nil {
			return 0, err
		}
	}
	return h, nil
}

// FNV-1a's 64-bit offset basis and prime (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64aInt folds v's eight little-endian bytes into the FNV-1a state
// h: the value hash/fnv's New64a reaches when those bytes are written.
func fnv64aInt(h uint64, v int64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		h ^= (uint64(v) >> shift) & 0xff
		h *= fnvPrime64
	}
	return h
}
