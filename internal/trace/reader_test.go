package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

// oversizedRunArchive hand-builds a one-rank v2 archive whose footer
// and block header both declare a segment of n events over a 16-byte
// payload. Every footer check passes: the long pattern string makes the
// data section big enough to hold n events as far as the index can
// tell. Only the segment decode can see that the payload cannot.
func oversizedRunArchive(t *testing.T, n int) []byte {
	t.Helper()
	var file []byte
	file = append(file, binaryMagicV2[:]...)
	file = binary.AppendUvarint(file, 1024)
	file = append(file, strings.Repeat("p", 1024)...)
	for _, v := range []int64{1, 1, 1, 1} { // procs, nodes, iterations, msg size
		file = binary.AppendVarint(file, v)
	}
	file = binary.LittleEndian.AppendUint64(file, math.Float64bits(0))
	file = binary.AppendVarint(file, 1) // seed

	frame := func(dst, raw []byte) []byte {
		c, err := getCompressor(1)
		if err != nil {
			t.Fatal(err)
		}
		defer putCompressor(c)
		comp, err := c.compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		dst = binary.AppendUvarint(dst, uint64(len(raw)))
		dst = binary.AppendUvarint(dst, uint64(len(comp)))
		return append(dst, comp...)
	}

	blockOff := len(file)
	file = binary.AppendUvarint(file, 1) // one run: rank 0, n events
	file = binary.AppendUvarint(file, 0)
	file = binary.AppendUvarint(file, uint64(n))
	file = frame(file, make([]byte, 16))

	footerOff := len(file)
	var footer []byte
	footer = binary.AppendUvarint(footer, 0) // no callstacks
	footer = binary.AppendUvarint(footer, 1) // one rank
	footer = binary.AppendUvarint(footer, uint64(n))
	footer = binary.AppendUvarint(footer, 0) // sends
	footer = binary.AppendUvarint(footer, 0) // recvs
	footer = binary.AppendVarint(footer, -1)
	footer = binary.AppendUvarint(footer, 1) // one segment
	footer = binary.AppendUvarint(footer, uint64(blockOff))
	footer = binary.AppendUvarint(footer, uint64(n))
	file = frame(file, footer)
	file = binary.LittleEndian.AppendUint64(file, uint64(footerOff))
	return append(file, binaryMagicV2[:]...)
}

// TestSegmentLoadRejectsRunPayloadCannotHold pins that a segment is
// checked against its payload before any column buffer grows: a
// crafted archive declaring a ~100k-event segment over 16 payload bytes
// must fail without allocating anything close to the declared size.
func TestSegmentLoadRejectsRunPayloadCannotHold(t *testing.T) {
	const n = 100_000
	data := oversizedRunArchive(t, n)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("the footer checks were meant to pass: %v", err)
	}
	// The first attempt may refill pools a GC emptied; the least of a
	// few attempts is the load's own allocation.
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for attempt := 0; attempt < 3; attempt++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var ev Event
		c := r.Cursor(0)
		if c.Next(&ev) || c.Err() == nil {
			t.Fatal("a segment the payload cannot hold decoded without error")
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	if limit := uint64(4 * len(data)); least > limit && !raceEnabled {
		t.Errorf("failed load allocated %d bytes for a %d-byte file (limit %d)", least, len(data), limit)
	}
}

// TestSegBufPoolKeepsOnlyBoundedBuffers pins that cursor scratch grown
// past anything a writer produces is dropped, not pooled.
func TestSegBufPoolKeepsOnlyBoundedBuffers(t *testing.T) {
	big := &segBuf{br: bufio.NewReader(nil)}
	big.grow(v2SegmentEvents + 1)
	putSegBuf(big)
	for {
		b, _ := segBufPool.Get().(*segBuf)
		if b == nil {
			break
		}
		if b == big {
			t.Fatal("a segBuf with more than v2SegmentEvents of column capacity was pooled")
		}
	}

	small := &segBuf{br: bufio.NewReader(nil)}
	small.grow(v2SegmentEvents)
	if cap(small.kinds) != v2SegmentEvents || cap(small.peers) != v2SegmentEvents {
		t.Fatalf("a full segment grew columns to %d/%d, want %d", cap(small.kinds), cap(small.peers), v2SegmentEvents)
	}
}
