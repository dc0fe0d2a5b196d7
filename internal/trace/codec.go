package trace

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Codec substrate for the v2 binary format: the one tunable knob
// (CodecOptions) and the process-wide pools that keep DEFLATE contexts
// out of the per-segment allocation path. Every block is compressed
// inline on the goroutine that appends to the writer; callers that want
// parallelism run one writer per run (the campaign and core run pools).

// CodecOptions tunes how a v2 trace encoder compresses segment and
// footer payloads. The zero value is the format default: BestSpeed
// DEFLATE. Level is the only option, and the only one that changes the
// archived bytes.
type CodecOptions struct {
	// Level is the DEFLATE level for every compressed frame. 0 means
	// the format default (flate.BestSpeed); any other value is handed
	// to compress/flate verbatim, so flate.HuffmanOnly (-2) through
	// flate.BestCompression (9) select the usual speed/size trade.
	// (flate.NoCompression is not reachable — an uncompressed archive
	// has no use here, and 0 keeps the zero value meaning "default".)
	Level int
}

// Validate reports options no encoder accepts, so a command can reject
// them before simulating anything to encode.
func (o CodecOptions) Validate() error {
	_, err := o.level()
	return err
}

// level validates the options and resolves the default level.
func (o CodecOptions) level() (int, error) {
	level := o.Level
	if level == 0 {
		level = flate.BestSpeed
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return 0, fmt.Errorf("trace: codec level %d out of range [%d,%d]",
			o.Level, flate.HuffmanOnly, flate.BestCompression)
	}
	return level, nil
}

// compressor is one reusable DEFLATE context: a flate.Writer pinned to
// a level plus the buffer it compresses into. Pooled so steady-state
// encoding allocates neither: a fresh flate.Writer alone is 1,171 KiB of
// window and hash-chain state at BestSpeed (715 KiB at HuffmanOnly,
// 787 KiB at levels 2–9, measured with Go 1.24's compress/flate),
// which is why a writer holds one, from its first block until Close.
type compressor struct {
	level int
	fw    *flate.Writer
	buf   bytes.Buffer
}

var compressorPool sync.Pool

// getCompressor returns a pooled compressor for level. A pooled context
// carrying a different level is re-armed rather than discarded — the
// flate.Writer is the expensive part only when the level matches.
func getCompressor(level int) (*compressor, error) {
	c, _ := compressorPool.Get().(*compressor)
	if c == nil {
		c = &compressor{}
	}
	if c.fw == nil || c.level != level {
		fw, err := flate.NewWriter(&c.buf, level)
		if err != nil {
			compressorPool.Put(c)
			return nil, err
		}
		c.fw, c.level = fw, level
	}
	return c, nil
}

func putCompressor(c *compressor) {
	if c == nil {
		return
	}
	c.buf.Reset()
	compressorPool.Put(c)
}

// compress DEFLATEs p into the context's buffer and returns the
// compressed bytes, valid until the next compress or release.
func (c *compressor) compress(p []byte) ([]byte, error) {
	c.buf.Reset()
	c.fw.Reset(&c.buf)
	if _, err := c.fw.Write(p); err != nil {
		return nil, err
	}
	if err := c.fw.Close(); err != nil {
		return nil, err
	}
	return c.buf.Bytes(), nil
}

// inflaterPool recycles flate readers: flate.NewReader allocates ~40 KiB
// of window per call, which the old per-frame construction paid for
// every segment of every cursor. Every reader the stdlib returns
// implements flate.Resetter.
var inflaterPool sync.Pool

func getInflater(r io.Reader) io.ReadCloser {
	if rc, ok := inflaterPool.Get().(io.ReadCloser); ok {
		if err := rc.(flate.Resetter).Reset(r, nil); err == nil {
			return rc
		}
	}
	return flate.NewReader(r)
}

func putInflater(rc io.ReadCloser) {
	rc.Close() //nolint:errcheck // releasing a decode context; stream errors already surfaced
	inflaterPool.Put(rc)
}
