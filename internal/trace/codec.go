package trace

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Codec substrate for the v2 binary format: the tunable knobs
// (CodecOptions), the process-wide pools that keep DEFLATE contexts and
// segment scratch buffers out of the per-segment allocation path, and
// the pipelined compression stage the StreamWriter hands segments to
// when it is asked for more than one codec worker.
//
// The parallelism is invisible in the output: every segment block is an
// independent compression context (the writer calls flate.Writer.Reset
// per block), so compressing blocks on N workers produces exactly the
// bytes the serial path produces, and the ordered drain writes them in
// submission order at the offsets the serial path would have chosen.
// Byte-identity across worker counts — including the inline default,
// which skips the pipeline entirely — is pinned by
// TestArchiveBytesIdenticalAcrossCodecWorkers.

// CodecOptions tunes how a v2 trace encoder compresses segment and
// footer payloads. The zero value is the format default: BestSpeed
// DEFLATE, compressed inline on the Append path with no goroutines.
type CodecOptions struct {
	// Level is the DEFLATE level for every compressed frame. 0 means
	// the format default (flate.BestSpeed); any other value is handed
	// to compress/flate verbatim, so flate.HuffmanOnly (-2) through
	// flate.BestCompression (9) select the usual speed/size trade.
	// (flate.NoCompression is not reachable — an uncompressed archive
	// has no use here, and 0 keeps the zero value meaning "default".)
	// The level changes the archived bytes; the worker count never does.
	Level int
	// Workers bounds the segment-compression pipeline. 0 (the default)
	// and 1 compress inline on the Append path with one pooled DEFLATE
	// context and no extra goroutines; every writer in the program
	// runs this way. N > 1 moves DEFLATE onto N goroutines, each
	// holding one pooled context from its first block until Close,
	// with a sequence-numbered reorder before the file writer; only an
	// explicit WriteBinaryV2Options call (the trace-encode/*-par4 bench
	// scenario) asks for it. Negative values mean 0. Output bytes are
	// identical for every worker count.
	Workers int
}

// Validate reports options no encoder accepts, so a command can reject
// them before simulating anything to encode.
func (o CodecOptions) Validate() error {
	_, _, err := o.resolve()
	return err
}

// resolve validates the options and fills defaults.
func (o CodecOptions) resolve() (level, workers int, err error) {
	level = o.Level
	if level == 0 {
		level = flate.BestSpeed
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return 0, 0, fmt.Errorf("trace: codec level %d out of range [%d,%d]",
			o.Level, flate.HuffmanOnly, flate.BestCompression)
	}
	workers = max(o.Workers, 1)
	return level, workers, nil
}

// compressor is one reusable DEFLATE context: a flate.Writer pinned to
// a level plus the buffer it compresses into. Pooled so steady-state
// encoding allocates neither: a fresh flate.Writer alone is 1,171 KiB of
// window and hash-chain state at BestSpeed (715 KiB at HuffmanOnly,
// 787 KiB at levels 2–9, measured with Go 1.24's compress/flate),
// which is why a writer holds as few as it can.
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

// bufPool recycles the byte slices the writer assembles raw segment
// payloads and block headers into. Slices that grew unreasonably large
// are dropped instead of parked.
var bufPool sync.Pool

const maxPooledBuf = 1 << 20

func getBuf() []byte {
	if p, ok := bufPool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return make([]byte, 0, 4096)
}

func putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// segRef names one run inside a block for the footer: rank and event
// count. The block's file offset is assigned when the block is written
// (only then is it known, on the pipelined path).
type segRef struct {
	rank, count int
}

// codecJob is one segment block travelling through the pipeline: the
// uncompressed header, the raw payload to DEFLATE, the footer refs to
// record at write time, and the compression result (a pooled buffer
// the drain recycles once the block is written).
type codecJob struct {
	header  []byte
	payload []byte
	refs    []segRef
	comp    []byte
	err     error
	done    chan struct{}
}

// codecPipeline compresses segment blocks on a bounded worker pool and
// writes them back in submission order. Submission order is carried by
// the buffered `ordered` channel; the drain goroutine owns the writer's
// file sink (and the footer segment lists) from the first submit until
// finish returns, which is also what bounds in-flight memory: submit
// blocks once 2×workers jobs are outstanding. Each worker holds one
// DEFLATE context for its lifetime and copies its output out, so a
// pipeline of N workers holds N contexts however many blocks wait on
// the drain.
type codecPipeline struct {
	sw      *StreamWriter
	jobs    chan *codecJob
	ordered chan *codecJob
	workers sync.WaitGroup
	drained chan struct{}
	err     error // first compression failure, read after finish
}

func newCodecPipeline(sw *StreamWriter, workers int) *codecPipeline {
	p := &codecPipeline{
		sw:      sw,
		jobs:    make(chan *codecJob, workers),
		ordered: make(chan *codecJob, 2*workers),
		drained: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		//anacin:allow goroutine codec workers compress already-assembled immutable payload buffers; they never touch simulation or writer state, and the ordered drain serializes all file writes
		go p.compressLoop()
	}
	//anacin:allow goroutine the drain goroutine is the single owner of the file sink between pipeline start and finish; ownership passes back to the caller at the finish() join
	go p.drain()
	return p
}

func (p *codecPipeline) compressLoop() {
	defer p.workers.Done()
	// The context is taken on the first job, so a pipeline that sees
	// fewer blocks than workers holds only as many contexts as blocks.
	var c *compressor
	defer func() { putCompressor(c) }()
	for job := range p.jobs {
		var err error
		if c == nil {
			c, err = getCompressor(p.sw.level)
		}
		if err == nil {
			var comp []byte
			comp, err = c.compress(job.payload)
			job.comp = append(getBuf(), comp...)
		}
		job.err = err
		close(job.done)
	}
}

// submit hands one block to the pipeline. The ordered send comes first
// so the drain sees jobs in exactly the order flushRanks produced them;
// it may block, which is the pipeline's backpressure.
func (p *codecPipeline) submit(job *codecJob) {
	p.ordered <- job
	p.jobs <- job
}

// drain writes completed blocks in submission order, recording their
// footer segments at the offsets the writes land on — the same offsets
// the serial path assigns, since the order and the bytes are the same.
func (p *codecPipeline) drain() {
	defer close(p.drained)
	for job := range p.ordered {
		<-job.done
		if p.err == nil && job.err != nil {
			p.err = job.err
		}
		if p.err == nil {
			p.sw.writeBlock(job.header, len(job.payload), job.comp, job.refs)
		}
		putBuf(job.comp)
		putBuf(job.header)
		putBuf(job.payload)
	}
}

// finish closes the pipeline, waits for every block to be compressed
// and written, and returns the first compression error. After finish,
// the caller owns the file sink again.
func (p *codecPipeline) finish() error {
	close(p.jobs)
	close(p.ordered)
	p.workers.Wait()
	<-p.drained
	return p.err
}
