package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/anacin-go/anacinx/internal/trace"
)

// span is one timed stage of the traced replica. Spans of one op share
// Op; spans of one simulated run (or, for verify-sweep, one verified
// configuration) share Run, which is -1 for op-level stages.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the span has no parent
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Run    int    `json:"run"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Calls > 0 marks an aggregate of that many calls made inside the
	// parent span: Start is the first call's start and End-Start their
	// summed time, so the interval itself is not a real one.
	Calls  int              `json:"calls,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the replica runs stages on several goroutines. Spans
// are stored in fixed-size chunks, so recording one never copies the
// spans recorded before it.
type tracer struct {
	epoch  time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	chunks [][]span
}

const spanChunk = 4096

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	span
}

// begin starts a span under parent (0 for none).
func (t *tracer) begin(name string, parent, op, run int) *openSpan {
	return &openSpan{t: t, span: span{
		ID: int(t.ids.Add(1)), Parent: parent, Name: name, Op: op, Run: run, Start: t.now(),
	}}
}

// count attaches a count measured at this span's boundary.
func (o *openSpan) count(name string, v int64) {
	if o.Counts == nil {
		o.Counts = make(map[string]int64, 4)
	}
	o.Counts[name] = v
}

// end closes the span and records it.
func (o *openSpan) end() {
	o.End = o.t.now()
	o.t.record(o.span)
}

// aggregate records calls summed into one span under parent.
func (t *tracer) aggregate(name string, parent, op, run int, first int64, total time.Duration, calls int) {
	t.record(span{
		ID: int(t.ids.Add(1)), Parent: parent, Name: name, Op: op, Run: run,
		Start: first, End: first + int64(total), Calls: calls,
	})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, s)
	t.mu.Unlock()
}

// all returns every recorded span in ID order.
func (t *tracer) all() []span {
	t.mu.Lock()
	var spans []span
	for _, c := range t.chunks {
		spans = append(spans, c...)
	}
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	return spans
}

// writeJSONL writes spans, one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSink is the benchmark's trace.EventSink: it forwards each event
// to a trace.StreamWriter and sums the time spent inside Append. The
// simulator calls a sink from one rank at a time, so no locking.
type timedSink struct {
	t     *tracer
	sw    *trace.StreamWriter
	first int64
	total time.Duration
	calls int
}

func (s *timedSink) Append(e trace.Event) {
	t0 := time.Now()
	if s.calls == 0 {
		s.first = int64(t0.Sub(s.t.epoch))
	}
	s.sw.Append(e)
	s.total += time.Since(t0)
	s.calls++
}

// unitSpan names the spans stage coverage is measured over: a simulated
// run, or one verified configuration.
func unitSpan(name string) bool { return name == "run" || name == "verify.config" }

// opLayers derives the per-layer metrics of one op from its spans.
// runWorkers is the op's run concurrency (the core.run_busy_frac base).
// It also returns the summed span time of the op's runs (or verified
// configurations) and how much of it their stage spans cover; the
// caller sums both over the whole traced run.
func opLayers(spans []span, runWorkers int) (m map[string]float64, coveredTotal, unitTotal int64) {
	sum := make(map[string]int64)    // summed duration by span name
	n := make(map[string]int64)      // span count by name
	counts := make(map[string]int64) // summed counts by "span.count"
	maxCount := make(map[string]int64)
	children := make(map[int][]*span)
	var op *span
	var units []*span
	for i := range spans {
		s := &spans[i]
		sum[s.Name] += s.dur()
		n[s.Name]++
		for k, v := range s.Counts {
			counts[s.Name+"."+k] += v
			if v > maxCount[s.Name+"."+k] {
				maxCount[s.Name+"."+k] = v
			}
		}
		children[s.Parent] = append(children[s.Parent], s)
		switch {
		case s.Name == "op":
			op = s
		case unitSpan(s.Name):
			units = append(units, s)
		}
	}
	ms := func(name string) float64 { return float64(sum[name]) / 1e6 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	simEvents := counts["sim.run.events"]
	nodes := counts["graph.build.nodes"]
	m = map[string]float64{
		"patterns.program_ms":           ms("patterns.program"),
		"sim.run_ms":                    ms("sim.run"),
		"sim.self_ms":                   float64(sum["sim.run"]-sum["trace.append"]) / 1e6,
		"sim.ns_per_event":              ratio(sum["sim.run"], simEvents),
		"sim.events":                    float64(simEvents),
		"sim.messages":                  float64(counts["sim.run.messages"]),
		"sim.delayed":                   float64(counts["sim.run.delayed"]),
		"trace.append_ms":               ms("trace.append"),
		"trace.close_ms":                ms("trace.close"),
		"trace.open_ms":                 ms("trace.open"),
		"trace.order_hash_ms":           ms("trace.order_hash"),
		"trace.archive_bytes":           float64(counts["trace.close.archive_bytes"]),
		"trace.archive_bytes_per_event": ratio(counts["trace.close.archive_bytes"], simEvents),
		"trace.segments":                float64(counts["trace.open.segments"]),
		"trace.dict_entries":            float64(maxCount["trace.open.dict_entries"]),
		"graph.build_ms":                ms("graph.build"),
		"graph.ns_per_node":             ratio(sum["graph.build"], nodes),
		"graph.nodes":                   float64(nodes),
		"graph.edges":                   float64(counts["graph.build.edges"]),
		"kernel.embed_ms":               ms("kernel.embed"),
		"kernel.gram_ms":                ms("kernel.gram"),
		"kernel.features":               ratio(counts["kernel.embed.features"], n["kernel.embed"]),
		"kernel.stream_max_window":      float64(maxCount["kernel.embed.window"]),
		"analysis.summarize_ms":         ms("analysis.summarize"),
		"verify.elaborate_ms":           ms("verify.elaborate"),
		"verify.analyze_ms":             ms("verify.analyze"),
		"verify.count_ms":               ms("verify.count"),
		"verify.ops":                    float64(counts["verify.elaborate.ops"]),
		"verify.configs":                float64(n["verify.config"]),
		"verify.race_slots":             float64(counts["verify.count.race_slots"]),
		"core.run_busy_frac":            0,
		"core.run_skew":                 0,
	}

	runDurs := make([]float64, 0, len(units))
	var runTotal int64
	for _, u := range units {
		unitTotal += u.dur()
		coveredTotal += covered(u, children[u.ID])
		if u.Name == "run" {
			runDurs = append(runDurs, float64(u.dur()))
			runTotal += u.dur()
		}
	}
	if op != nil && len(runDurs) > 0 {
		m["core.run_busy_frac"] = float64(runTotal) / (float64(op.dur()) * float64(runWorkers))
		m["core.run_skew"] = maxOf(runDurs) / quantile(runDurs, 0.5)
	}
	return m, coveredTotal, unitTotal
}

// covered returns how much of u's interval its child stage spans cover
// (aggregate spans excluded: their intervals are not real ones).
func covered(u *span, kids []*span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		if k.Calls > 0 {
			continue
		}
		lo, hi := max(k.Start, u.Start), min(k.End, u.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64 = 0, u.Start
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			end = v.hi
		}
	}
	return total
}
