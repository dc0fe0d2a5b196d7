// Command e2ebench is anacin-go's end-to-end benchmark. It drives the
// campaign pipeline (simulate, trace, graph or stream, embed, reduce)
// and the static verifier as closed loops at GOMAXPROCS = nproc, checks
// every op's output, and prints the end-to-end metrics. With -trace 1 it
// runs every op untraced and then re-drives it stage by stage through
// each layer's public functions, timing the calls from outside, and
// prints per-layer metrics derived from the recorded spans.
//
// Build and run it from the repository root with run.sh, e.g.
//
//	bash e2ebench/run.sh --workload race-1024 --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. See README.md for the workloads and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up (construct,
// then one warmup batch); setup_s is their median.
const setupReps = 3

// minBatches is the fewest timed batches a run makes, however short.
const minBatches = 3

// minCoverage is the share of the run spans' summed time, over the
// whole traced run, that their stage spans must cover. It is not checked
// per op: a verify-sweep op lasts tens of milliseconds, so one pause of
// the process between two of its stage spans on a shared host can drop
// that op below the target without any stage going unmeasured.
const minCoverage = 0.95

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"events_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
	{"alloc_mib_per_op", "MiB"},
}

var perLayer = []metricDef{
	{"patterns.program_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.self_ms", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.events", "count"},
	{"sim.messages", "count"},
	{"sim.delayed", "count"},
	{"trace.append_ms", "ms"},
	{"trace.close_ms", "ms"},
	{"trace.open_ms", "ms"},
	{"trace.order_hash_ms", "ms"},
	{"trace.archive_bytes", "bytes"},
	{"trace.archive_bytes_per_event", "bytes"},
	{"trace.segments", "count"},
	{"trace.dict_entries", "count"},
	{"graph.build_ms", "ms"},
	{"graph.ns_per_node", "ns"},
	{"graph.nodes", "count"},
	{"graph.edges", "count"},
	{"kernel.embed_ms", "ms"},
	{"kernel.gram_ms", "ms"},
	{"kernel.features", "count"},
	{"kernel.stream_max_window", "count"},
	{"analysis.summarize_ms", "ms"},
	{"core.run_busy_frac", "ratio"},
	{"core.run_skew", "ratio"},
	{"campaign.cell_inflight", "ratio"},
	{"verify.elaborate_ms", "ms"},
	{"verify.analyze_ms", "ms"},
	{"verify.count_ms", "ms"},
	{"verify.ops", "count"},
	{"verify.configs", "count"},
	{"verify.race_slots", "count"},
	{"bench.trace_overhead", "ratio"},
	{"bench.stage_coverage", "ratio"},
}

// environment is recorded in every result.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	SetupReps  int     `json:"setup_reps"`
	Warmup     string  `json:"warmup"`
	Loop       string  `json:"loop"`
	Batches    int     `json:"batches"`
	Ops        int     `json:"ops"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result file a run writes.
type report struct {
	Schema   string             `json:"schema"`
	Env      environment        `json:"env"`
	Metrics  map[string]metric  `json:"metrics"`
	OpWallMS map[string]float64 `json:"op_wall_ms"` // distribution of op walls
	Failures []string           `json:"failures,omitempty"`
}

const schema = "anacinx-e2ebench/v1"

// line is the contract's last stdout line.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload, one of %v", workloadNames))
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 35, "measured seconds")
	traced := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "e2ebench-out"), "directory for result, span and archive files")
	commit := fs.String("commit", "unknown", "commit recorded in the result")
	expected := fs.String("write-expected", "", "regenerate the expected outputs at this path and exit")
	compare := fs.Bool("compare", false, "compare two result files given as arguments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2ebench: -compare takes two result files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *expected != "":
		if err := writeExpected(*expected, *out); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	}
	env := environment{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: *commit, SetupReps: setupReps,
		Warmup: "each setup rep ends with one untraced batch at seeds no timed batch uses",
		Loop:   "closed, one client",
	}
	rep, ln, err := bench(env, *out)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	printHuman(stdout, rep)
	if err := writeReport(rep, *out); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	enc, err := json.Marshal(ln)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !ln.Correct {
		return 1
	}
	return 0
}

// bench sets the workload up, runs its timed phase and derives the
// metrics.
func bench(env environment, dir string) (report, line, error) {
	exp, err := loadExpected()
	if err != nil {
		return report{}, line{}, fmt.Errorf("expected outputs: %w", err)
	}
	w, setupS, err := setUp(env.Workload, env.Seed, dir, exp)
	if err != nil {
		return report{}, line{}, err
	}
	defer w.close()

	var m measurement
	if env.Trace {
		if m, err = measureTraced(w, env, exp, dir); err != nil {
			return report{}, line{}, err
		}
	} else {
		m = measure(w, env, exp)
	}
	env.Batches, env.Ops = m.batches, len(m.opWalls)
	rep := report{Schema: schema, Env: env, Metrics: make(map[string]metric), Failures: m.failures}
	walls := m.opWalls
	rep.OpWallMS = map[string]float64{
		"n": float64(len(walls)), "p5": quantile(walls, 0.05), "p25": quantile(walls, 0.25),
		"p50": quantile(walls, 0.5), "p75": quantile(walls, 0.75), "p90": quantile(walls, 0.9),
		"p95": quantile(walls, 0.95),
	}
	values := m.layers
	if !env.Trace {
		busy := m.busy.Seconds()
		values = map[string]float64{
			"setup_s":          setupS,
			"op_p50_ms":        quantile(walls, 0.5),
			"op_p90_ms":        quantile(walls, 0.9),
			"ops_per_s":        float64(len(walls)) / busy,
			"events_per_s":     float64(m.events) / busy,
			"peak_rss_mib":     peakRSSMiB(),
			"alloc_mib_per_op": float64(m.allocBytes) / float64(len(walls)) / (1 << 20),
		}
	}
	defs := endToEnd
	if env.Trace {
		defs = perLayer
	}
	ln := line{Attempted: len(walls), Failed: len(m.failed), Metrics: make(map[string]metric)}
	for _, d := range defs {
		mt := metric{Value: values[d.name], Unit: d.unit}
		rep.Metrics[d.name] = mt
		ln.Metrics[d.name] = mt
	}
	if !env.Trace && m.archiveBytes > 0 {
		rep.Metrics["archive_bytes_per_event"] = metric{float64(m.archiveBytes) / float64(m.events), "bytes"}
	}
	rep.Metrics["failed_frac"] = metric{float64(len(m.failed)) / float64(len(walls)), "ratio"}
	ln.Correct = len(m.failed) == 0 && !m.invalid
	return rep, ln, nil
}

// setUp constructs the workload and warms it up, setupReps times, and
// returns the last one with the median set-up time.
func setUp(name string, seed int64, dir string, exp expectedOutputs) (workload, float64, error) {
	times := make([]float64, 0, setupReps)
	var w workload
	for r := 0; r < setupReps; r++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if w, err = newWorkload(name, seed, dir); err != nil {
			return nil, 0, err
		}
		b := -1 - r
		res := w.batch(b)
		times = append(times, time.Since(t0).Seconds())
		var m measurement
		if m.record(w, exp, name, seed, b, res); len(m.failures) > 0 {
			w.close()
			return nil, 0, fmt.Errorf("warmup: %s", m.failures[0])
		}
	}
	return w, quantile(times, 0.5), nil
}

// measurement is what a timed phase observed.
type measurement struct {
	batches      int
	opWalls      []float64 // ms
	busy         time.Duration
	events       int64
	archiveBytes int64
	allocBytes   uint64
	failed       map[[2]int]bool // (batch, op) of each failed op
	failures     []string        // the first few failures, for the reader
	invalid      bool            // the traced run missed its coverage target
	layers       map[string]float64
}

func (m *measurement) fail(b, i int, err error) {
	if m.failed == nil {
		m.failed = make(map[[2]int]bool)
	}
	m.failed[[2]int{b, i}] = true
	if len(m.failures) < 10 {
		m.failures = append(m.failures, fmt.Sprintf("batch %d op %d: %v", b, i, err))
	}
}

// record adds an untraced batch's ops and checks each.
func (m *measurement) record(w workload, exp expectedOutputs, name string, seed int64, b int, res batchResult) {
	m.batches++
	m.busy += res.wall
	for i, op := range res.ops {
		m.opWalls = append(m.opWalls, float64(op.wall)/1e6)
		m.events += op.events
		m.archiveBytes += op.out.ArchiveBytes
		err := res.err
		if err == nil {
			err = op.err
		}
		if err == nil {
			err = checkOp(w, exp, name, seed, b, i, op.out)
		}
		if err != nil {
			m.fail(b, i, err)
		}
	}
}

// measure is the untraced timed phase: batches back to back until the
// measured time is used up.
func measure(w workload, env environment, exp expectedOutputs) measurement {
	var m measurement
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for b := 0; b < minBatches || time.Since(start).Seconds() < env.Seconds; b++ {
		m.record(w, exp, env.Workload, env.Seed, b, w.batch(b))
	}
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return m
}

// measureTraced is the traced timed phase: each batch runs untraced,
// then through its replica, whose outputs must match. Per-layer metrics
// are medians over ops of each op's value.
func measureTraced(w workload, env environment, exp expectedOutputs, dir string) (measurement, error) {
	var m measurement
	tr := newTracer()
	var replicaWall time.Duration
	var inflight []float64
	start := time.Now()
	for b := 0; b < minBatches || time.Since(start).Seconds() < env.Seconds; b++ {
		res := w.batch(b)
		m.record(w, exp, env.Workload, env.Seed, b, res)
		if res.cellWall > 0 {
			inflight = append(inflight, float64(res.cellWall)/float64(res.wall))
		}
		t0 := time.Now()
		outs, err := w.replica(b, tr)
		replicaWall += time.Since(t0)
		if err != nil {
			for i := range res.ops {
				m.fail(b, i, fmt.Errorf("replica: %w", err))
			}
			continue
		}
		for i, op := range res.ops {
			err := checkOp(w, exp, env.Workload, env.Seed, b, i, outs[i])
			if err == nil && op.err == nil {
				err = sameOutput(op.out, outs[i])
			}
			if err != nil {
				m.fail(b, i, fmt.Errorf("replica: %w", err))
			}
		}
	}

	spans := tr.all()
	byOp := make(map[int][]span)
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	perOp := make(map[string][]float64)
	var coveredTotal, unitTotal int64
	for _, op := range ops {
		vals, cov, total := opLayers(byOp[op], w.runWorkers())
		coveredTotal += cov
		unitTotal += total
		for _, d := range perLayer {
			if v, ok := vals[d.name]; ok {
				perOp[d.name] = append(perOp[d.name], v)
			}
		}
	}
	m.layers = make(map[string]float64)
	for _, d := range perLayer {
		m.layers[d.name] = quantile(perOp[d.name], 0.5)
	}
	m.layers["campaign.cell_inflight"] = quantile(inflight, 0.5)
	m.layers["bench.trace_overhead"] = float64(replicaWall) / float64(m.busy)
	coverage := 1.0
	if unitTotal > 0 {
		coverage = float64(coveredTotal) / float64(unitTotal)
	}
	m.layers["bench.stage_coverage"] = coverage
	if coverage < minCoverage {
		m.invalid = true
		m.failures = append(m.failures, fmt.Sprintf("stage spans cover %.3f of the run spans, want >= %.2f", coverage, minCoverage))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return m, err
	}
	return m, writeJSONL(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", env.Workload, env.Seed)), spans)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printHuman(w io.Writer, rep report) {
	e := rep.Env
	fmt.Fprintf(w, "e2ebench %s seed=%d trace=%v nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		e.Workload, e.Seed, e.Trace, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
	fmt.Fprintf(w, "%d ops in %d batches; op wall ms: p5 %.3f p50 %.3f p90 %.3f p95 %.3f\n",
		e.Ops, e.Batches, rep.OpWallMS["p5"], rep.OpWallMS["p50"], rep.OpWallMS["p90"], rep.OpWallMS["p95"])
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
}

func writeReport(rep report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if rep.Env.Trace {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", rep.Env.Workload, rep.Env.Seed, t))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareReports prints each metric of two results side by side. It
// refuses results taken at different GOMAXPROCS, or of different
// workloads or modes.
func compareReports(oldPath, newPath string, stdout, stderr io.Writer) int {
	var reps [2]report
	for i, p := range []string{oldPath, newPath} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err == nil && reps[i].Schema != schema {
			err = fmt.Errorf("schema %q, want %q", reps[i].Schema, schema)
		}
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", p, err)
			return 2
		}
	}
	a, b := reps[0].Env, reps[1].Env
	switch {
	case a.GOMAXPROCS != b.GOMAXPROCS:
		fmt.Fprintf(stderr, "e2ebench: refusing to compare GOMAXPROCS %d with %d\n", a.GOMAXPROCS, b.GOMAXPROCS)
		return 2
	case a.Workload != b.Workload || a.Trace != b.Trace:
		fmt.Fprintf(stderr, "e2ebench: refusing to compare %s (trace %v) with %s (trace %v)\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return 2
	}
	fmt.Fprintf(stdout, "%s at GOMAXPROCS=%d: %s (seed %d) -> %s (seed %d)\n", a.Workload, a.GOMAXPROCS, a.Commit, a.Seed, b.Commit, b.Seed)
	names := make([]string, 0, len(reps[0].Metrics))
	for n := range reps[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o := reps[0].Metrics[n]
		nw, ok := reps[1].Metrics[n]
		if !ok {
			continue
		}
		ratio := "-"
		if o.Value != 0 {
			ratio = fmt.Sprintf("%.3fx", nw.Value/o.Value)
		}
		fmt.Fprintf(stdout, "  %-32s %14.6g %14.6g %8s %s\n", n, o.Value, nw.Value, ratio, o.Unit)
	}
	return 0
}
