package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"github.com/anacin-go/anacinx/internal/analysis"
	"github.com/anacin-go/anacinx/internal/verify"
)

// output is what one op produces: the values its checks compare. The
// untraced race-1024 and mesh-sweep-stream ops yield no order hashes
// (RunCell and the Runner keep them internal); their replicas do.
type output struct {
	Summary      *analysis.Summary      `json:"summary,omitempty"`
	Distinct     int                    `json:"distinct_structures,omitempty"`
	ArchiveBytes int64                  `json:"archive_bytes,omitempty"`
	OrderHashes  []string               `json:"order_hashes,omitempty"`
	Verify       []verify.ConfigSummary `json:"verify,omitempty"`
	Gating       int                    `json:"gating"`
}

// sameOutput compares two outputs byte for byte in their JSON form;
// order hashes take part only when both sides carry them.
func sameOutput(want, got output) error {
	if want.OrderHashes == nil || got.OrderHashes == nil {
		want.OrderHashes, got.OrderHashes = nil, nil
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(w, g) {
		return fmt.Errorf("output mismatch:\n want %s\n  got %s", w, g)
	}
	return nil
}

// checkCell applies the invariants every campaign cell satisfies.
func checkCell(o output, runs int) error {
	s := o.Summary
	if s == nil {
		return fmt.Errorf("no summary")
	}
	if want := runs * (runs - 1) / 2; s.N != want {
		return fmt.Errorf("summary has %d pairs, want %d", s.N, want)
	}
	if !(0 <= s.Min && s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max) {
		return fmt.Errorf("summary quantiles out of order: %+v", *s)
	}
	if o.Distinct < 1 || o.Distinct > runs {
		return fmt.Errorf("%d distinct structures in %d runs", o.Distinct, runs)
	}
	if o.OrderHashes != nil && len(o.OrderHashes) != runs {
		return fmt.Errorf("%d order hashes for %d runs", len(o.OrderHashes), runs)
	}
	return nil
}

func distinct(hashes []uint64) int {
	set := make(map[uint64]bool, len(hashes))
	for _, h := range hashes {
		set[h] = true
	}
	return len(set)
}

func hexHashes(hashes []uint64) []string {
	out := make([]string, len(hashes))
	for i, h := range hashes {
		out[i] = strconv.FormatUint(h, 16)
	}
	return out
}

// defaultSeed is the seed the committed expected outputs were made at.
const defaultSeed = 1

// expectedJSON holds the expected outputs at defaultSeed, generated
// from the code with -write-expected: per workload, per batch, per op.
// verify-sweep has one batch, which every op at every seed must match.
//
//go:embed expected.json
var expectedJSON []byte

type expectedOutputs struct {
	Seed      int64                 `json:"seed"`
	Workloads map[string][][]output `json:"workloads"`
}

func loadExpected() (expectedOutputs, error) {
	var e expectedOutputs
	if len(expectedJSON) == 0 {
		return e, nil
	}
	err := json.Unmarshal(expectedJSON, &e)
	return e, err
}

// lookup returns the expected output of op i of batch b, if recorded.
func (e expectedOutputs) lookup(name string, seed int64, b, i int) (output, bool) {
	batches := e.Workloads[name]
	if name == "verify-sweep" && len(batches) > 0 {
		b = 0
	} else if seed != e.Seed {
		return output{}, false
	}
	if b < 0 || b >= len(batches) || i >= len(batches[b]) {
		return output{}, false
	}
	return batches[b][i], true
}

// checkOp validates op i of batch b: by invariants, then against the
// expected output when one is recorded.
func checkOp(w workload, exp expectedOutputs, name string, seed int64, b, i int, o output) error {
	if err := w.check(i, o); err != nil {
		return err
	}
	if want, ok := exp.lookup(name, seed, b, i); ok {
		return sameOutput(want, o)
	}
	return nil
}

// expectedBatches is how many batches -write-expected records per
// seeded workload.
var expectedBatches = map[string]int{"race-1024": 48, "mesh-sweep-stream": 16, "verify-sweep": 1}

// writeExpected regenerates the expected outputs at defaultSeed: each
// batch runs untraced and through its replica, the two must agree, and
// the replica's output (which adds the order hashes) is recorded.
func writeExpected(path, dir string) error {
	e := expectedOutputs{Seed: defaultSeed, Workloads: make(map[string][][]output)}
	for _, name := range workloadNames {
		w, err := newWorkload(name, defaultSeed, dir)
		if err != nil {
			return err
		}
		for b := 0; b < expectedBatches[name]; b++ {
			outs, err := agreedBatch(w, b, newTracer())
			if err != nil {
				w.close()
				return fmt.Errorf("%s batch %d: %w", name, b, err)
			}
			e.Workloads[name] = append(e.Workloads[name], outs)
		}
		if err := w.close(); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	buf.WriteString("{\"seed\": " + strconv.FormatInt(e.Seed, 10) + ", \"workloads\": {\n")
	for n, name := range workloadNames {
		fmt.Fprintf(&buf, "%q: [\n", name)
		for b, outs := range e.Workloads[name] {
			line, err := json.Marshal(outs)
			if err != nil {
				return err
			}
			buf.Write(line)
			if b < len(e.Workloads[name])-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]")
		if n < len(workloadNames)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// agreedBatch runs batch b untraced and through its replica and returns
// the replica's outputs once both pass the invariants and agree.
func agreedBatch(w workload, b int, tr *tracer) ([]output, error) {
	res := w.batch(b)
	if res.err != nil {
		return nil, res.err
	}
	outs, err := w.replica(b, tr)
	if err != nil {
		return nil, err
	}
	for i, op := range res.ops {
		if op.err != nil {
			return nil, op.err
		}
		if err := w.check(i, outs[i]); err != nil {
			return nil, err
		}
		if err := sameOutput(op.out, outs[i]); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}
