package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsMatchExpected runs the first batches of every workload
// at the default seed untraced and through the replica, and checks both
// against the committed expected outputs (order hashes included).
func TestWorkloadsMatchExpected(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	batches := 2
	if testing.Short() {
		batches = 1
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, defaultSeed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			for b := 0; b < batches; b++ {
				outs, err := agreedBatch(w, b, newTracer())
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				for i, o := range outs {
					want, ok := exp.lookup(name, defaultSeed, b, i)
					if !ok {
						t.Fatalf("batch %d op %d: no expected output", b, i)
					}
					if len(o.OrderHashes) == 0 && name != "verify-sweep" {
						t.Fatalf("batch %d op %d: replica has no order hashes", b, i)
					}
					if err := sameOutput(want, o); err != nil {
						t.Errorf("batch %d op %d: %v", b, i, err)
					}
				}
			}
		})
	}
}

// TestCommandContract runs the command end to end in both modes and
// checks the last stdout line: correct, attempted, failed and exactly
// the mode's metrics.
func TestCommandContract(t *testing.T) {
	names := workloadNames
	if testing.Short() {
		names = []string{"verify-sweep"}
	}
	for _, name := range names {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(name+"/trace"+mode.trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "1", "--seconds", "0", "--trace", mode.trace, "-out", dir}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var ln line
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ln); err != nil {
					t.Fatal(err)
				}
				if !ln.Correct || ln.Failed != 0 || ln.Attempted < minBatches {
					t.Fatalf("result %+v", ln)
				}
				if len(ln.Metrics) != len(mode.defs) {
					t.Errorf("%d metrics, want %d", len(ln.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					m, ok := ln.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if mode.trace == "1" && ln.Metrics["bench.stage_coverage"].Value < minCoverage {
					t.Errorf("stage coverage %v", ln.Metrics["bench.stage_coverage"].Value)
				}
				if mode.trace == "0" {
					for _, d := range endToEnd {
						if ln.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, ln.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesMetrics: the repository's BENCHMARK.json
// declares exactly the workloads and metrics (names, units, order) this
// command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		json []def
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the command", c.kind, len(c.json), len(c.code))
			continue
		}
		for i, d := range c.code {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %s %s", c.kind, i, c.json[i], d.name, d.unit)
			}
		}
	}
}

// TestCompareRefusesGOMAXPROCSMismatch: results taken at different
// GOMAXPROCS are not comparable.
func TestCompareRefusesGOMAXPROCSMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		rep := report{Schema: schema, Env: environment{Workload: "race-1024", GOMAXPROCS: procs},
			Metrics: map[string]metric{"op_p50_ms": {1, "ms"}}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 1), write("b.json", 2), write("c.json", 2)
	var out, errb bytes.Buffer
	if code := compareReports(a, b, &out, &errb); code == 0 || !strings.Contains(errb.String(), "GOMAXPROCS") {
		t.Errorf("compare across GOMAXPROCS: exit %d, stderr %q", code, errb.String())
	}
	if code := compareReports(b, c, &out, &errb); code != 0 {
		t.Errorf("compare at equal GOMAXPROCS: exit %d", code)
	}
}
