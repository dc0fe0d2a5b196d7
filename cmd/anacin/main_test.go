package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r) //nolint:errcheck
		done <- buf.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestCmdList(t *testing.T) {
	out := captureStdout(t, func() error { return cmdList(nil) })
	for _, want := range []string{"message_race", "amg2013", "unstructured_mesh", "kernels:", "fig8"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestCmdRunWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "g.svg")
	dot := filepath.Join(dir, "g.dot")
	trc := filepath.Join(dir, "t.json")
	out := captureStdout(t, func() error {
		return cmdRun([]string{"-pattern", "message_race", "-procs", "4", "-nd", "100",
			"-svg", svg, "-dot", dot, "-trace", trc})
	})
	for _, want := range []string{"events=", "order_hash=", "rank  0"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
	for _, path := range []string{svg, dot, trc} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("artifact %s missing: %v", path, err)
		}
	}
}

func TestCmdRunRejectsBadPattern(t *testing.T) {
	if err := cmdRun([]string{"-pattern", "nope"}); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestCmdMeasure(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "v.svg")
	out := captureStdout(t, func() error {
		return cmdMeasure([]string{"-pattern", "unstructured_mesh", "-procs", "6",
			"-runs", "5", "-nd", "100", "-svg", svg, "-raw"})
	})
	for _, want := range []string{"distinct communication structures", "distances", "pair"} {
		if !strings.Contains(out, want) {
			t.Errorf("measure output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(svg); err != nil {
		t.Errorf("violin SVG missing: %v", err)
	}
}

func TestCmdMeasureWallclock(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdMeasure([]string{"-pattern", "amg2013", "-procs", "5",
			"-runs", "4", "-nd", "50", "-wallclock"})
	})
	for _, want := range []string{"runtime=wallclock", "distinct communication structures", "distances"} {
		if !strings.Contains(out, want) {
			t.Errorf("wallclock measure output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdMeasureRejectsBadKernel(t *testing.T) {
	if err := cmdMeasure([]string{"-kernel", "bogus"}); err == nil {
		t.Error("bad kernel accepted")
	}
}

func TestCmdSweep(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdSweep([]string{"-pattern", "amg2013", "-procs", "6", "-runs", "4",
			"-knob", "nd", "-values", "0,100"})
	})
	if !strings.Contains(out, "nd=0") || !strings.Contains(out, "nd=100") {
		t.Errorf("sweep output:\n%s", out)
	}
}

func TestCmdSweepKnobs(t *testing.T) {
	for _, knob := range []string{"procs", "iters", "nodes"} {
		args := []string{"-pattern", "amg2013", "-procs", "6", "-runs", "3", "-knob", knob, "-values", "2"}
		if knob == "procs" {
			args = append(args[:4], args[6:]...) // drop -procs for the procs knob
		}
		out := captureStdout(t, func() error { return cmdSweep(args) })
		if !strings.Contains(out, knob+"=2") {
			t.Errorf("knob %s output:\n%s", knob, out)
		}
	}
	if err := cmdSweep([]string{"-knob", "bogus", "-values", "1"}); err == nil {
		t.Error("bad knob accepted")
	}
	if err := cmdSweep([]string{"-values", "abc"}); err == nil {
		t.Error("bad value accepted")
	}
}

func TestCmdCallstack(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "c.svg")
	profSVG := filepath.Join(dir, "p.svg")
	out := captureStdout(t, func() error {
		return cmdCallstack([]string{"-pattern", "amg2013", "-procs", "8", "-runs", "5",
			"-nd", "100", "-svg", svg, "-profilesvg", profSVG})
	})
	if _, err := os.Stat(profSVG); err != nil {
		t.Errorf("profile SVG missing: %v", err)
	}
	for _, want := range []string{"profile", "root sources", "gatherWork"} {
		if !strings.Contains(out, want) {
			t.Errorf("callstack output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(svg); err != nil {
		t.Errorf("bar chart missing: %v", err)
	}
}

func TestCmdRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sched := filepath.Join(dir, "sched.json")
	out := captureStdout(t, func() error {
		return cmdRecord([]string{"-pattern", "message_race", "-procs", "5", "-nd", "100",
			"-out", sched})
	})
	if !strings.Contains(out, "recorded") {
		t.Errorf("record output:\n%s", out)
	}
	out = captureStdout(t, func() error {
		return cmdReplay([]string{"-pattern", "message_race", "-procs", "5", "-nd", "100",
			"-runs", "4", "-seed", "500", "-in", sched})
	})
	if !strings.Contains(out, "1 distinct communication structure") {
		t.Errorf("replay output:\n%s", out)
	}
	if !strings.Contains(out, "replay successful") {
		t.Errorf("replay did not suppress ND:\n%s", out)
	}
}

func TestCmdReplayMissingFile(t *testing.T) {
	if err := cmdReplay([]string{"-in", "/nonexistent/sched.json"}); err == nil {
		t.Error("missing schedule accepted")
	}
}

func TestCmdFiguresQuickSingle(t *testing.T) {
	dir := t.TempDir()
	out := captureStdout(t, func() error {
		return cmdFigures([]string{"-fig", "fig3", "-quick", "-out", dir})
	})
	if !strings.Contains(out, "fig3") || !strings.Contains(out, "[PASS]") {
		t.Errorf("figures output:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Errorf("no artifacts in %s: %v", dir, err)
	}
}

func TestCmdDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	captureStdout(t, func() error {
		return cmdRun([]string{"-pattern", "message_race", "-procs", "4", "-nd", "100",
			"-seed", "1", "-trace", a, "-quiet"})
	})
	captureStdout(t, func() error {
		return cmdRun([]string{"-pattern", "message_race", "-procs", "4", "-nd", "100",
			"-seed", "2", "-trace", b, "-quiet"})
	})
	out := captureStdout(t, func() error {
		return cmdDiff([]string{"-a", a, "-b", b})
	})
	if !strings.Contains(out, "kernel distance") {
		t.Errorf("diff output:\n%s", out)
	}
	// Seeds 1 and 2 diverge in this configuration (asserted elsewhere).
	if !strings.Contains(out, "first divergence") {
		t.Errorf("diff found no divergence:\n%s", out)
	}
	// Self-diff reports identity.
	out = captureStdout(t, func() error { return cmdDiff([]string{"-a", a, "-b", a}) })
	if !strings.Contains(out, "identical") {
		t.Errorf("self diff:\n%s", out)
	}
	if err := cmdDiff([]string{"-a", a}); err == nil {
		t.Error("missing -b accepted")
	}
}

func TestCmdExpose(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdExpose([]string{"-pattern", "message_race", "-procs", "12",
			"-iters", "2", "-probes", "3", "-resolution", "5"})
	})
	for _, want := range []string{"exposure threshold", "DIVERGED"} {
		if !strings.Contains(out, want) {
			t.Errorf("expose output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, func() error {
		return cmdExpose([]string{"-pattern", "ring_halo", "-procs", "6", "-probes", "2", "-resolution", "10"})
	})
	if !strings.Contains(out, "never exposed") {
		t.Errorf("deterministic expose output:\n%s", out)
	}
}

func TestCmdRunGraphML(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.graphml")
	captureStdout(t, func() error {
		return cmdRun([]string{"-pattern", "amg2013", "-procs", "3", "-quiet", "-graphml", path})
	})
	data, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(data), "graphml") {
		t.Errorf("GraphML artifact bad: %v", err)
	}
}

func TestCmdCritpath(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdCritpath([]string{"-pattern", "amg2013", "-procs", "4", "-nd", "0", "-maxhops", "6"})
	})
	for _, want := range []string{"critical path:", "message hops", "elapsed", "elided"} {
		if !strings.Contains(out, want) {
			t.Errorf("critpath output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdCampaign(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "grid.csv")
	out := captureStdout(t, func() error {
		return cmdCampaign([]string{"-patterns", "message_race, ring_halo", "-procs", "4,6",
			"-nd", "0,100", "-runs", "3", "-csv", csvPath})
	})
	for _, want := range []string{"# Campaign", "message_race", "ring_halo", "| 4 |", "| 6 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil || !strings.Contains(string(data), "median") {
		t.Errorf("campaign CSV bad: %v", err)
	}
	if err := cmdCampaign([]string{"-procs", "x"}); err == nil {
		t.Error("bad procs accepted")
	}
	if err := cmdCampaign([]string{"-nd", "x"}); err == nil {
		t.Error("bad nd accepted")
	}
	if err := cmdCampaign([]string{"-kernel", "bogus"}); err == nil {
		t.Error("bad kernel accepted")
	}
	if err := cmdCampaign([]string{"-runs", "0"}); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestCmdCampaignParallelMatchesSequential(t *testing.T) {
	// The CLI's worker knob must not change the emitted CSV.
	run := func(workers string) string {
		csvPath := filepath.Join(t.TempDir(), "grid.csv")
		captureStdout(t, func() error {
			return cmdCampaign([]string{"-patterns", "message_race", "-procs", "4,6",
				"-nd", "0,100", "-runs", "3", "-workers", workers, "-quiet", "-csv", csvPath})
		})
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if seq, par := run("1"), run("4"); seq != par {
		t.Errorf("-workers changed the CSV:\n%s\nvs\n%s", seq, par)
	}
}

func TestCmdCampaignTimeout(t *testing.T) {
	// An expired timeout must cancel the campaign and surface a
	// cancellation error instead of a result.
	err := cmdCampaign([]string{"-patterns", "unstructured_mesh", "-procs", "16",
		"-nd", "100", "-runs", "20", "-iters", "4", "-timeout", "1ns", "-quiet"})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("err = %v, want cancellation", err)
	}
}

// An out-of-range -compress-level is a usage error: campaign must
// reject it before any cell simulates, so nothing reaches the archive.
func TestCmdCampaignRejectsCompressLevel(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "archive")
	err := cmdCampaign([]string{"-patterns", "message_race", "-procs", "4", "-nd", "50",
		"-runs", "2", "-archive", dir, "-compress-level", "42", "-quiet"})
	if err == nil || !strings.Contains(err.Error(), "-compress-level") {
		t.Fatalf("err = %v, want a -compress-level usage error", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("archive dir exists after the level was rejected (stat: %v)", err)
	}
}

// serve must reject the level before it listens. The port file sits
// in a missing directory, so a server that got as far as listening
// fails on it instead of blocking until a signal.
func TestCmdServeRejectsCompressLevel(t *testing.T) {
	portFile := filepath.Join(t.TempDir(), "missing", "port")
	err := cmdServe([]string{"-addr", "127.0.0.1:0", "-portfile", portFile, "-compress-level", "42"})
	if err == nil || !strings.Contains(err.Error(), "-compress-level") {
		t.Fatalf("err = %v, want a -compress-level usage error", err)
	}
}

func TestCmdFiguresUnknown(t *testing.T) {
	if err := cmdFigures([]string{"-fig", "fig42"}); err == nil {
		t.Error("unknown figure accepted")
	}
}
