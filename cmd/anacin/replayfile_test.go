package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/anacin-go/anacinx/internal/core"
)

// archiveSample streams a small experiment into dir and returns its
// order hashes, giving CLI tests a real v2 archive to chew on.
func archiveSample(t *testing.T, dir string) []uint64 {
	t.Helper()
	e := core.DefaultExperiment("message_race", 4, 100)
	e.Runs = 4
	s, ers, err := e.StartEmbedded(context.Background(), nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Runs {
		s.Run(i)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	return ers.OrderHashes
}

// TestCmdReplayArtifacts pins the archival contract end to end: a
// campaign archive replayed through the CLI reports exactly the order
// hashes the live pipeline computed, plus the distance statistics.
func TestCmdReplayArtifacts(t *testing.T) {
	dir := t.TempDir()
	hashes := archiveSample(t, dir)
	out := captureStdout(t, func() error { return cmdReplay([]string{dir}) })
	if !strings.Contains(out, "replay: 4 trace(s), kernel wlst-h2d") {
		t.Errorf("replay header missing:\n%s", out)
	}
	for i, h := range hashes {
		want := regexp.MustCompile(fmt.Sprintf(`run-%d\.anctr:.*order_hash=%x`, i, h))
		if !want.MatchString(out) {
			t.Errorf("replay output missing run %d order_hash %x:\n%s", i, h, out)
		}
	}
	for _, want := range []string{"distinct communication structures:", "distances: n=6"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}

	// A single file replays too, and skips the distance section.
	single := captureStdout(t, func() error {
		return cmdReplay([]string{filepath.Join(dir, "run-0.anctr")})
	})
	if !strings.Contains(single, "replay: 1 trace(s)") || strings.Contains(single, "distances:") {
		t.Errorf("single-file replay output wrong:\n%s", single)
	}
}

func TestCmdReplayRejectsMixedModes(t *testing.T) {
	err := cmdReplay([]string{"-in", "sched.json", "some.anctr"})
	if err == nil || !strings.Contains(err.Error(), "cannot be combined") {
		t.Fatalf("mixed modes accepted: %v", err)
	}
}

func TestCmdReplayArtifactsNoTraces(t *testing.T) {
	if err := cmdReplay([]string{t.TempDir()}); err == nil {
		t.Fatal("empty directory accepted")
	}
}

func TestCmdInspect(t *testing.T) {
	dir := t.TempDir()
	archiveSample(t, dir)
	path := filepath.Join(dir, "run-0.anctr")
	out := captureStdout(t, func() error { return cmdInspect([]string{"-ranks", path}) })
	for _, want := range []string{
		"binary trace v2 (ANCNTR02)",
		"pattern=message_race procs=4",
		"events=", "segments=", "bytes: file=",
		"rank   0:", "rank   3:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdInspectV1AndJSON(t *testing.T) {
	dir := t.TempDir()
	out := captureStdout(t, func() error {
		return cmdRun([]string{"-pattern", "message_race", "-procs", "4", "-quiet",
			"-trace", filepath.Join(dir, "t.json")})
	})
	_ = out
	jout := captureStdout(t, func() error { return cmdInspect([]string{filepath.Join(dir, "t.json")}) })
	if !strings.Contains(jout, "JSON trace") || !strings.Contains(jout, "pattern=message_race") {
		t.Errorf("inspect JSON output wrong:\n%s", jout)
	}
	if err := cmdInspect([]string{filepath.Join(dir, "missing.anctr")}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCmdCampaignArchiveReplay drives the full loop the CI smoke job
// scripts: campaign -archive, then replay the archive.
func TestCmdCampaignArchiveReplay(t *testing.T) {
	dir := t.TempDir()
	csv1 := filepath.Join(dir, "a.csv")
	csv2 := filepath.Join(dir, "b.csv")
	archive := filepath.Join(dir, "archive")
	args := []string{"-patterns", "message_race", "-procs", "4", "-nd", "0,100",
		"-runs", "2", "-quiet"}
	captureStdout(t, func() error { return cmdCampaign(append(args, "-csv", csv1)) })
	captureStdout(t, func() error {
		return cmdCampaign(append(args, "-csv", csv2, "-archive", archive))
	})
	a, err := os.ReadFile(csv1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(csv2)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("archived campaign CSV differs from default:\n%s\nvs\n%s", a, b)
	}
	cells, err := os.ReadDir(archive)
	if err != nil || len(cells) != 2 {
		t.Fatalf("archive has %d cell dirs (err %v), want 2", len(cells), err)
	}
	out := captureStdout(t, func() error { return cmdReplay([]string{archive}) })
	if !strings.Contains(out, "replay: 4 trace(s)") {
		t.Errorf("archive replay output wrong:\n%s", out)
	}
}
