package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/anacin-go/anacinx/internal/trace"
)

// TestRunCellStreamMatchesRunCell pins the campaign-level equivalence:
// a cell run through the streaming pipeline carries exactly the summary
// and distinct-structure count of the materializing path, and archives
// its runs under the cell's fingerprint.
func TestRunCellStreamMatchesRunCell(t *testing.T) {
	g, err := smallGrid().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	specs := g.CellSpecs()
	dir := t.TempDir()
	for _, spec := range specs[:2] {
		want := RunCell(context.Background(), g, spec, 0)
		got := RunCellStream(context.Background(), g, spec, 0, dir, trace.CodecOptions{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("spec %+v: streamed cell %+v, want %+v", spec, got, want)
		}

		cellDir := filepath.Join(dir, g.CellFingerprint(spec).String())
		entries, err := os.ReadDir(cellDir)
		if err != nil {
			t.Fatalf("spec %+v: archive dir: %v", spec, err)
		}
		if len(entries) != g.Runs {
			t.Errorf("spec %+v: archived %d traces, want %d", spec, len(entries), g.Runs)
		}
		for i := 0; i < g.Runs; i++ {
			p := filepath.Join(cellDir, fmt.Sprintf("run-%d.anctr", i))
			if _, err := os.Stat(p); err != nil {
				t.Errorf("spec %+v: missing archived trace: %v", spec, err)
			}
		}
	}
}

// TestRunnerStreamMatchesDefault pins that Runner{Stream: true}
// produces a Result deep-equal to the default materializing Runner —
// the switch is purely an execution strategy — with byte-identical CSV
// and markdown at every worker count. ArchiveDir alone implies
// streaming, lays out one directory per cell fingerprint, and archives
// the bytes RunCellStream archives.
func TestRunnerStreamMatchesDefault(t *testing.T) {
	g, err := smallGrid().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Runner{Workers: 1}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := render(t, want)
	ref := t.TempDir()
	for _, spec := range g.CellSpecs() {
		RunCellStream(context.Background(), g, spec, 1, ref, trace.CodecOptions{})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		dir := t.TempDir()
		for name, r := range map[string]*Runner{
			"default": {Workers: workers},
			"stream":  {Workers: workers, Stream: true},
			"archive": {Workers: workers, ArchiveDir: dir},
		} {
			got, err := r.Run(context.Background(), g)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d %s: result differs from the sequential materializing result", workers, name)
			}
			if out := render(t, got); out != wantOut {
				t.Errorf("workers=%d %s: output differs from sequential:\n%s\nvs\n%s", workers, name, out, wantOut)
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if wantCells := g.Cells(); len(entries) != wantCells {
			t.Errorf("workers=%d: archive has %d cell dirs, want %d", workers, len(entries), wantCells)
		}
		for _, spec := range g.CellSpecs() {
			for i := 0; i < g.Runs; i++ {
				name := filepath.Join(g.CellFingerprint(spec).String(), fmt.Sprintf("run-%d.anctr", i))
				a, errA := os.ReadFile(filepath.Join(ref, name))
				b, errB := os.ReadFile(filepath.Join(dir, name))
				if errA != nil || errB != nil || !bytes.Equal(a, b) {
					t.Errorf("workers=%d: archived %s differs from RunCellStream's (%v, %v)", workers, name, errA, errB)
				}
			}
		}
	}
}

// render returns r's CSV followed by its markdown.
func render(t *testing.T, r *Result) string {
	t.Helper()
	var cb, mb bytes.Buffer
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMarkdown(&mb); err != nil {
		t.Fatal(err)
	}
	return cb.String() + mb.String()
}
