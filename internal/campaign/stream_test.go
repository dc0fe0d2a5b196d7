package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/anacin-go/anacinx/internal/core"
	"github.com/anacin-go/anacinx/internal/trace"
)

// referenceCell measures one cell of the normalized grid g from the
// RunSet that core's ExecuteContext keeps (every trace and graph, the
// embeddings drawn through its cache): the reference every reduced
// cell must equal.
func referenceCell(t *testing.T, g Grid, spec CellSpec) Cell {
	t.Helper()
	e := core.DefaultExperiment(spec.Pattern, spec.Procs, spec.NDPercent)
	e.Iterations, e.Nodes = spec.Iterations, spec.Nodes
	e.Runs, e.BaseSeed, e.CaptureStacks = g.Runs, g.BaseSeed, g.CaptureStacks
	rs, err := e.ExecuteContext(context.Background())
	if err != nil {
		t.Fatalf("spec %+v: %v", spec, err)
	}
	return Cell{
		Pattern: spec.Pattern, Procs: spec.Procs, Iterations: spec.Iterations,
		Nodes: spec.Nodes, NDPercent: spec.NDPercent, Runs: g.Runs,
		Summary:            rs.DistanceSummary(g.Kernel),
		DistinctStructures: rs.DistinctStructures(),
	}
}

// TestRunCellMatchesRunSet pins the campaign-level equivalence: a cell
// whose runs reduce to embeddings, in memory (RunCell) or through an
// archive (RunCellArchive), carries exactly the summary and
// distinct-structure count of the RunSet reference at every run-worker
// count, and an archived cell keeps its runs under the cell's
// fingerprint.
func TestRunCellMatchesRunSet(t *testing.T) {
	g, err := smallGrid().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range g.CellSpecs()[:4] {
		want := referenceCell(t, g, spec)
		for _, workers := range []int{1, 2, 4} {
			if got := RunCell(context.Background(), g, spec, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("spec %+v workers=%d: cell %+v, want %+v", spec, workers, got, want)
			}
			dir := t.TempDir()
			if got := RunCellArchive(context.Background(), g, spec, workers, dir, trace.CodecOptions{}); !reflect.DeepEqual(got, want) {
				t.Errorf("spec %+v workers=%d: archived cell %+v, want %+v", spec, workers, got, want)
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
}

// TestRunnerMatchesRunSet pins that a Runner's Result, archived or
// not, is deep-equal to the grid measured cell by cell from RunSet
// references, with byte-identical CSV and markdown at every worker
// count. ArchiveDir lays out one directory per cell fingerprint and
// archives the bytes RunCellArchive archives.
func TestRunnerMatchesRunSet(t *testing.T) {
	g, err := smallGrid().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{KernelName: g.Kernel.Name()}
	for _, spec := range g.CellSpecs() {
		want.Cells = append(want.Cells, referenceCell(t, g, spec))
	}
	SortCells(want.Cells)
	wantOut := render(t, want)
	ref := t.TempDir()
	for _, spec := range g.CellSpecs() {
		RunCellArchive(context.Background(), g, spec, 1, ref, trace.CodecOptions{})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		dir := t.TempDir()
		for name, r := range map[string]*Runner{
			"unarchived": {Workers: workers},
			"archived":   {Workers: workers, ArchiveDir: dir},
		} {
			got, err := r.Run(context.Background(), g)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d %s: result differs from the RunSet reference", workers, name)
			}
			if out := render(t, got); out != wantOut {
				t.Errorf("workers=%d %s: output differs from the RunSet reference:\n%s\nvs\n%s", workers, name, out, wantOut)
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
					t.Errorf("workers=%d: archived %s differs from RunCellArchive's (%v, %v)", workers, name, errA, errB)
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
