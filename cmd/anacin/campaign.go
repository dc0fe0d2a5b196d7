package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"github.com/anacin-go/anacinx/internal/campaign"
	"github.com/anacin-go/anacinx/internal/core"
	"github.com/anacin-go/anacinx/internal/trace"
)

// cmdCampaign runs a grid of experiments (patterns × procs × iters ×
// nodes × nd) on a worker pool and writes the per-cell kernel-distance
// statistics as a markdown table and, optionally, CSV.
func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `usage: anacin campaign [flags]

Runs the cross product patterns × procs × iters × nodes × nd, reducing
each cell to its pairwise kernel-distance summary. Every run of every
cell goes through one queue, cell by cell, with -workers runs in
flight, so no core idles while the last cell finishes. Output ordering
is deterministic (cells are sorted), so the same grid and seed produce
byte-identical CSV at any worker count.

Press Ctrl-C (or exceed -timeout) to cancel: in-flight simulations
abort, the cells that completed are rendered with a PARTIAL RESULTS
note on stderr (including the CSV, if -csv was given), and the command
exits non-zero so scripts cannot mistake a truncated campaign for
success. Progress is reported per completed cell on stderr (suppress
with -quiet).

flags:
`)
		fs.PrintDefaults()
	}
	patternsFlag := fs.String("patterns", "message_race,amg2013,unstructured_mesh", "comma-separated pattern names")
	procsFlag := fs.String("procs", "16", "comma-separated process counts")
	itersFlag := fs.String("iters", "1", "comma-separated iteration counts")
	nodesFlag := fs.String("nodes", "1", "comma-separated node counts")
	ndFlag := fs.String("nd", "0,50,100", "comma-separated ND percentages")
	runs := fs.Int("runs", campaign.DefaultRuns, "runs per cell (must be >= 1)")
	seed := fs.Int64("seed", campaign.DefaultBaseSeed, "base seed (0 is a valid seed, not a default request)")
	kernSpec := fs.String("kernel", "wl2", "graph kernel: "+core.KernelSpecs())
	csvPath := fs.String("csv", "", "also write the cells as CSV to this path")
	workers := fs.Int("workers", 0, "concurrent runs (0 = one per core)")
	archive := fs.String("archive", "", "archive every run's v2 trace under this directory\n(<dir>/<cell-fingerprint>/run-<i>.anctr, replayable with 'anacin replay')")
	compressLevel := fs.Int("compress-level", 0, "DEFLATE level for archived traces (-2..9; 0 = format default,\nBestSpeed). Changes archived bytes; applies with -archive")
	timeout := fs.Duration("timeout", 0, "cancel the campaign after this wall-clock duration (0 = none)")
	quiet := fs.Bool("quiet", false, "suppress per-cell progress on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := core.ParseKernel(*kernSpec)
	if err != nil {
		return err
	}
	codec := trace.CodecOptions{Level: *compressLevel}
	if err := codec.Validate(); err != nil {
		return fmt.Errorf("-compress-level: %w", err)
	}
	ints := func(s string) ([]int, error) {
		var out []int
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad integer %q", f)
			}
			out = append(out, v)
		}
		return out, nil
	}
	floats := func(s string) ([]float64, error) {
		var out []float64
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("bad number %q", f)
			}
			out = append(out, v)
		}
		return out, nil
	}
	g := campaign.Grid{
		Patterns: strings.Split(*patternsFlag, ","),
		Runs:     *runs,
		BaseSeed: *seed,
		Kernel:   k,
	}
	for i := range g.Patterns {
		g.Patterns[i] = strings.TrimSpace(g.Patterns[i])
	}
	if g.Procs, err = ints(*procsFlag); err != nil {
		return err
	}
	if g.Iterations, err = ints(*itersFlag); err != nil {
		return err
	}
	if g.Nodes, err = ints(*nodesFlag); err != nil {
		return err
	}
	if g.NDPercents, err = floats(*ndFlag); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	runner := &campaign.Runner{Workers: *workers, ArchiveDir: *archive, Codec: codec}
	if !*quiet {
		runner.Progress = func(p campaign.Progress) {
			status := fmt.Sprintf("median %.4g", p.Cell.Summary.Median)
			if p.Cell.Err != nil {
				status = "ERROR: " + p.Cell.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "campaign: cell %d/%d %s procs=%d nd=%g done in %s (%s) runs %d/%d eta %s\n",
				p.DoneCells, p.TotalCells, p.Cell.Pattern, p.Cell.Procs, p.Cell.NDPercent,
				p.CellWall.Round(time.Millisecond), status,
				p.DoneRuns, p.TotalRuns, p.ETA.Round(time.Second))
		}
	}
	fmt.Fprintf(os.Stderr, "campaign: %d cells x %d runs\n", g.Cells(), *runs)
	res, err := runner.Run(ctx, g)
	return emitCampaign(res, err, *csvPath, os.Stdout, os.Stderr)
}

// emitCampaign renders a campaign result (complete or partial) and
// decides the command's exit status. A cancelled campaign still
// carries the cells that completed: they are rendered under an
// explicit PARTIAL RESULTS note — and the cancellation error is
// returned regardless, so the process exits non-zero and CI scripts
// cannot mistake a truncated campaign for success.
func emitCampaign(res *campaign.Result, runErr error, csvPath string, stdout, stderr io.Writer) error {
	if runErr != nil {
		if res != nil && len(res.Cells) > 0 {
			fmt.Fprintf(stderr, "campaign: PARTIAL RESULTS: %d cell(s) completed before cancellation\n", len(res.Cells))
			if werr := res.WriteMarkdown(stdout); werr != nil {
				return werr
			}
			if csvPath != "" {
				if werr := writeFile(csvPath, func(w *os.File) error { return res.WriteCSV(w) }); werr != nil {
					return werr
				}
				fmt.Fprintf(stderr, "campaign: wrote PARTIAL %s\n", csvPath)
			}
		}
		return runErr
	}
	if err := res.WriteMarkdown(stdout); err != nil {
		return err
	}
	if csvPath != "" {
		if err := writeFile(csvPath, func(w *os.File) error { return res.WriteCSV(w) }); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", csvPath)
	}
	// Failed cells still render (their error column says why), but the
	// command must exit non-zero so scripts and CI notice.
	if failed := res.Failed(); len(failed) > 0 {
		return fmt.Errorf("%d cell(s) failed; first: %v", len(failed), failed[0].Err)
	}
	return nil
}
