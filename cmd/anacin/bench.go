package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"github.com/anacin-go/anacinx/internal/perf"
)

// cmdBench runs the named perf scenarios and writes a schema-versioned
// BENCH.json; with -compare it also diffs against a baseline report
// and fails (non-zero exit) on any regression of the gated statistic
// (-stat, default median) — or of allocs/op — beyond the threshold.
// CI runs both modes:
// every push refreshes the artifact,
// every PR is gated against the main-branch baseline. See
// docs/benchmarking.md.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("o", "BENCH.json", "output path for the benchmark report")
	scenarios := fs.String("scenarios", "all", `scenario set: "all", "quick", or comma-separated names`)
	reps := fs.Int("reps", 10, "timed repetitions per scenario")
	warmup := fs.Int("warmup", 2, "untimed warmup repetitions per scenario")
	compare := fs.String("compare", "", "baseline BENCH.json to diff against (enables the regression gate)")
	threshold := fs.Float64("threshold", 0.25, "allowed relative increase of the gated statistic and of allocs/op vs the baseline (0.25 = 25%)")
	statName := fs.String("stat", "median", `statistic the regression gate compares: "median" or "min" (min is robust to load spikes on shared CI runners)`)
	summary := fs.String("summary", "", "append a markdown results table (and, with -compare, a before/after delta table) to this file — CI passes $GITHUB_STEP_SUMMARY")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the timed reps to this file (inspect with 'go tool pprof')")
	memprofile := fs.String("memprofile", "", "write an allocation profile taken after the run to this file")
	list := fs.Bool("list", false, "list scenario names and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, sc := range perf.AllScenarios() {
			fmt.Printf("  %-24s %s\n", sc.Name, sc.Description)
		}
		return nil
	}
	selected, err := perf.Select(*scenarios)
	if err != nil {
		return err
	}
	stat, err := perf.ParseStat(*statName)
	if err != nil {
		return err
	}
	opts := perf.Options{
		Reps:   *reps,
		Warmup: *warmup,
		Commit: vcsRevision(),
		Date:   time.Now().UTC().Format(time.RFC3339),
		Logf: func(format string, a ...any) {
			fmt.Printf(format+"\n", a...)
		},
	}
	fmt.Printf("running %d scenario(s), %d reps (+%d warmup) each\n", len(selected), opts.Reps, opts.Warmup)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	report, err := perf.Run(selected, opts)
	if err != nil {
		return err
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows live + cumulative allocation sites
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", *memprofile)
	}
	if err := report.WriteFile(*out); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	if *compare == "" {
		if *summary != "" {
			return appendSummary(*summary, func(w *os.File) error {
				return perf.WriteMarkdownReport(w, report)
			})
		}
		return nil
	}
	baseline, err := perf.Load(*compare)
	if err != nil {
		return err
	}
	deltas, err := perf.CompareBy(baseline, report, *threshold, stat)
	if err != nil {
		return err
	}
	fmt.Printf("comparison against %s (gate: +%.0f%% %s, +%.0f%% allocs/op):\n", *compare, *threshold*100, stat, *threshold*100)
	if err := perf.WriteDeltas(os.Stdout, deltas); err != nil {
		return err
	}
	if *summary != "" {
		if err := appendSummary(*summary, func(w *os.File) error {
			return perf.WriteMarkdownDeltas(w, deltas, stat, *threshold)
		}); err != nil {
			return err
		}
	}
	if regressed := perf.Regressions(deltas); len(regressed) > 0 {
		return fmt.Errorf("%d scenario(s) regressed beyond %.0f%%", len(regressed), *threshold*100)
	}
	fmt.Println("no regressions")
	return nil
}

// appendSummary opens path in append mode (the $GITHUB_STEP_SUMMARY
// contract: steps add to the file, never truncate it) and writes one
// markdown block.
func appendSummary(path string, write func(*os.File) error) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if werr := write(f); werr != nil {
		f.Close()
		return werr
	}
	return f.Close()
}

// vcsRevision extracts the (short) VCS revision baked into the binary,
// empty when built outside a checkout or from a test binary.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	return revisionOf(info.Settings)
}

// revisionOf returns the short vcs.revision of the build settings,
// suffixed "-dirty" when vcs.modified says the tree had uncommitted
// changes, so a report never passes a local edit off as its parent
// commit.
func revisionOf(settings []debug.BuildSetting) string {
	var rev string
	dirty := false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "-dirty"
	}
	return rev
}
