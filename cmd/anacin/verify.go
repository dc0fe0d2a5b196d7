package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/verify"
)

// modulePath labels the JSON report envelope; the verifier analyzes
// registered patterns, not loaded packages, so there is no loader to
// ask.
const modulePath = "github.com/anacin-go/anacinx"

// cmdVerify statically verifies the communication structure of pattern
// programs (docs/verification.md): symbolic elaboration instead of
// scheduling, then deadlock, match, wildcard-race, and metadata
// analysis. It fails on any unsuppressed error-grade finding.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	all := fs.Bool("all", false, "verify every registered pattern")
	procsFlag := fs.String("procs", "", "comma-separated process counts to sweep (default 2,3,4,8, raised to each pattern's minimum)")
	itersFlag := fs.String("iters", "", "comma-separated iteration counts to sweep (default 1,3)")
	rendezvous := fs.Int("rendezvous", 0, "rendezvous threshold in bytes (0 = all sends eager, the simulator default)")
	jsonPath := fs.String("json", "", `write the JSON findings report to this path ("-" for stdout)`)
	verbose := fs.Bool("v", false, "print per-configuration summaries and suppressed findings")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: anacin verify [flags] -all | <pattern>...   (names as shown by `anacin list`)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := verify.Options{RendezvousThreshold: *rendezvous}
	var err error
	if opts.Procs, err = parseIntList(*procsFlag); err != nil {
		return fmt.Errorf("-procs: %w", err)
	}
	if opts.Iters, err = parseIntList(*itersFlag); err != nil {
		return fmt.Errorf("-iters: %w", err)
	}

	var pats []patterns.Pattern
	switch {
	case *all && fs.NArg() > 0:
		return fmt.Errorf("-all and explicit pattern names are mutually exclusive")
	case *all:
		pats = patterns.All()
	case fs.NArg() == 0:
		fs.Usage()
		return fmt.Errorf("no patterns given (use -all to verify every registered pattern)")
	default:
		for _, name := range fs.Args() {
			pat, err := patterns.ByName(name)
			if err != nil {
				return err
			}
			pats = append(pats, pat)
		}
	}

	findings, summaries := verify.VerifyPatterns(pats, opts)

	if *verbose {
		for _, s := range summaries {
			fmt.Printf("%-18s P=%-3d iters=%-2d ops=%-5d events=%-5d race-slots=%-4d nd-call-sites=%-2d matchings %s\n",
				s.Pattern, s.Procs, s.Iterations, s.Ops, s.TraceEvents, s.RaceSlots, s.NDCallSites, s.MatchingsLabel())
		}
	}
	// Info-grade findings (the per-configuration ND-source reports) are
	// verbose-only on the terminal; the JSON artifact always carries
	// them.
	shown := findings
	if !*verbose {
		shown = nil
		for _, f := range findings {
			if f.Severity != verify.SevInfo {
				shown = append(shown, f)
			}
		}
	}
	if err := verify.WriteText(os.Stdout, shown, *verbose); err != nil {
		return err
	}
	if *jsonPath != "" {
		if *jsonPath == "-" {
			err = verify.WriteJSON(os.Stdout, modulePath, findings, summaries)
		} else {
			err = writeFile(*jsonPath, func(w *os.File) error {
				return verify.WriteJSON(w, modulePath, findings, summaries)
			})
		}
		if err != nil {
			return err
		}
	}
	if n := verify.Gating(findings); n > 0 {
		return fmt.Errorf("%d error finding(s) across %d pattern(s)", n, len(pats))
	}
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		}
	}
	fmt.Printf("ok: %d pattern(s), %d configuration(s), %d sanctioned exception(s)\n",
		len(pats), len(summaries), suppressed)
	return nil
}

// parseIntList parses a comma-separated list of positive integers; an
// empty string yields nil (use the defaults).
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}
