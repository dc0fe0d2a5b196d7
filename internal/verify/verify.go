// Package verify statically checks the communication structure of
// pattern programs without running the discrete-event scheduler. A
// recording implementation of sim.FullProc elaborates each rank's
// program symbolically; analyzers then resolve deterministic matches,
// search the wait-for graph for deadlock cycles, derive exact
// candidate-sender sets for wildcard receives (with an exact count or
// proven bound on distinct matchings at small P), and machine-check the
// registry's Deterministic/EventsPerRankHint metadata. Findings share
// internal/lint's report conventions: only unsuppressed error-grade
// findings gate, and sanctioned exceptions print their reasons.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"github.com/anacin-go/anacinx/internal/par"
	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
)

// Config is one swept pattern configuration.
type Config struct {
	Procs, Iterations int
}

// Options tunes a verification run. The zero value uses the default
// small-P sweep, an eager-send network (the simulator default), the
// default op budget, and the built-in exception table.
type Options struct {
	// Procs overrides the swept process counts (values below the
	// pattern's MinProcs are raised to it, then deduplicated).
	Procs []int
	// Iters overrides the swept iteration counts (deduplicated, in
	// first-occurrence order).
	Iters []int
	// RendezvousThreshold mirrors sim.NetworkParams.RendezvousThreshold:
	// 0 means every send is eager; >0 makes sends of at least that many
	// bytes rendezvous (blocking until matched).
	RendezvousThreshold int
	// MaxOps caps elaborated ops per configuration (0 = DefaultMaxOps).
	MaxOps int
	// Exceptions is the sanctioned-exception table (nil = built-in).
	Exceptions []Exception
}

// defaultProcs/defaultIters are the default sweep: small process counts
// where exhaustive reasoning is cheap, with one multi-iteration point
// to exercise per-channel sequencing.
var (
	defaultProcs = []int{2, 3, 4, 8}
	defaultIters = []int{1, 3}
)

// Sweep returns the configurations a pattern is verified at under the
// options.
func (o *Options) Sweep(minProcs int) []Config {
	procs := o.Procs
	if len(procs) == 0 {
		procs = defaultProcs
	}
	iters := o.Iters
	if len(iters) == 0 {
		iters = defaultIters
	}
	var ps []int
	for _, p := range procs {
		ps = appendNew(ps, max(p, minProcs))
	}
	sort.Ints(ps)
	var its []int
	for _, it := range iters {
		its = appendNew(its, it)
	}
	var out []Config
	for _, p := range ps {
		for _, it := range its {
			out = append(out, Config{Procs: p, Iterations: it})
		}
	}
	return out
}

// appendNew appends v to xs unless xs already holds it.
func appendNew[T comparable](xs []T, v T) []T {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

func (o *Options) maxOps() int {
	if o.MaxOps > 0 {
		return o.MaxOps
	}
	return DefaultMaxOps
}

func (o *Options) exceptions() []Exception {
	if o.Exceptions != nil {
		return o.Exceptions
	}
	return sanctionedExceptions
}

// Elaborate runs one rank program symbolically at the given process
// count and returns its static op model. It never invokes the
// scheduler; virtual time does not advance.
func Elaborate(prog sim.ProcProgram, procs int, policy Policy, rendezvousThreshold, maxOps int) *Result {
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	return elaborate(prog, procs, policy, rendezvousThreshold, maxOps)
}

// ConfigSummary is the per-configuration verification digest shown by
// `anacin verify -v`.
type ConfigSummary struct {
	Pattern            string `json:"pattern"`
	Procs              int    `json:"procs"`
	Iterations         int    `json:"iterations"`
	Ops                int    `json:"ops"`
	TraceEvents        int    `json:"trace_events"`
	Matchings          uint64 `json:"matchings"`
	MatchingsSaturated bool   `json:"matchings_saturated,omitempty"`
	Exactness          string `json:"exactness"`
	RaceSlots          int    `json:"race_slots"`
	NDCallSites        int    `json:"nd_call_sites"`
}

// MatchingsLabel renders the count with its exactness qualifier.
func (c ConfigSummary) MatchingsLabel() string {
	n := fmt.Sprintf("%d", c.Matchings)
	if c.MatchingsSaturated {
		// The enumeration saturated; only the floor is known, whatever
		// the exactness tier.
		return ">= " + n
	}
	switch c.Exactness {
	case Exact.String():
		return n
	case UpperBound.String():
		// An upper bound of 1 is exact: the canonical matching itself is
		// realizable.
		if c.Matchings <= 1 {
			return n
		}
		return "<= " + n
	default:
		return n + " (canonical elaboration; control flow is matching-dependent)"
	}
}

// VerifyPattern verifies one pattern across the sweep. It returns the
// findings (sorted, exceptions applied) and one summary per clean
// configuration.
func VerifyPattern(pat patterns.Pattern, opts Options) ([]Finding, []ConfigSummary) {
	configs := opts.Sweep(pat.MinProcs())
	var (
		findings  []Finding
		summaries []ConfigSummary
		raced     = make([]bool, len(configs))
	)
	for ci, cfg := range configs {
		p := patterns.DefaultParams(cfg.Procs)
		p.Iterations = cfg.Iterations
		prog, err := pat.Program(p)
		if err != nil {
			findings = append(findings, Finding{
				Check: "elaboration", Severity: SevError, Pattern: pat.Name(),
				Procs: cfg.Procs, Iterations: cfg.Iterations, Rank: -1,
				Message: "Program construction failed: " + err.Error(),
			})
			continue
		}
		low := elaborate(prog, cfg.Procs, PolicyLow, opts.RendezvousThreshold, opts.maxOps())
		findings = append(findings, Analyze(pat.Name(), cfg.Procs, cfg.Iterations, low)...)
		if !low.Clean() {
			continue
		}
		high := elaborate(prog, cfg.Procs, PolicyHigh, opts.RendezvousThreshold, opts.maxOps())
		exact := ClassifyExactness(low, high)
		count := CountMatchings(low)
		raced[ci] = len(count.Races) > 0
		if f := checkHint(pat, p, low); f != nil {
			findings = append(findings, *f)
		}
		summary := ConfigSummary{
			Pattern:            pat.Name(),
			Procs:              cfg.Procs,
			Iterations:         cfg.Iterations,
			Ops:                low.OpCount,
			TraceEvents:        low.TotalTraced(),
			Matchings:          count.Matchings,
			MatchingsSaturated: count.Saturated,
			Exactness:          exact.String(),
			RaceSlots:          len(count.Races),
			NDCallSites:        ndCallSites(count.Races),
		}
		summaries = append(summaries, summary)
		if len(count.Races) > 0 {
			findings = append(findings, ndStructureFinding(pat.Name(), cfg, count, summary))
		}
	}
	findings = append(findings, checkDeterministic(pat, configs, raced)...)
	findings = applyExceptions(findings, opts.exceptions())
	sortFindings(findings)
	return findings, summaries
}

// ndCallSites counts the distinct pattern call sites behind racy
// receive slots — the paper's root-source view of where
// non-determinism enters.
func ndCallSites(races []SlotRace) int {
	var sites []string
	for _, r := range races {
		sites = appendNew(sites, r.Caller)
	}
	return len(sites)
}

// ndStructureFinding is the informational per-configuration ND-source
// report: every racy wildcard slot with its exact candidate-sender set.
func ndStructureFinding(pattern string, cfg Config, count Count, s ConfigSummary) Finding {
	witness := make([]string, 0, maxPerCheck+1)
	for i, r := range count.Races {
		if i == maxPerCheck {
			witness = append(witness, fmt.Sprintf("... and %d further racy slots", len(count.Races)-maxPerCheck))
			break
		}
		qual := ""
		if r.Partial {
			qual = " (candidate set may be incomplete)"
		}
		witness = append(witness, fmt.Sprintf("rank %d slot %d (op %d) in %s: candidate senders {%s}%s",
			r.Rank, r.Slot, r.Op, r.Caller, joinInts(r.Candidates), qual))
	}
	return Finding{
		Check: "nd-structure", Severity: SevInfo, Pattern: pattern,
		Procs: cfg.Procs, Iterations: cfg.Iterations, Rank: -1,
		Message: fmt.Sprintf("%d receive slots race across %d call sites; distinct matchings: %s",
			s.RaceSlots, s.NDCallSites, s.MatchingsLabel()),
		Witness: witness,
	}
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}

// VerifyPatterns verifies each pattern across the sweep and returns the
// combined findings plus per-configuration summaries, in argument
// order. Patterns are independent, so min(GOMAXPROCS, len(pats))
// goroutines verify them concurrently (par.ForEach); each pattern's
// results land at its own index, so the output is the same at every
// core count.
func VerifyPatterns(pats []patterns.Pattern, opts Options) ([]Finding, []ConfigSummary) {
	type result struct {
		findings  []Finding
		summaries []ConfigSummary
	}
	results := make([]result, len(pats))
	par.ForEach(0, len(pats), func(i int) {
		results[i].findings, results[i].summaries = VerifyPattern(pats[i], opts)
	})
	var (
		findings  []Finding
		summaries []ConfigSummary
	)
	for _, r := range results {
		findings = append(findings, r.findings...)
		summaries = append(summaries, r.summaries...)
	}
	return findings, summaries
}

// VerifyAll verifies every registered pattern and returns the combined
// findings plus per-configuration summaries, in registry order.
func VerifyAll(opts Options) ([]Finding, []ConfigSummary) {
	return VerifyPatterns(patterns.All(), opts)
}
