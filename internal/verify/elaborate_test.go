package verify

import (
	"strings"
	"testing"

	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
)

// elaboratePattern is the test helper: canonical elaboration of a
// registered pattern at the given configuration.
func elaboratePattern(t *testing.T, name string, procs, iters int, policy Policy) *Result {
	t.Helper()
	pat, err := patterns.ByName(name)
	if err != nil {
		t.Fatalf("ByName(%q): %v", name, err)
	}
	p := patterns.DefaultParams(procs)
	p.Iterations = iters
	prog, err := pat.Program(p)
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	return Elaborate(prog, procs, policy, 0, 0)
}

func TestElaborateMessageRaceStructure(t *testing.T) {
	res := elaboratePattern(t, "message_race", 4, 2, PolicyLow)
	if !res.Clean() {
		t.Fatalf("message_race elaboration not clean: %+v", res)
	}
	// Each of 3 workers sends 2 messages to rank 0; rank 0 posts 6
	// wildcard receives.
	if got := len(res.Msgs); got != 6 {
		t.Fatalf("messages = %d, want 6", got)
	}
	for _, m := range res.Msgs {
		if m.Dst != 0 {
			t.Fatalf("message to rank %d, want all to rank 0", m.Dst)
		}
		if !m.Consumed {
			t.Fatalf("unconsumed message %+v", m)
		}
	}
	if got := len(res.Slots[0]); got != 6 {
		t.Fatalf("rank 0 slots = %d, want 6", got)
	}
	for _, s := range res.Slots[0] {
		if s.SrcFilter != sim.AnySource {
			t.Fatalf("slot src filter = %d, want AnySource", s.SrcFilter)
		}
		if s.MatchSrc < 1 || s.MatchSrc > 3 {
			t.Fatalf("slot matched src %d, want worker 1..3", s.MatchSrc)
		}
	}
	// Trace accounting: workers record 2 sends each, rank 0 records 6
	// receives, plus the bracket of 2 per rank.
	if got, want := res.TotalTraced(), 6+6+2*4; got != want {
		t.Fatalf("TotalTraced = %d, want %d", got, want)
	}
	// Callers surface the pattern functions, not the verify internals.
	found := false
	for _, o := range res.Ranks[0].Ops {
		if o.Kind == OpRecv && strings.Contains(o.Caller, "drainRaces") {
			found = true
		}
		if strings.Contains(o.Caller, "verify.") {
			t.Fatalf("op caller leaked verify internals: %q", o.Caller)
		}
	}
	if !found {
		t.Fatalf("no Recv op attributed to drainRaces; ops: %+v", res.Ranks[0].Ops)
	}
}

func TestElaboratePolicyChangesWildcardMatches(t *testing.T) {
	low := elaboratePattern(t, "message_race", 3, 1, PolicyLow)
	high := elaboratePattern(t, "message_race", 3, 1, PolicyHigh)
	if !skeletonsEqual(low, high) {
		t.Fatalf("message_race skeletons diverged across policies")
	}
	if low.Slots[0][0].MatchSrc == high.Slots[0][0].MatchSrc {
		t.Fatalf("first wildcard slot matched src %d under both policies; want policy-dependent match",
			low.Slots[0][0].MatchSrc)
	}
}

func TestElaborateAllRegisteredPatternsClean(t *testing.T) {
	for _, pat := range patterns.All() {
		for _, cfg := range (&Options{}).Sweep(pat.MinProcs()) {
			p := patterns.DefaultParams(cfg.Procs)
			p.Iterations = cfg.Iterations
			prog, err := pat.Program(p)
			if err != nil {
				t.Fatalf("%s: Program: %v", pat.Name(), err)
			}
			res := Elaborate(prog, cfg.Procs, PolicyLow, 0, 0)
			if !res.Clean() {
				t.Errorf("%s P=%d iters=%d: elaboration not clean (stalled=%v coll=%q budget=%v)",
					pat.Name(), cfg.Procs, cfg.Iterations, res.Stalled, res.CollMismatch, res.BudgetExceeded)
			}
		}
	}
}

// headToHead is the classic send-free deadlock: every rank Recvs from
// its partner before sending, so nobody ever sends.
func headToHead(r sim.Proc) {
	partner := r.Rank() ^ 1
	r.Recv(partner, 0)
	r.SendSize(partner, 0, 1)
}

func TestDeadlockCycleWitness(t *testing.T) {
	res := Elaborate(headToHead, 2, PolicyLow, 0, 0)
	if !res.Stalled {
		t.Fatalf("head-to-head recv did not stall")
	}
	findings := Analyze("fixture", 2, 1, res)
	var dl *Finding
	for i := range findings {
		if findings[i].Check == "deadlock" {
			dl = &findings[i]
		}
	}
	if dl == nil {
		t.Fatalf("no deadlock finding; got %+v", findings)
	}
	if dl.Severity != SevError {
		t.Fatalf("deadlock severity = %s, want error", dl.Severity)
	}
	if len(dl.Witness) != 2 {
		t.Fatalf("witness cycle length = %d, want 2: %v", len(dl.Witness), dl.Witness)
	}
	for _, w := range dl.Witness {
		if !strings.Contains(w, "Recv") || !strings.Contains(w, "waits on rank") {
			t.Fatalf("witness line %q does not describe a blocked Recv wait edge", w)
		}
	}
}

// lostSend sends a tagged message nobody receives.
func lostSend(r sim.Proc) {
	if r.Rank() == 0 {
		r.SendSize(1, 7, 1)
	}
}

func TestUnmatchedSendWitness(t *testing.T) {
	res := Elaborate(lostSend, 2, PolicyLow, 0, 0)
	if res.Stalled {
		t.Fatalf("eager lost send should not stall")
	}
	if res.Clean() {
		t.Fatalf("unconsumed message should not be clean")
	}
	findings := Analyze("fixture", 2, 1, res)
	var um *Finding
	for i := range findings {
		if findings[i].Check == "unmatched-send" {
			um = &findings[i]
		}
	}
	if um == nil {
		t.Fatalf("no unmatched-send finding; got %+v", findings)
	}
	if um.Rank != 0 {
		t.Fatalf("unmatched-send rank = %d, want 0", um.Rank)
	}
	if len(um.Witness) != 1 || !strings.Contains(um.Witness[0], "tag=7") {
		t.Fatalf("witness %v does not identify the tag-7 send", um.Witness)
	}
}

// starvedRecv receives a message that is never sent.
func starvedRecv(r sim.Proc) {
	if r.Rank() == 1 {
		r.Recv(0, 0)
	}
}

func TestStarvedRecvReportsUnmatchedRecv(t *testing.T) {
	res := Elaborate(starvedRecv, 2, PolicyLow, 0, 0)
	if !res.Stalled {
		t.Fatalf("starved recv did not stall")
	}
	findings := Analyze("fixture", 2, 1, res)
	for _, f := range findings {
		if f.Check == "deadlock" {
			t.Fatalf("starved recv misclassified as deadlock: %+v", f)
		}
	}
	var ur *Finding
	for i := range findings {
		if findings[i].Check == "unmatched-recv" {
			ur = &findings[i]
		}
	}
	if ur == nil || ur.Rank != 1 {
		t.Fatalf("want unmatched-recv at rank 1; got %+v", findings)
	}
}

// rendezvousDeadlock exchanges large sends head-to-head; under a
// rendezvous threshold both block before either can receive.
func rendezvousDeadlock(r sim.Proc) {
	partner := r.Rank() ^ 1
	r.SendSize(partner, 0, 1<<20)
	r.Recv(partner, 0)
}

func TestRendezvousSemanticsGateDeadlock(t *testing.T) {
	// Eager: completes cleanly.
	eager := Elaborate(rendezvousDeadlock, 2, PolicyLow, 0, 0)
	if !eager.Clean() {
		t.Fatalf("eager head-to-head send should complete")
	}
	// Rendezvous at 1 KiB: deadlocks.
	rvz := Elaborate(rendezvousDeadlock, 2, PolicyLow, 1024, 0)
	if !rvz.Stalled {
		t.Fatalf("rendezvous head-to-head send should stall")
	}
	findings := Analyze("fixture", 2, 1, rvz)
	found := false
	for _, f := range findings {
		if f.Check == "deadlock" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deadlock finding under rendezvous threshold; got %+v", findings)
	}
}

// nonblockingRing posts Irecv before sending — the textbook-safe shape;
// it must elaborate clean including Wait bookkeeping.
func nonblockingRing(r sim.Proc) {
	left := (r.Rank() - 1 + r.Size()) % r.Size()
	right := (r.Rank() + 1) % r.Size()
	fp := r.(sim.FullProc)
	req := fp.Irecv(left, 0)
	fp.Send(right, 0, []byte{byte(r.Rank())})
	m := fp.Wait(req)
	if m.Src != left {
		panic("wrong source")
	}
}

func TestElaborateNonblockingRing(t *testing.T) {
	res := Elaborate(nonblockingRing, 4, PolicyLow, 0, 0)
	if !res.Clean() {
		t.Fatalf("nonblocking ring not clean: stalled=%v ranks=%+v", res.Stalled, res.Ranks)
	}
	// Irecv + Send + Wait are traced (1+1+1) plus the bracket.
	for r := range res.Ranks {
		if got, want := res.Ranks[r].Traced, 5; got != want {
			t.Fatalf("rank %d traced = %d, want %d", r, got, want)
		}
	}
}

// forgottenWait posts an Isend and finishes without waiting on it.
func forgottenWait(r sim.Proc) {
	fp := r.(sim.FullProc)
	if r.Rank() == 0 {
		fp.Isend(1, 0, []byte{1})
		return
	}
	r.Recv(0, 0)
}

func TestForgottenWaitReported(t *testing.T) {
	res := Elaborate(forgottenWait, 2, PolicyLow, 0, 0)
	findings := Analyze("fixture", 2, 1, res)
	var uw *Finding
	for i := range findings {
		if findings[i].Check == "unwaited-request" {
			uw = &findings[i]
		}
	}
	if uw == nil || uw.Rank != 0 || uw.Severity != SevWarn {
		t.Fatalf("want unwaited-request warning at rank 0; got %+v", findings)
	}
}

// collSplit joins different collectives on different ranks.
func collSplit(r sim.Proc) {
	fp := r.(sim.FullProc)
	if r.Rank() == 0 {
		fp.Barrier()
	} else {
		fp.Allreduce([]byte{1}, func(a, b []byte) []byte { return a })
	}
}

func TestCollectiveMismatchDetected(t *testing.T) {
	res := Elaborate(collSplit, 2, PolicyLow, 0, 0)
	if res.CollMismatch == "" {
		t.Fatalf("mismatched collectives not detected")
	}
	findings := Analyze("fixture", 2, 1, res)
	found := false
	for _, f := range findings {
		if f.Check == "collective-mismatch" && f.Severity == SevError {
			found = true
		}
	}
	if !found {
		t.Fatalf("no collective-mismatch finding; got %+v", findings)
	}
}

// spinner burns ops forever; the budget must stop it.
func spinner(r sim.Proc) {
	for {
		r.Compute(1)
	}
}

func TestOpBudgetStopsRunawayPrograms(t *testing.T) {
	res := Elaborate(spinner, 2, PolicyLow, 0, 1000)
	if !res.BudgetExceeded {
		t.Fatalf("runaway program did not trip the op budget")
	}
	findings := Analyze("fixture", 2, 1, res)
	found := false
	for _, f := range findings {
		if f.Check == "elaboration" && f.Severity == SevError {
			found = true
		}
	}
	if !found {
		t.Fatalf("budget blowout produced no elaboration finding: %+v", findings)
	}
}

// TestStallBlockDescriptions pins the exact BlockDesc text of every
// block kind: one small stalling program each. The collective case
// checks that a rank reports how many ranks were outstanding when it
// blocked, not when the elaboration stalled.
func TestStallBlockDescriptions(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		rvt   int
		prog  sim.ProcProgram
		want  []string
	}{
		{"recv", 2, 0, func(r sim.Proc) {
			if r.Rank() == 1 {
				r.Recv(0, 5)
			}
		}, []string{"", "rank 1 op 0: Recv(src=0, tag=5) in runtime.goexit"}},
		{"recv-wildcard", 2, 0, func(r sim.Proc) {
			if r.Rank() == 0 {
				r.Compute(1)
				r.Recv(sim.AnySource, sim.AnyTag)
			}
		}, []string{"rank 0 op 1: Recv(src=ANY, tag=ANY) in runtime.goexit", ""}},
		{"probe", 2, 0, func(r sim.Proc) {
			if r.Rank() == 1 {
				r.(sim.FullProc).Probe(0, sim.AnyTag)
			}
		}, []string{"", "rank 1 op 0: Probe(src=0, tag=ANY) in runtime.goexit"}},
		{"wait-irecv", 2, 0, func(r sim.Proc) {
			if r.Rank() == 1 {
				fp := r.(sim.FullProc)
				fp.Wait(fp.Irecv(0, 2))
			}
		}, []string{"", "rank 1 op 1: Wait(Irecv src=0 tag=2) in runtime.goexit"}},
		{"wait-isend-rendezvous", 2, 1024, func(r sim.Proc) {
			if r.Rank() == 0 {
				fp := r.(sim.FullProc)
				fp.Wait(fp.Isend(1, 6, make([]byte, 2048)))
			}
		}, []string{"rank 0 op 1: Wait(Isend dst=1 tag=6) in runtime.goexit", ""}},
		{"waitany", 2, 0, func(r sim.Proc) {
			if r.Rank() == 1 {
				fp := r.(sim.FullProc)
				fp.Waitany([]*sim.Request{fp.Irecv(0, 1), fp.Irecv(0, 2), fp.Irecv(sim.AnySource, 3)})
			}
		}, []string{"", "rank 1: Waitany over 3 requests"}},
		{"rendezvous-send", 2, 1024, func(r sim.Proc) {
			if r.Rank() == 0 {
				r.SendSize(1, 4, 2048)
			}
		}, []string{"rank 0 op 0: Send(dst=1, tag=4, size=2048) in runtime.goexit", ""}},
		{"collective-missing-rank", 3, 0, func(r sim.Proc) {
			fp := r.(sim.FullProc)
			fp.Barrier()
			if r.Rank() != 2 {
				fp.Allreduce([]byte{1}, func(a, b []byte) []byte { return a })
			}
		}, []string{
			"rank 0: collective allreduce #1 awaiting 2 rank(s)",
			"rank 1: collective allreduce #1 awaiting 1 rank(s)",
			"",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := Elaborate(c.prog, c.procs, PolicyLow, c.rvt, 0)
			if !res.Stalled {
				t.Fatalf("program did not stall")
			}
			got := make([]string, len(res.Ranks))
			for i, rr := range res.Ranks {
				got[i] = rr.BlockDesc
			}
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Fatalf("BlockDesc per rank:\n got %q\nwant %q", got, c.want)
			}
		})
	}
}
