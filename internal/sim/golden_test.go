package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// The golden-trace suite pins the simulator's observable output at the
// byte level: each case runs a program covering one protocol family
// (eager, rendezvous, collectives, record-and-replay) and compares the
// binary serialization of the resulting trace against a checked-in
// file. The files were generated from the simulator BEFORE the
// allocation-lean hot-path rework (interned callstacks, ready-rank
// heap, pooled messages), so a passing suite proves the optimizations
// changed not a single byte of any trace: replay matching
// (MatchKey = (src, ChanSeq)), Lamport clocks, virtual times, and the
// callstack table that root-source analysis ranks all survive intact.
//
// Regenerate with `go test ./internal/sim -run TestGoldenTraces -update`
// — but only when an intentional semantic change to the simulator is
// being made, never to paper over an accidental one.
var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenCase runs program under cfg and compares (or, with -update,
// rewrites) the binary trace against testdata/<name>.trace.
func goldenCase(t *testing.T, name string, cfg Config, program Program) {
	t.Helper()
	tr, _, err := Run(cfg, trace.Meta{Pattern: "golden/" + name}, program)
	if err != nil {
		t.Fatalf("%s: Run: %v", name, err)
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("%s: WriteBinary: %v", name, err)
	}
	path := filepath.Join("testdata", name+".trace")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: wrote %d bytes (%d events)", name, buf.Len(), tr.NumEvents())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: missing golden file (run with -update to create): %v", name, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		// Reparse both sides for a readable first-divergence report.
		t.Errorf("%s: serialized trace differs from golden (%d bytes now, %d golden)",
			name, buf.Len(), len(want))
		gold, gerr := trace.ReadBinary(bytes.NewReader(want))
		if gerr != nil {
			t.Fatalf("%s: golden file unreadable: %v", name, gerr)
		}
		reportFirstDivergence(t, name, gold, tr)
	}
}

// reportFirstDivergence prints the first event-level difference between
// the golden and current traces, the byte diff's human face.
func reportFirstDivergence(t *testing.T, name string, gold, cur *trace.Trace) {
	t.Helper()
	if gold.Procs() != cur.Procs() {
		t.Errorf("%s: procs %d, golden %d", name, cur.Procs(), gold.Procs())
		return
	}
	for rank := 0; rank < gold.Procs(); rank++ {
		ge, ce := gold.Events[rank], cur.Events[rank]
		n := len(ge)
		if len(ce) < n {
			n = len(ce)
		}
		for i := 0; i < n; i++ {
			g, c := &ge[i], &ce[i]
			if g.Kind != c.Kind || g.Peer != c.Peer || g.Tag != c.Tag ||
				g.Size != c.Size || g.MsgID != c.MsgID || g.ChanSeq != c.ChanSeq ||
				g.Time != c.Time || g.Lamport != c.Lamport ||
				g.CallstackKey() != c.CallstackKey() {
				t.Errorf("%s: first divergence at rank %d event %d:\n  golden: %+v (stack %s)\n  now:    %+v (stack %s)",
					name, rank, i, *g, g.CallstackKey(), *c, c.CallstackKey())
				return
			}
		}
		if len(ge) != len(ce) {
			t.Errorf("%s: rank %d has %d events, golden %d", name, rank, len(ce), len(ge))
			return
		}
	}
}

// ---- eager point-to-point ----

// goldenDrainRace receives one racing message with a wildcard, the
// paper's canonical non-deterministic receive.
func goldenDrainRace(r *Rank) Message { return r.Recv(AnySource, 3) }

// goldenRaceSend fires one message into the rank-0 race.
func goldenRaceSend(r *Rank, iter int) { r.Send(0, 3, []byte{byte(r.Rank()), byte(iter)}) }

// goldenHaloExchange is one eager ring step: post the receive, send,
// complete — the Irecv/Send/Wait triple every halo pattern uses.
func goldenHaloExchange(r *Rank, iter int) {
	p := r.Size()
	next, prev := (r.Rank()+1)%p, (r.Rank()-1+p)%p
	req := r.Irecv(prev, 7)
	r.Send(next, 7, []byte{byte(iter)})
	r.Wait(req)
}

func goldenEagerProgram(r *Rank) {
	for iter := 0; iter < 3; iter++ {
		if r.Rank() == 0 {
			for i := 1; i < r.Size(); i++ {
				goldenDrainRace(r)
			}
		} else {
			goldenRaceSend(r, iter)
		}
		goldenHaloExchange(r, iter)
		r.Compute(500 * vtime.Nanosecond)
	}
	// Probe-then-receive, plus size-only messages.
	if r.Rank() == 1 {
		r.SendSize(2, 9, 4096)
	}
	if r.Rank() == 2 {
		src, tag, _ := r.Probe(1, 9)
		r.Recv(src, tag)
	}
}

// ---- rendezvous protocol ----

// goldenRendezvousPair exercises the blocking rendezvous handshake:
// even ranks block in Send until the odd partner's late Recv consumes.
func goldenRendezvousPair(r *Rank, payload []byte) {
	if r.Rank()%2 == 0 {
		r.Send(r.Rank()+1, 11, payload)
	} else {
		r.Compute(5 * vtime.Microsecond) // make the sender wait
		r.Recv(r.Rank()-1, 11)
	}
}

// goldenRendezvousIsend exercises the non-blocking rendezvous path:
// the Isend completes only when the partner consumes, so Wait blocks.
func goldenRendezvousIsend(r *Rank, payload []byte) {
	if r.Rank()%2 == 1 {
		req := r.Isend(r.Rank()-1, 13, payload)
		r.Compute(1 * vtime.Microsecond)
		r.Wait(req)
	} else {
		r.Compute(3 * vtime.Microsecond)
		r.Recv(r.Rank()+1, 13)
	}
}

func goldenRendezvousProgram(r *Rank) {
	payload := make([]byte, 256) // over the 64 B golden threshold
	for i := range payload {
		payload[i] = byte(r.Rank() + i)
	}
	goldenRendezvousPair(r, payload)
	goldenRendezvousIsend(r, payload)
	// Head-to-head Sendrecv above the threshold: must not deadlock.
	p := r.Size()
	r.Sendrecv((r.Rank()+1)%p, 17, payload, (r.Rank()-1+p)%p, 17)
}

// ---- collectives ----

func goldenCollectiveProgram(r *Rank) {
	sum := func(a, b []byte) []byte {
		out := append([]byte(nil), a...)
		for i := range out {
			if i < len(b) {
				out[i] += b[i]
			}
		}
		return out
	}
	me := []byte{byte(r.Rank() + 1), 0xA5}
	r.Barrier()
	r.Bcast(2, []byte{42, 43, 44})
	r.Reduce(0, me, sum)
	r.Allreduce(me, sum)
	r.Gather(1, me)
	parts := make([][]byte, r.Size())
	for i := range parts {
		parts[i] = []byte{byte(r.Rank()), byte(i)}
	}
	r.Scatter(0, parts)
	r.Allgather(me)
	r.Alltoall(parts)
	r.Scan(me, sum)
	r.ReduceArrival(0, me, sum) // arrival-ordered: exercises wildcard internal recvs
}

// ---- programs shared by the replay pair ----

func goldenReplayProgram(r *Rank) {
	for iter := 0; iter < 4; iter++ {
		if r.Rank() == 0 {
			for i := 1; i < r.Size(); i++ {
				goldenDrainRace(r)
			}
		} else {
			goldenRaceSend(r, iter)
			r.Compute(vtime.Duration(r.Rank()) * 300 * vtime.Nanosecond)
		}
	}
}

func goldenConfig(procs int, nd float64, seed int64) Config {
	cfg := DefaultConfig(procs, seed)
	cfg.Nodes = 2
	cfg.NDPercent = nd
	return cfg
}

// goldenSpec is one golden case: the run whose trace is pinned at
// testdata/<name>.trace.
type goldenSpec struct {
	name    string
	cfg     Config
	program Program
}

// goldenSpecs returns the golden cases in file order.
func goldenSpecs(t *testing.T) []goldenSpec {
	t.Helper()
	eager := goldenConfig(8, 100, 41)

	rdv := goldenConfig(8, 100, 43)
	rdv.Net = DefaultNet
	rdv.Net.RendezvousThreshold = 64

	coll := goldenConfig(7, 100, 47)

	// Record at one seed, replay under a different seed: the replayed
	// trace's match structure is pinned by the schedule, so its bytes
	// are a joint invariant of the matcher, the replay engine, and the
	// scheduler.
	recCfg := goldenConfig(8, 100, 53)
	recTr, _, err := Run(recCfg, trace.Meta{Pattern: "golden/replay-record"}, goldenReplayProgram)
	if err != nil {
		t.Fatalf("replay recording run: %v", err)
	}
	replayCfg := goldenConfig(8, 100, 99) // different seed: jitter differs, matches must not
	replayCfg.Replay = RecordSchedule(recTr)

	return []goldenSpec{
		{"eager-8rank-nd100", eager, goldenEagerProgram},
		{"rendezvous-8rank-nd100", rdv, goldenRendezvousProgram},
		{"collectives-7rank-nd100", coll, goldenCollectiveProgram},
		{"replay-8rank-nd100", replayCfg, goldenReplayProgram},
	}
}

func TestGoldenTraces(t *testing.T) {
	for _, c := range goldenSpecs(t) {
		goldenCase(t, c.name, c.cfg, c.program)
	}
}
