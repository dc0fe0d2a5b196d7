// Package sim is a deterministic discrete-event simulation of an MPI-like
// message-passing runtime. It is the substrate this repository uses in
// place of a real MPI installation: rank programs are ordinary Go
// functions run on goroutines, but exactly one rank executes at a time,
// coupled to a virtual-time scheduler that always advances the globally
// earliest action. Given the same Config (including Seed) a run is
// bit-reproducible.
//
// Non-determinism is modelled, not incidental — exactly as in ANACIN-X's
// communication-pattern benchmarks: with probability NDPercent/100 each
// message suffers an extra random network delay ("congestion"), which can
// permute the arrival order of messages racing into a Recv(AnySource).
// Different seeds then stand in for different real-world executions.
// At NDPercent = 0 no jitter is injected and every seed produces the
// same communication structure.
//
// The runtime supports blocking and non-blocking point-to-point
// operations (Send, Recv, Isend, Irecv, Wait, Probe) with AnySource and
// AnyTag wildcards, the MPI non-overtaking guarantee per (src,dst)
// channel, a node-aware latency model, deadlock detection, collective
// operations built on point-to-point messaging, and ReMPI-style
// record-and-replay of message-matching orders.
package sim

import (
	"context"
	"fmt"
	"strings"

	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// Wildcards accepted by Recv, Irecv, and Probe.
const (
	// AnySource matches a message from any sending rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// Program is the code one rank executes, analogous to the body between
// MPI_Init and MPI_Finalize. The runtime records Init and Finalize
// events around it automatically.
type Program func(r *Rank)

// Config parameterizes a simulated execution. The zero value is not
// runnable; start from DefaultConfig.
type Config struct {
	// Procs is the number of MPI ranks. Must be >= 1.
	Procs int
	// Nodes is the number of compute nodes ranks are block-distributed
	// across. Must be >= 1. Messages crossing a node boundary pay a
	// higher base latency and, under non-determinism injection, a larger
	// jitter — which is why the paper recommends multi-node runs to
	// surface non-determinism.
	Nodes int
	// NDPercent is the percentage of messages (0..100) subject to a
	// random congestion delay: the paper's "percentage of
	// non-determinism" knob.
	NDPercent float64
	// Seed selects the random stream. Runs differing only in Seed model
	// independent executions of the same program.
	Seed int64
	// Net is the latency model. Zero fields are filled from DefaultNet.
	Net NetModel
	// Replay, when non-nil, forces every traced receive to match the
	// recorded message, suppressing non-determinism (see Record).
	Replay *Schedule
	// CaptureStacks controls whether events record callstacks. It
	// defaults to true via DefaultConfig; benchmarks that do not need
	// root-source analysis can disable it.
	CaptureStacks bool
	// MaxEvents aborts runaway programs; 0 means DefaultMaxEvents.
	MaxEvents int
	// EventsPerRankHint presizes each rank's event stream in the trace,
	// avoiding append-doubling churn during recording. It is purely a
	// capacity hint — traces grow past it freely; 0 means
	// DefaultEventsPerRankHint.
	EventsPerRankHint int
	// Sink, when non-nil, streams every recorded event out of the
	// simulation (in scheduler order) instead of accumulating an
	// in-memory trace: Run then returns a nil *trace.Trace and the
	// caller reads events back through the sink's own output (a
	// trace.StreamWriter feeding a v2 trace file, typically). Per-rank
	// sequence numbers are the sink's concern; sink errors surface
	// through the sink (trace.StreamWriter.Close/Err), not through Run.
	Sink trace.EventSink
}

// DefaultEventsPerRankHint is the per-rank event-stream capacity used
// when Config.EventsPerRankHint is zero. Sized for a typical benchmark
// pattern iteration count; a wrong guess only costs one slice regrowth
// cascade per rank.
const DefaultEventsPerRankHint = 64

// DefaultMaxEvents is the per-run event budget used when
// Config.MaxEvents is zero.
const DefaultMaxEvents = 50_000_000

// NetModel describes message timing. All durations are virtual.
//
// A message of s bytes sent at local time t from src to dst arrives at
//
//	t + SendOverhead + alpha(src,dst) + s/Bandwidth + J
//
// where alpha is IntraNodeLatency or InterNodeLatency and J is 0, or an
// exponential jitter with the link's JitterMean when the message is
// selected for congestion (probability NDPercent/100). Arrival times on
// one (src,dst) channel are additionally forced to be strictly
// increasing, preserving MPI's non-overtaking guarantee.
type NetModel struct {
	SendOverhead     vtime.Duration
	RecvOverhead     vtime.Duration
	IntraNodeLatency vtime.Duration
	InterNodeLatency vtime.Duration
	// BandwidthBytesPerNs is the per-message serialization bandwidth in
	// bytes per virtual nanosecond (1.0 == ~1 GB/s).
	BandwidthBytesPerNs float64
	// JitterMeanIntra/Inter are the means of the exponential congestion
	// delay for intra- and inter-node messages.
	JitterMeanIntra vtime.Duration
	JitterMeanInter vtime.Duration
	// InterNodeNDBoost multiplies the congestion-delay probability of
	// messages that cross a node boundary (clamped to 1). Values above
	// 1 model the paper's observation that running across multiple
	// compute nodes "increases the likelihood that runs are
	// non-deterministic": shared switches and NICs make congestion more
	// frequent, not just larger. Must be >= 1.
	InterNodeNDBoost float64
	// RendezvousThreshold switches sends of at least this many bytes
	// from the eager protocol (send completes locally) to the
	// rendezvous protocol (send completes only when a matching receive
	// consumes the message — so large blocking sends can deadlock, as
	// in real MPI). 0 disables rendezvous entirely. The simplification
	// relative to real rendezvous: transfer *timing* stays eager; only
	// the sender's completion semantics change.
	RendezvousThreshold int
}

// DefaultNet is a commodity-cluster-flavoured latency model: sub-µs
// intra-node latency, a few µs across nodes.
//
// The congestion jitter is deliberately on the order of the
// inter-arrival spacing of a send burst (a few send overheads), not far
// above it: a delayed message then leapfrogs a handful of neighbours
// rather than dropping to the back of the arrival queue. This keeps the
// measured non-determinism *graded* in the injected percentage — the
// rising curve of the paper's Fig. 7 — where an oversized jitter
// saturates the kernel distance at ~10% injection because every delayed
// message reshuffles the entire match order. Inter-node jitter is 3x
// intra-node, which is why multi-node placements surface more
// non-determinism at the same injection level (paper §III-A).
var DefaultNet = NetModel{
	SendOverhead:        200 * vtime.Nanosecond,
	RecvOverhead:        200 * vtime.Nanosecond,
	IntraNodeLatency:    500 * vtime.Nanosecond,
	InterNodeLatency:    2 * vtime.Microsecond,
	BandwidthBytesPerNs: 1.0,
	JitterMeanIntra:     500 * vtime.Nanosecond,
	JitterMeanInter:     4 * vtime.Microsecond,
	InterNodeNDBoost:    3,
}

// DefaultConfig returns a runnable single-node configuration for the
// given process count and seed, with non-determinism disabled.
func DefaultConfig(procs int, seed int64) Config {
	return Config{
		Procs:         procs,
		Nodes:         1,
		NDPercent:     0,
		Seed:          seed,
		Net:           DefaultNet,
		CaptureStacks: true,
	}
}

// validate checks the configuration and fills defaulted fields.
func (c *Config) validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("sim: Procs = %d, need >= 1", c.Procs)
	}
	if c.Nodes < 1 {
		return fmt.Errorf("sim: Nodes = %d, need >= 1", c.Nodes)
	}
	if c.Nodes > c.Procs {
		return fmt.Errorf("sim: Nodes = %d exceeds Procs = %d", c.Nodes, c.Procs)
	}
	if c.NDPercent < 0 || c.NDPercent > 100 {
		return fmt.Errorf("sim: NDPercent = %v, need 0..100", c.NDPercent)
	}
	if c.Net == (NetModel{}) {
		c.Net = DefaultNet
	}
	if c.Net.BandwidthBytesPerNs <= 0 {
		return fmt.Errorf("sim: BandwidthBytesPerNs = %v, need > 0", c.Net.BandwidthBytesPerNs)
	}
	if c.Net.InterNodeNDBoost == 0 {
		c.Net.InterNodeNDBoost = 1
	}
	if c.Net.InterNodeNDBoost < 1 {
		return fmt.Errorf("sim: InterNodeNDBoost = %v, need >= 1", c.Net.InterNodeNDBoost)
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	if c.EventsPerRankHint == 0 {
		c.EventsPerRankHint = DefaultEventsPerRankHint
	}
	if c.EventsPerRankHint < 0 {
		return fmt.Errorf("sim: EventsPerRankHint = %d, need >= 0", c.EventsPerRankHint)
	}
	if c.Replay != nil {
		if err := c.Replay.validate(c.Procs); err != nil {
			return err
		}
	}
	return nil
}

// NodeOf returns the compute node hosting the given rank under block
// distribution: ranks [0..P/N) on node 0, and so on.
func (c *Config) NodeOf(rank int) int {
	perNode := (c.Procs + c.Nodes - 1) / c.Nodes
	return rank / perNode
}

// Stats summarizes a completed run.
type Stats struct {
	// FinalTime is the virtual time at which the last rank finalized.
	FinalTime vtime.Time
	// Messages is the number of point-to-point messages delivered,
	// including the internal messages of collective operations.
	Messages int
	// Bytes is the total payload volume delivered.
	Bytes int64
	// Delayed is how many messages received a congestion delay.
	Delayed int
	// Events is the number of trace events recorded.
	Events int
}

// Run executes program on every rank under cfg and returns the recorded
// trace. meta fields describing the workload (Pattern, Iterations,
// MsgSize) are caller-provided; Run fills the fields it owns (Procs,
// Nodes, NDPercent, Seed). When cfg.Sink is set, events stream to the
// sink instead and the returned trace is nil.
func Run(cfg Config, meta trace.Meta, program Program) (*trace.Trace, *Stats, error) {
	return RunContext(context.Background(), cfg, meta, program)
}

// RunContext is Run with cancellation: when ctx is cancelled the
// simulation aborts at the next scheduler step (or fast-path yield),
// unwinds every rank goroutine, and returns an error satisfying
// errors.Is(err, ctx.Err()). A cancelled run yields no trace — partial
// traces would not be reproducible artifacts.
func RunContext(ctx context.Context, cfg Config, meta trace.Meta, program Program) (*trace.Trace, *Stats, error) {
	if program == nil {
		return nil, nil, fmt.Errorf("sim: nil program")
	}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	meta.Procs = cfg.Procs
	meta.Nodes = cfg.Nodes
	meta.NDPercent = cfg.NDPercent
	meta.Seed = cfg.Seed
	s := newSim(cfg, meta)
	s.ctx = ctx
	s.cancellable = ctx.Done() != nil
	return s.run(program)
}

// DeadlockError reports that every unfinished rank was blocked with no
// message in flight. It lists each blocked rank's wait state, which is
// the information a student needs to diagnose the hang.
type DeadlockError struct {
	// Blocked maps rank → human-readable wait description.
	Blocked map[int]string
	// Time is the virtual time at which progress stopped.
	Time vtime.Time
}

// Error implements the error interface.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%v: %d rank(s) blocked:", e.Time, len(e.Blocked))
	for rank := 0; ; rank++ {
		desc, ok := e.Blocked[rank]
		if ok {
			fmt.Fprintf(&b, " rank %d %s;", rank, desc)
		}
		if rank > 1<<20 { // defensive; ranks are small
			break
		}
		if len(e.Blocked) == 0 || rank > maxKey(e.Blocked) {
			break
		}
	}
	return strings.TrimSuffix(b.String(), ";")
}

func maxKey(m map[int]string) int {
	max := -1
	for k := range m {
		if k > max {
			max = k
		}
	}
	return max
}

// PanicError reports that a rank program panicked.
type PanicError struct {
	Rank  int
	Value any
	Stack string
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: rank %d panicked: %v", e.Rank, e.Value)
}
