package sim_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
	"github.com/anacin-go/anacinx/internal/vtime"
)

// lockstepCompute keeps two ranks at equal clocks, so no yield after
// the first takes the fast path: each Compute leaves the other rank
// ahead in (clock, id) order, and every scheduling step alternates a
// failed fast-path check (an even step) with a pick (an odd step).
func lockstepCompute(r *sim.Rank) {
	for {
		r.Compute(vtime.Nanosecond)
	}
}

// Every early exit must unwind all rank goroutines before Run returns
// (or promptly after): the rank that ends a run hands control back to
// Run itself, and shutdown resumes every parked rank into the abort
// sentinel. Each case also pins the error type Run reports.
func TestRunLeavesNoRankGoroutines(t *testing.T) {
	isBudget := func(err error) bool { return err != nil && strings.Contains(err.Error(), "step budget") }
	isCancel := func(err error) bool { return errors.Is(err, context.Canceled) }
	cases := []struct {
		name  string
		procs int
		// maxEvents, when non-zero, overrides the step budget.
		maxEvents int
		ctx       func() (context.Context, context.CancelFunc)
		program   func(cancel context.CancelFunc) sim.Program
		wantErr   func(error) bool
	}{
		{
			name:  "deadlock",
			procs: 8,
			program: func(context.CancelFunc) sim.Program {
				return func(r *sim.Rank) {
					if r.Rank()%2 == 0 {
						r.Recv(sim.AnySource, 99)
					}
				}
			},
			wantErr: func(err error) bool { var dl *sim.DeadlockError; return errors.As(err, &dl) },
		},
		{
			name:  "rank panic",
			procs: 8,
			program: func(context.CancelFunc) sim.Program {
				return func(r *sim.Rank) {
					if r.Rank() == 5 {
						panic("boom")
					}
					r.Recv(sim.AnySource, sim.AnyTag)
				}
			},
			wantErr: func(err error) bool { var pe *sim.PanicError; return errors.As(err, &pe) && pe.Rank == 5 },
		},
		{
			// Step 1001 is odd, so the budget trips inside pick.
			name:      "step budget in pick",
			procs:     2,
			maxEvents: 1000,
			program:   func(context.CancelFunc) sim.Program { return lockstepCompute },
			wantErr:   isBudget,
		},
		{
			// Step 1002 is even: the budget trips on the failed fast path.
			name:      "step budget on fast-path check",
			procs:     2,
			maxEvents: 1001,
			program:   func(context.CancelFunc) sim.Program { return lockstepCompute },
			wantErr:   isBudget,
		},
		{
			// A lone rank never meets a competitor: every yield after the
			// first pick succeeds on the fast path until the budget trips.
			name:      "step budget on fast path",
			procs:     1,
			maxEvents: 1000,
			program:   func(context.CancelFunc) sim.Program { return lockstepCompute },
			wantErr:   isBudget,
		},
		{
			name:  "pre-cancelled context",
			procs: 8,
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, cancel
			},
			program: func(context.CancelFunc) sim.Program { return ringProgram(10) },
			wantErr: isCancel,
		},
		{
			// Rank 0 cancels from inside the run, so no helper goroutine
			// is left to skew the count; the next context poll ends it.
			name:  "cancel mid-run",
			procs: 8,
			ctx:   func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			program: func(cancel context.CancelFunc) sim.Program {
				ring := ringProgram(1_000_000)
				return func(r *sim.Rank) {
					if r.Rank() == 0 {
						r.Compute(vtime.Microsecond)
						cancel()
					}
					ring(r)
				}
			},
			wantErr: isCancel,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if tc.ctx != nil {
				ctx, cancel = tc.ctx()
			}
			defer cancel()
			cfg := sim.DefaultConfig(tc.procs, 1)
			cfg.CaptureStacks = false
			cfg.MaxEvents = tc.maxEvents
			base := runtime.NumGoroutine()
			tr, _, err := sim.RunContext(ctx, cfg, trace.Meta{}, tc.program(cancel))
			if !tc.wantErr(err) {
				t.Fatalf("err = %v (%T), want the %s error", err, err, tc.name)
			}
			if tr != nil {
				t.Error("failed run returned a trace")
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// discardSink counts and drops events. Its padding keeps it out of the
// tiny allocator, whose shared blocks would delay its finalizer.
type discardSink struct {
	n   int
	pad [64]byte
}

func (s *discardSink) Append(trace.Event) { s.n++ }

// freedAfterGC reports whether the finalizer behind freed runs once
// nothing but the caller's other values is left.
func freedAfterGC(freed <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

// The stats a run returns must not keep the simulation reachable: a
// caller that keeps only a run's stats (as a campaign cell does for
// every run until the cell completes) must not also keep that run's
// trace or sink, and everything they reference, alive.
func TestRunStatsDoNotPinSimulation(t *testing.T) {
	program := func(r *sim.Rank) {
		if r.Rank() == 0 {
			r.Recv(sim.AnySource, sim.AnyTag)
			return
		}
		if r.Rank() == 1 {
			r.SendSize(0, 0, 8)
		}
	}
	t.Run("sink", func(t *testing.T) {
		freed := make(chan struct{})
		sink := &discardSink{}
		runtime.SetFinalizer(sink, func(*discardSink) { close(freed) })
		cfg := sim.DefaultConfig(4, 1)
		cfg.Sink = sink
		_, stats, err := sim.Run(cfg, trace.Meta{}, program)
		if err != nil {
			t.Fatal(err)
		}
		sink, cfg.Sink = nil, nil
		if !freedAfterGC(freed) {
			t.Error("the run's sink is still reachable through its stats")
		}
		runtime.KeepAlive(stats)
	})
	t.Run("trace", func(t *testing.T) {
		freed := make(chan struct{})
		tr, stats, err := sim.Run(sim.DefaultConfig(4, 1), trace.Meta{}, program)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(tr, func(*trace.Trace) { close(freed) })
		tr = nil
		if !freedAfterGC(freed) {
			t.Error("the run's trace is still reachable through its stats")
		}
		runtime.KeepAlive(stats)
	})
}
