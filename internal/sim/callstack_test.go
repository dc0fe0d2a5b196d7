package sim_test

import (
	"runtime"
	"strings"
	"testing"

	"github.com/anacin-go/anacinx/internal/patterns"
	"github.com/anacin-go/anacinx/internal/sim"
	"github.com/anacin-go/anacinx/internal/trace"
)

// callersSink checks every event, as the rank that records it hands it
// over, against a runtime.Callers decode of that rank's call-path.
type callersSink struct {
	t       *testing.T
	pattern string
	stacks  int
}

func (s *callersSink) Append(ev trace.Event) {
	want := callersKey()
	got := ev.CallstackKey()
	if len(ev.Callstack) == 0 {
		// Init and Finalize are recorded by the simulator, not a call.
		if ev.Kind != trace.KindInit && ev.Kind != trace.KindFinalize {
			s.t.Errorf("%s: rank %d %s event has no callstack", s.pattern, ev.Rank, ev.Kind)
		}
		return
	}
	s.stacks++
	if got != want {
		s.t.Errorf("%s: rank %d %s event\n  recorded %q\n  Callers  %q", s.pattern, ev.Rank, ev.Kind, got, want)
	}
}

// callersKey decodes runtime.Callers from the sink's caller (the
// recording rank) with the trace package's trimming rules: runtime,
// testing and simulator-machinery frames go, names lose their import
// path, and at most 32 frames stay.
//
//go:noinline
func callersKey() string {
	var pcs [128]uintptr
	n := runtime.Callers(3, pcs[:]) // runtime.Callers, callersKey, Append
	frames := runtime.CallersFrames(pcs[:n])
	var stack []string
	for {
		f, more := frames.Next()
		name := f.Function
		if name != "" && !trimmedForTest(name) && len(stack) < 32 {
			stack = append(stack, name[strings.LastIndexByte(name, '/')+1:])
		}
		if !more {
			break
		}
	}
	return strings.Join(stack, ";")
}

func trimmedForTest(name string) bool {
	for _, p := range []string{
		"runtime.",
		"testing.",
		"github.com/anacin-go/anacinx/internal/sim.(*Rank).",
		"github.com/anacin-go/anacinx/internal/sim.(*simulation).",
	} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return strings.Contains(name, ".Adapt.func")
}

// Every registered pattern, run with stacks on, records on each MPI
// event the callstack a runtime.Callers decode gives at that moment.
func TestCallstacksMatchRuntimeCallers(t *testing.T) {
	for _, pat := range patterns.All() {
		procs := max(8, pat.MinProcs())
		params := patterns.DefaultParams(procs)
		params.Iterations = 2
		program, err := pat.Program(params)
		if err != nil {
			t.Fatalf("%s: %v", pat.Name(), err)
		}
		cfg := sim.DefaultConfig(procs, 3)
		cfg.Nodes = 2
		cfg.NDPercent = 50
		cfg.CaptureStacks = true
		sink := &callersSink{t: t, pattern: pat.Name()}
		cfg.Sink = sink
		if _, _, err := sim.Run(cfg, trace.Meta{Pattern: pat.Name(), Procs: procs}, sim.Adapt(program)); err != nil {
			t.Fatalf("%s: %v", pat.Name(), err)
		}
		if sink.stacks == 0 {
			t.Errorf("%s: no event carried a callstack", pat.Name())
		}
	}
}
