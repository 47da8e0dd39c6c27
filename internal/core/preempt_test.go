package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"pregelnet/internal/graph"
)

// preemptOnceAt returns a BarrierPreempt hook that fires exactly once, when
// the job is about to execute the given superstep.
func preemptOnceAt(superstep int) func(int) bool {
	var fired atomic.Bool
	return func(next int) bool {
		if next == superstep && fired.CompareAndSwap(false, true) {
			return true
		}
		return false
	}
}

// runToCompletion drives a preemptible spec through as many suspend/resume
// cycles as the hook causes, returning the final result and the number of
// suspensions observed.
func runToCompletion(t *testing.T, spec JobSpec[uint32]) (*JobResult[uint32], int) {
	t.Helper()
	suspensions := 0
	for {
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("run (after %d suspensions): %v", suspensions, err)
		}
		if res.Suspended == nil {
			return res, suspensions
		}
		suspensions++
		if suspensions > 100 {
			t.Fatal("job never completed: suspended more than 100 times")
		}
		spec.Resume = res.Suspended
	}
}

func TestPreemptResumeBitIdentical(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 7)

	base, err := Run(ckptSpec(g, 4, 0))
	if err != nil {
		t.Fatal(err)
	}

	spec := ckptSpec(g, 4, 0)
	spec.BarrierPreempt = preemptOnceAt(3)
	first, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Suspended == nil {
		t.Fatal("job was not suspended")
	}
	if first.Supersteps != 3 {
		t.Fatalf("Supersteps at suspension = %d, want 3", first.Supersteps)
	}
	if got := first.Suspended.ResumeSuperstep(); got != 3 {
		t.Fatalf("ResumeSuperstep = %d, want 3", got)
	}
	if first.Preemptions != 1 || first.PreemptSeconds <= 0 {
		t.Fatalf("Preemptions = %d, PreemptSeconds = %v; want 1 and > 0",
			first.Preemptions, first.PreemptSeconds)
	}
	if first.Suspended.MigratedBytes() <= 0 {
		t.Fatalf("MigratedBytes = %d, want > 0", first.Suspended.MigratedBytes())
	}

	spec.Resume = first.Suspended
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspended != nil {
		t.Fatal("resumed job suspended again; hook should fire once")
	}

	// The computed answer and the per-superstep timeline must be
	// bit-identical to the uninterrupted run: same distances, same step
	// count, same message counts and simulated durations per superstep.
	// The preemption overhead is reported separately (PreemptSeconds) and
	// must not leak into SimSeconds.
	want := graph.BFS(g, 0)
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d after preempt+resume, want %d", v, got[v], want[v])
		}
	}
	if len(res.Steps) != len(base.Steps) {
		t.Fatalf("timeline has %d supersteps, want %d", len(res.Steps), len(base.Steps))
	}
	for i := range base.Steps {
		b, r := base.Steps[i], res.Steps[i]
		if r.Superstep != b.Superstep || r.Workers != b.Workers ||
			r.TotalSent() != b.TotalSent() || r.ActiveVertices != b.ActiveVertices ||
			r.SimSeconds != b.SimSeconds {
			t.Fatalf("superstep %d diverged: got %+v, want %+v", i, r, b)
		}
	}
	if res.SimSeconds != base.SimSeconds {
		t.Errorf("SimSeconds = %v, want %v (preemption overhead must stay out of SimSeconds)",
			res.SimSeconds, base.SimSeconds)
	}
	if res.Preemptions != 1 || res.PreemptSeconds <= 0 {
		t.Errorf("final Preemptions = %d, PreemptSeconds = %v; want 1 and > 0",
			res.Preemptions, res.PreemptSeconds)
	}
	// The platform still bills the suspension: write-out, read-in, and a
	// second provisioning round all cost VM time and dollars.
	if res.VMSeconds <= base.VMSeconds {
		t.Errorf("VMSeconds = %v, want > %v (suspension overhead must be billed)",
			res.VMSeconds, base.VMSeconds)
	}
	if res.CostDollars <= base.CostDollars {
		t.Errorf("CostDollars = %v, want > %v", res.CostDollars, base.CostDollars)
	}
}

func TestPreemptEveryBarrierStillCompletes(t *testing.T) {
	g := graph.ErdosRenyi(200, 600, 13)

	base, err := Run(ckptSpec(g, 3, 0))
	if err != nil {
		t.Fatal(err)
	}

	// A hook that always fires suspends the job at every barrier — except
	// the last one, where the about-to-halt guard lets the job finish
	// instead of stranding a completed job in the preempted state.
	spec := ckptSpec(g, 3, 0)
	spec.BarrierPreempt = func(int) bool { return true }
	res, suspensions := runToCompletion(t, spec)

	if suspensions == 0 {
		t.Fatal("expected at least one suspension")
	}
	if res.Preemptions != suspensions {
		t.Errorf("Preemptions = %d, want %d (must accumulate across resumes)",
			res.Preemptions, suspensions)
	}
	want := graph.BFS(g, 0)
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d, want %d", v, got[v], want[v])
		}
	}
	if len(res.Steps) != len(base.Steps) {
		t.Fatalf("timeline has %d supersteps, want %d", len(res.Steps), len(base.Steps))
	}
	if res.SimSeconds != base.SimSeconds {
		t.Errorf("SimSeconds = %v, want %v", res.SimSeconds, base.SimSeconds)
	}
}

func TestPreemptRequiresMigratableProgram(t *testing.T) {
	g := graph.Ring(16)
	spec := bfsSpec(g, 2, 0) // plain BFS program: no StateCodec
	spec.BarrierPreempt = func(int) bool { return false }
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "StateCodec") {
		t.Fatalf("err = %v, want StateCodec requirement error", err)
	}
}
