package core

import (
	"testing"

	"pregelnet/internal/graph"
)

func srcs(n int) []graph.VertexID {
	return FirstNSources(graph.Ring(n), n)
}

func stats(active, sent int64, peakMem int64) *StepStats {
	return &StepStats{ActiveVertices: active, ActiveAfter: active, SentLocal: sent, PeakMemoryBytes: peakMem}
}

func TestAllAtOnce(t *testing.T) {
	s := NewAllAtOnce(srcs(5))
	if s.Done() {
		t.Fatal("done before injection")
	}
	first := s.NextSources(nil)
	if len(first) != 5 {
		t.Fatalf("injected %d, want 5", len(first))
	}
	if !s.Done() {
		t.Error("not done after injection")
	}
	if s.NextSources(stats(5, 10, 0)) != nil {
		t.Error("second injection should be nil")
	}
}

func TestSwathRunnerSequential(t *testing.T) {
	r := NewSwathRunner(srcs(10), StaticSizer(3), SequentialInitiator{})
	// Superstep 0: first swath of 3.
	if got := r.NextSources(nil); len(got) != 3 {
		t.Fatalf("first swath = %d, want 3", len(got))
	}
	// Activity ongoing: no injection.
	if got := r.NextSources(stats(3, 9, 100)); got != nil {
		t.Fatalf("injected during activity: %v", got)
	}
	// Quiesced: next swath.
	if got := r.NextSources(stats(0, 0, 0)); len(got) != 3 {
		t.Fatalf("second swath = %d, want 3", len(got))
	}
	// Drain the rest.
	r.NextSources(stats(0, 0, 0)) // 3 more (9 total)
	last := r.NextSources(stats(0, 0, 0))
	if len(last) != 1 {
		t.Fatalf("final swath = %d, want 1 (remainder)", len(last))
	}
	if !r.Done() {
		t.Error("runner should be done")
	}
	if r.NextSources(stats(0, 0, 0)) != nil {
		t.Error("injection after done")
	}
}

func TestSwathRunnerStaticN(t *testing.T) {
	r := NewSwathRunner(srcs(9), StaticSizer(3), StaticNInitiator(2))
	r.NextSources(nil) // swath 1 at step 0
	if r.NextSources(stats(3, 5, 0)) != nil {
		t.Fatal("injected after 1 step, want every 2")
	}
	if got := r.NextSources(stats(3, 5, 0)); len(got) != 3 {
		t.Fatalf("swath 2 = %v, want size 3", got)
	}
	if r.NextSources(stats(6, 10, 0)) != nil {
		t.Fatal("injected after 1 step of swath 2")
	}
	if got := r.NextSources(stats(6, 10, 0)); len(got) != 3 {
		t.Fatal("swath 3 missing")
	}
}

func TestSwathRunnerQuiesceOverridesInitiator(t *testing.T) {
	// Static-100 would never fire, but quiescence must force injection so
	// the job cannot stall.
	r := NewSwathRunner(srcs(6), StaticSizer(3), StaticNInitiator(100))
	r.NextSources(nil)
	if got := r.NextSources(stats(0, 0, 0)); len(got) != 3 {
		t.Fatalf("quiesce did not force injection: %v", got)
	}
}

func TestDynamicPeakInitiator(t *testing.T) {
	d := DynamicPeakInitiator{}
	// Rising traffic: no.
	if d.ShouldInitiate(3, nil, []int64{10, 20, 40}) {
		t.Error("initiated while rising")
	}
	// Rise then fall: yes.
	if !d.ShouldInitiate(4, nil, []int64{10, 20, 40, 30}) {
		t.Error("did not initiate after peak")
	}
	// Monotone falling from injection (no rise seen): no.
	if d.ShouldInitiate(3, nil, []int64{40, 30, 20}) {
		t.Error("initiated without a rise")
	}
	// Too little history.
	if d.ShouldInitiate(1, nil, []int64{10}) {
		t.Error("initiated with one sample")
	}
}

func TestSwathRunnerDynamicEndToEnd(t *testing.T) {
	r := NewSwathRunner(srcs(6), StaticSizer(3), DynamicPeakInitiator{})
	r.NextSources(nil)
	r.NextSources(stats(3, 10, 0))
	r.NextSources(stats(6, 30, 0))
	got := r.NextSources(stats(6, 20, 0)) // fell after rising
	if len(got) != 3 {
		t.Fatalf("dynamic initiation failed: %v", got)
	}
}

func TestAdaptiveSizer(t *testing.T) {
	a := &AdaptiveSizer{Initial: 4, TargetMemoryBytes: 1000}
	if got := a.NextSize(nil); got != 4 {
		t.Fatalf("initial = %d", got)
	}
	// Previous swath of 4 peaked at 2000: halve to 2.
	if got := a.NextSize([]SwathObservation{{Size: 4, PeakMemory: 2000}}); got != 2 {
		t.Errorf("shrink: got %d, want 2", got)
	}
	// Previous swath of 4 peaked at 250: target/peak = 4x but growth capped at 2x.
	if got := a.NextSize([]SwathObservation{{Size: 4, PeakMemory: 250}}); got != 8 {
		t.Errorf("growth cap: got %d, want 8", got)
	}
	// Zero observed memory: keep size.
	if got := a.NextSize([]SwathObservation{{Size: 4, PeakMemory: 0}}); got != 4 {
		t.Errorf("zero-mem: got %d, want 4", got)
	}
	// Never below 1.
	if got := a.NextSize([]SwathObservation{{Size: 1, PeakMemory: 1 << 40}}); got != 1 {
		t.Errorf("floor: got %d, want 1", got)
	}
	// MaxSize cap.
	a2 := &AdaptiveSizer{Initial: 4, TargetMemoryBytes: 1000, MaxSize: 5}
	if got := a2.NextSize([]SwathObservation{{Size: 4, PeakMemory: 250}}); got != 5 {
		t.Errorf("max cap: got %d, want 5", got)
	}
}

func TestSamplingSizer(t *testing.T) {
	s := &SamplingSizer{SampleSize: 2, Samples: 2, TargetMemoryBytes: 900}
	if got := s.NextSize(nil); got != 2 {
		t.Fatalf("probe 1 = %d", got)
	}
	if got := s.NextSize([]SwathObservation{{Size: 2, PeakMemory: 300}}); got != 2 {
		t.Fatalf("probe 2 = %d", got)
	}
	// Two probes done, worst peak 300 for size 2 → 2*900/300 = 6.
	hist := []SwathObservation{{Size: 2, PeakMemory: 300}, {Size: 2, PeakMemory: 200}}
	if got := s.NextSize(hist); got != 6 {
		t.Fatalf("extrapolated = %d, want 6", got)
	}
	// Sticky thereafter, even if later observations differ.
	hist = append(hist, SwathObservation{Size: 6, PeakMemory: 5000})
	if got := s.NextSize(hist); got != 6 {
		t.Errorf("extrapolation should be static, got %d", got)
	}
}

func TestSwathRunnerRecordsObservations(t *testing.T) {
	r := NewSwathRunner(srcs(9), StaticSizer(3), SequentialInitiator{})
	r.NextSources(nil)
	r.NextSources(stats(3, 10, 500))
	r.NextSources(stats(3, 5, 800))
	r.NextSources(stats(0, 0, 200)) // quiesce → swath 2, records obs 1
	hist := r.History()
	if len(hist) != 1 {
		t.Fatalf("history len = %d, want 1", len(hist))
	}
	if hist[0].Size != 3 || hist[0].PeakMemory != 800 || hist[0].Supersteps != 3 {
		t.Errorf("observation = %+v", hist[0])
	}
}

func TestSwathRunnerRecordsFinalSwath(t *testing.T) {
	// Regression: observations used to be appended only at the *next*
	// inject(), so the last swath's window never reached History(). The
	// runner must flush the pending observation when the run drains.
	r := NewSwathRunner(srcs(6), StaticSizer(3), SequentialInitiator{})
	r.NextSources(nil)               // swath 1
	r.NextSources(stats(3, 10, 500)) // activity
	r.NextSources(stats(0, 0, 900))  // quiesce → swath 2, records obs 1
	r.NextSources(stats(3, 10, 700)) // final swath active
	if !r.Done() {
		t.Fatal("all sources injected; Done should be true")
	}
	r.NextSources(stats(0, 0, 400)) // final swath drains → obs 2 flushed
	hist := r.History()
	if len(hist) != 2 {
		t.Fatalf("history len = %d, want 2 (final swath must be recorded)", len(hist))
	}
	if hist[0].Size != 3 || hist[0].PeakMemory != 900 || hist[0].Supersteps != 2 {
		t.Errorf("observation 1 = %+v", hist[0])
	}
	if hist[1].Size != 3 || hist[1].PeakMemory != 700 || hist[1].Supersteps != 2 {
		t.Errorf("final observation = %+v", hist[1])
	}
	// Further drained supersteps must not duplicate the flushed observation.
	r.NextSources(stats(0, 0, 0))
	if got := len(r.History()); got != 2 {
		t.Errorf("history grew to %d after flush", got)
	}
}

func TestAdaptiveSizerZeroTargetKeepsSize(t *testing.T) {
	// Regression: TargetMemoryBytes == 0 scaled every subsequent swath to
	// size*0/peak = 0 → clamped to 1, silently serializing the job. A zero
	// or negative target must keep the previous swath's size.
	a := &AdaptiveSizer{Initial: 4}
	if got := a.NextSize([]SwathObservation{{Size: 4, PeakMemory: 2000}}); got != 4 {
		t.Errorf("zero target: got %d, want previous size 4", got)
	}
	neg := &AdaptiveSizer{Initial: 4, TargetMemoryBytes: -5}
	if got := neg.NextSize([]SwathObservation{{Size: 6, PeakMemory: 100}}); got != 6 {
		t.Errorf("negative target: got %d, want previous size 6", got)
	}
	// MaxSize still applies without a target.
	capped := &AdaptiveSizer{Initial: 4, MaxSize: 5}
	if got := capped.NextSize([]SwathObservation{{Size: 9, PeakMemory: 100}}); got != 5 {
		t.Errorf("max cap without target: got %d, want 5", got)
	}
}

func TestFirstNSourcesClamps(t *testing.T) {
	g := graph.Ring(4)
	if got := FirstNSources(g, 10); len(got) != 4 {
		t.Errorf("len = %d, want 4", len(got))
	}
	got := FirstNSources(g, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("sources = %v", got)
	}
}

func TestParseSwathScheduler(t *testing.T) {
	g := graph.Ring(16)
	for _, tc := range []struct {
		roots           int
		swath, initiate string
		wantErr         bool
		wantAllAtOnce   bool
	}{
		{4, "none", "dynamic", false, true},
		{4, "adaptive", "seq", false, false},
		{4, "sampling", "static2", false, false},
		{4, "bogus", "dynamic", true, false},
		{4, "adaptive", "static0", true, false},
		{4, "adaptive", "later", true, false},
		{0, "adaptive", "dynamic", true, false},
		{-3, "none", "dynamic", true, false},
	} {
		s, err := ParseSwathScheduler(g, tc.roots, tc.swath, tc.initiate, 1<<30)
		if (err != nil) != tc.wantErr {
			t.Errorf("roots %d, %s/%s: err = %v, want error %v", tc.roots, tc.swath, tc.initiate, err, tc.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if _, all := s.(*AllAtOnce); all != tc.wantAllAtOnce {
			t.Errorf("roots %d, %s/%s: scheduler %T", tc.roots, tc.swath, tc.initiate, s)
		}
	}
}
