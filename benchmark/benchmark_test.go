package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
)

// benchmarkManifest is BENCHMARK.json as the driver reads it.
type benchmarkManifest struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) benchmarkManifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m benchmarkManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTinyRunsPrintTheManifest runs every workload end to end at tiny scale,
// traced run and micro-drives included, and holds the runner to
// BENCHMARK.json: same workloads, and for each family exactly the declared
// metric names and units, every one of them actually measured.
func TestTinyRunsPrintTheManifest(t *testing.T) {
	m := readManifest(t)
	all := workloads()
	if len(all) != len(m.Workloads) {
		t.Fatalf("runner has %d workloads, BENCHMARK.json %d", len(all), len(m.Workloads))
	}
	for i, w := range all {
		if w.name != m.Workloads[i].Name || w.why != m.Workloads[i].Why {
			t.Errorf("workload %d: runner has %q (%q), BENCHMARK.json %q (%q)",
				i, w.name, w.why, m.Workloads[i].Name, m.Workloads[i].Why)
		}
		rep, err := run(config{workload: w, seed: 7, tiny: true, trace: true, dir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < minReps+1+tracedJobs {
			t.Errorf("%s: correct=%v failed=%d attempted=%d failures=%v gap=%.3f",
				w.name, rep.Correct, rep.Failed, rep.Attempted, rep.Failures, rep.AdditivityGap)
		}
		if dropped := rep.Values["observe.dropped_events"]; dropped != 0 {
			t.Errorf("%s: recorder dropped %v events", w.name, dropped)
		}
		for _, family := range []struct {
			metrics  []metric
			declared []struct{ Name, Unit string }
		}{{endToEnd, m.EndToEnd}, {perLayer, m.PerLayer}} {
			printed := rep.result(family.metrics).Metrics
			if len(printed) != len(family.declared) {
				t.Errorf("%s: prints %d metrics, BENCHMARK.json declares %d", w.name, len(printed), len(family.declared))
			}
			for _, d := range family.declared {
				got, ok := printed[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s: metric %s [%s] declared but printed as %+v (present=%v)", w.name, d.Name, d.Unit, got, ok)
				}
				if _, measured := rep.Values[d.Name]; !measured {
					t.Errorf("%s: metric %s never measured", w.name, d.Name)
				}
			}
		}
	}
}

// TestTransitionsHappen pins the event schedule pr-transitions exists for.
func TestTransitionsHappen(t *testing.T) {
	w := workloadByName("pr-transitions")
	rep, err := run(config{workload: w, seed: 3, tiny: true, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Values["core.recoveries"] != 1 || rep.Values["core.scale_events"] != 2 {
		t.Errorf("%s: %v recoveries, %v scale events; want 1 and 2",
			w.name, rep.Values["core.recoveries"], rep.Values["core.scale_events"])
	}
}

// TestTracedNetworkIsInvisible runs bc-swath-tcp at a small scale with and
// without the benchmark's tracer and network decorator. The engine must do
// the same work either way: identical counts, and the same allocation. A
// decorator that hid SendCopier would stop the sender recycling payloads:
// at this scale that adds 50% to alloc_mb, while two honest measurements
// differ by up to 2%, so the test allows 5% (the issue's 2% flaked one run
// in six).
func TestTracedNetworkIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen mid-size BC jobs; skipped in -short")
	}
	w := *workloadByName("bc-swath-tcp")
	w.generate = func(seed int64, _ bool) *graph.Graph { return rmat(12, seed) }
	dir := t.TempDir()
	in, err := w.setup(5, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(env func() *jobEnv) (float64, map[string]float64) {
		var samples []sample
		for i := 0; i < 6; i++ { // first job warms the pools
			s, err := w.runJob(in, dir, env())
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				samples = append(samples, s)
			}
		}
		// The minimum, not the median: allocation noise is one-sided (a GC
		// that empties the payload pools makes the next batches allocate).
		return statBy(samples, func(s *sample) float64 { return s.allocMB }).Min, engineCounts(samples[0].engine)
	}
	plainMB, plain := measure(func() *jobEnv { return &jobEnv{} })
	tracedMB, traced := measure(func() *jobEnv {
		tracer, _ := observe.NewTraceRecorder(1 << 16)
		return tracedEnv(tracer)
	})
	for name, v := range plain {
		if traced[name] != v {
			t.Errorf("%s: %v undecorated, %v decorated", name, v, traced[name])
		}
	}
	if math.Abs(tracedMB/plainMB-1) > 0.05 {
		t.Errorf("alloc_mb: %.3f undecorated, %.3f decorated (%.1f%% apart)",
			plainMB, tracedMB, 100*(tracedMB/plainMB-1))
	}
}
