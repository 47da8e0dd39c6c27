package pregelnet

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
)

// Live elastic-scaling determinism tests: a job whose worker count changes
// mid-run under a threshold controller must produce the same results as
// fixed-worker runs at either count (small FP tolerance: a resize changes
// which messages are local, and so the combine order), on both the
// in-process channel data plane and
// real TCP sockets, and even with a VM restart scripted into the migration.

func mustLiveThreshold(t *testing.T, low, high int) ElasticController {
	t.Helper()
	ctrl, err := LiveThresholdScaling(low, high, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// requireResized asserts the run actually changed its worker count mid-job:
// scale events were recorded and the per-superstep timeline spans more than
// one worker count.
func requireResized(t *testing.T, stats []StepStats, scales []ScaleEvent) {
	t.Helper()
	if len(scales) == 0 {
		t.Fatal("no scale events: the controller never resized the job")
	}
	counts := map[int]bool{}
	for i := range stats {
		counts[stats[i].Workers] = true
	}
	if len(counts) < 2 {
		t.Errorf("worker-count timeline %v never changed despite %d scale events", counts, len(scales))
	}
}

func TestLiveScalingBCMatchesFixedWorkers(t *testing.T) {
	g := GenerateErdosRenyi(120, 360, 41)
	opt := BCOptions{Roots: 10}

	low, err := BetweennessCentrality(g, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	high, err := BetweennessCentrality(g, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	elastic := opt
	elastic.Elastic = mustLiveThreshold(t, 2, 5)
	live, err := BetweennessCentrality(g, 2, elastic)
	if err != nil {
		t.Fatal(err)
	}

	for v := range low.Scores {
		if math.Abs(live.Scores[v]-low.Scores[v]) > 1e-6 {
			t.Fatalf("vertex %d: score %v live, %v fixed-low", v, live.Scores[v], low.Scores[v])
		}
		if math.Abs(live.Scores[v]-high.Scores[v]) > 1e-6 {
			t.Fatalf("vertex %d: score %v live, %v fixed-high", v, live.Scores[v], high.Scores[v])
		}
	}
	requireResized(t, live.Stats, live.ScaleEvents)
	// VM-seconds must include the resize charges. (At this toy scale the
	// migration overhead can outweigh the scale-in savings; the actual
	// cheaper-than-fixed-high comparison is the fig16live experiment, which
	// runs at dataset scale.)
	if live.VMSec <= 0 {
		t.Errorf("VMSec = %g, want > 0", live.VMSec)
	}
}

func TestLiveScalingPageRankMatchesFixed(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 3, 9)
	mk := func(workers int, ctrl ElasticController) JobSpec[float64] {
		spec := algorithms.PageRank{Iterations: 10, Damping: 0.85}.Spec(g, workers)
		if ctrl != nil {
			spec.ElasticController = ctrl
			spec.CheckpointEvery = 2
		}
		return spec
	}

	fixed, err := Run(mk(5, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.Ranks(fixed, g.NumVertices())

	// Every PageRank superstep keeps all vertices active, so the threshold
	// controller scales out at the first barrier and stays high.
	live, err := Run(mk(2, mustLiveThreshold(t, 2, 5)))
	if err != nil {
		t.Fatal(err)
	}
	got := algorithms.Ranks(live, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: rank %v live, %v fixed", v, got[v], want[v])
		}
	}
	requireResized(t, live.Steps, live.ScaleEvents)
}

func TestLiveScalingBCOverTCP(t *testing.T) {
	g := GenerateErdosRenyi(120, 360, 41)
	roots := FirstNSources(g, 10)

	clean, err := Run(soakBCSpec(g, roots))
	if err != nil {
		t.Fatal(err)
	}
	want := BCScoresOf(clean, g.NumVertices())

	spec := BCSpec(g, 2, AllSourcesAtOnce(roots))
	spec.CheckpointEvery = 3
	spec.ElasticController = mustLiveThreshold(t, 2, 5)
	spec.NetworkFactory = tcpNetwork
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := BCScoresOf(res, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("vertex %d: score %v live over TCP, %v fixed", v, got[v], want[v])
		}
	}
	requireResized(t, res.Steps, res.ScaleEvents)
}

// TestChaosSoakElasticResizeTCP is the resize soak: live threshold scaling
// over real TCP sockets while a seeded fault plan restarts a VM and injects
// transient substrate errors. The scripted restart lands on the superstep
// where the first migration resumes, so the engine must roll the failed
// resize back to a checkpoint at the old worker count, recover, and resize
// again later — and still match the failure-free fixed-worker scores.
func TestChaosSoakElasticResizeTCP(t *testing.T) {
	g := GenerateErdosRenyi(120, 360, 41)
	roots := FirstNSources(g, 10)

	clean, err := Run(soakBCSpec(g, roots))
	if err != nil {
		t.Fatal(err)
	}
	want := BCScoresOf(clean, g.NumVertices())

	spec := BCSpec(g, 2, AllSourcesAtOnce(roots))
	spec.CheckpointEvery = 3
	spec.ElasticController = mustLiveThreshold(t, 2, 5)
	spec.NetworkFactory = tcpNetwork
	tracer, recorder := NewTraceRecorder(1 << 17)
	spec.Tracer = tracer
	spec.Chaos = NewChaos(FaultPlan{
		Seed:               2027,
		BlobErrorProb:      1,
		MaxBlobErrors:      3,
		QueueDuplicateProb: 0.5,
		LeaseExpiryProb:    0.25,
		MaxLeaseExpiries:   6,
		VMRestarts:         []VMRestart{{Worker: 1, Superstep: 1}},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("elastic resize soak failed: %v", err)
	}
	got := BCScoresOf(res, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("vertex %d: score %v under elastic chaos, %v clean", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1 (scripted VM restart)", res.Recoveries)
	}
	requireResized(t, res.Steps, res.ScaleEvents)

	// The flight recorder must carry the elastic span kinds, and the trace
	// must survive the Chrome exporter round-trip (left as a CI artifact
	// when PREGELNET_TRACE_DIR is set, like the other soaks).
	events := recorder.Snapshot()
	dir := os.Getenv("PREGELNET_TRACE_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "chaos-soak-elastic-resize-tcp.trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(f, events); err != nil {
		t.Fatalf("writing chrome trace: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	byKind := map[TraceKind]int{}
	for _, e := range events {
		byKind[e.Kind]++
	}
	for _, k := range []TraceKind{
		observe.KindScaleOut, observe.KindMigrate, observe.KindVMRestart,
		observe.KindCheckpoint, observe.KindRollback,
	} {
		if byKind[k] == 0 {
			t.Errorf("resize soak trace has no %q spans (have %v)", k, byKind)
		}
	}
}

// TestLiveResizeRepartitioners is the resize determinism matrix: the same
// WCC job resized mid-run under every repartitioning strategy, on both data
// planes, must reproduce the fixed-worker labels bit for bit (WCC state is
// integral and min-reduced, so there is no FP tolerance to hide behind).
func TestLiveResizeRepartitioners(t *testing.T) {
	g := GenerateWattsStrogatz(400, 4, 0.02, 7)
	fixed, err := Run(algorithms.WCC(g, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.WCCLabels(fixed, g.NumVertices())

	for _, repart := range []string{"metis", "ldg", "incremental"} {
		for _, net := range []string{"channel", "tcp"} {
			t.Run(repart+"/"+net, func(t *testing.T) {
				spec := algorithms.WCC(g, 2)
				spec.CheckpointEvery = 2
				spec.ElasticController = mustLiveThreshold(t, 2, 5)
				spec.Repartitioner = partition.ByName(repart)
				if spec.Repartitioner == nil {
					t.Fatalf("unknown repartitioner %q", repart)
				}
				if net == "tcp" {
					spec.NetworkFactory = tcpNetwork
				}
				res, err := Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				got := algorithms.WCCLabels(res, g.NumVertices())
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("vertex %d: label %d under %s/%s resize, want %d",
							v, got[v], repart, net, want[v])
					}
				}
				requireResized(t, res.Steps, res.ScaleEvents)
				for _, ev := range res.ScaleEvents {
					wantStrategy := repart + "(full)"
					if repart == "incremental" {
						wantStrategy = "incremental"
					}
					if ev.Strategy != wantStrategy {
						t.Errorf("scale event %d->%d used strategy %q, want %q",
							ev.FromWorkers, ev.ToWorkers, ev.Strategy, wantStrategy)
					}
				}
			})
		}
	}

	// The subgraph-centric model shares the migration plumbing; incremental
	// repartitioning must stay exact there too.
	for _, net := range []string{"channel", "tcp"} {
		t.Run("incremental/subgraph/"+net, func(t *testing.T) {
			spec := algorithms.WCCSubgraph(g, 2)
			spec.CheckpointEvery = 2
			spec.ElasticController = mustLiveThreshold(t, 2, 5)
			if net == "tcp" {
				spec.NetworkFactory = tcpNetwork
			}
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := algorithms.WCCSubgraphLabels(res, g.NumVertices())
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d: label %d under subgraph/%s resize, want %d",
						v, got[v], net, want[v])
				}
			}
			requireResized(t, res.Steps, res.ScaleEvents)
		})
	}
}

// TestChaosSoakIncrementalResizeTCP soaks incremental repartitioning under
// chaos: a small-delta 4<->5 threshold controller over real TCP sockets,
// starting from an LDG layout, with a VM restart scripted onto the first
// migration. Results must match the failure-free run, and two clean control
// runs (same controller, incremental vs hash reshuffle) must show the delta
// migrating a fraction of the bytes a full hash reshuffle moves.
func TestChaosSoakIncrementalResizeTCP(t *testing.T) {
	g := GenerateErdosRenyi(120, 360, 41)
	roots := FirstNSources(g, 10)
	initial := StreamingPartitioner().Partition(g, 4)

	clean, err := Run(soakBCSpec(g, roots))
	if err != nil {
		t.Fatal(err)
	}
	want := BCScoresOf(clean, g.NumVertices())

	mkSpec := func(t *testing.T) JobSpec[BCMessage] {
		spec := BCSpec(g, 4, AllSourcesAtOnce(roots))
		spec.CheckpointEvery = 3
		spec.Assignment = append(Assignment(nil), initial...)
		spec.ElasticController = mustLiveThreshold(t, 4, 5)
		spec.NetworkFactory = tcpNetwork
		return spec
	}

	spec := mkSpec(t)
	tracer, recorder := NewTraceRecorder(1 << 17)
	spec.Tracer = tracer
	spec.Chaos = NewChaos(FaultPlan{
		Seed:               2028,
		BlobErrorProb:      1,
		MaxBlobErrors:      3,
		QueueDuplicateProb: 0.5,
		LeaseExpiryProb:    0.25,
		MaxLeaseExpiries:   6,
		VMRestarts:         []VMRestart{{Worker: 1, Superstep: 1}},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("incremental resize soak failed: %v", err)
	}
	got := BCScoresOf(res, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("vertex %d: score %v under incremental chaos, %v clean", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1 (scripted VM restart)", res.Recoveries)
	}
	requireResized(t, res.Steps, res.ScaleEvents)
	for _, ev := range res.ScaleEvents {
		if ev.Strategy != "incremental" {
			t.Errorf("scale event %d->%d used strategy %q, want incremental (the default)",
				ev.FromWorkers, ev.ToWorkers, ev.Strategy)
		}
		if ev.CutAfter > ev.CutBefore+0.15 {
			t.Errorf("resize %d->%d degraded the cut %.3f -> %.3f; the delta must keep the layout",
				ev.FromWorkers, ev.ToWorkers, ev.CutBefore, ev.CutAfter)
		}
	}

	// Control experiment, no chaos: the same small-delta events billed under
	// incremental repartitioning vs a hash full reshuffle. The delta must
	// migrate at most half the bytes (measured ratios are ~4x smaller).
	sumMigrated := func(evs []ScaleEvent) int64 {
		var total int64
		for _, ev := range evs {
			total += ev.MigratedBytes
		}
		return total
	}
	incSpec := mkSpec(t)
	incRes, err := Run(incSpec)
	if err != nil {
		t.Fatal(err)
	}
	hashSpec := mkSpec(t)
	hashSpec.Repartitioner = HashPartitioner
	hashRes, err := Run(hashSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(incRes.ScaleEvents) == 0 || len(incRes.ScaleEvents) != len(hashRes.ScaleEvents) {
		t.Fatalf("control runs diverged: incremental %d events, hash %d",
			len(incRes.ScaleEvents), len(hashRes.ScaleEvents))
	}
	incBytes, hashBytes := sumMigrated(incRes.ScaleEvents), sumMigrated(hashRes.ScaleEvents)
	if hashBytes <= 0 {
		t.Fatal("hash reshuffle migrated no bytes; the control run is broken")
	}
	if incBytes*2 > hashBytes {
		t.Errorf("incremental migrated %d bytes vs hash %d: want <= 50%% on the same events",
			incBytes, hashBytes)
	}
	t.Logf("migrated bytes over %d resize events: incremental=%d hash=%d (%.1f%%)",
		len(incRes.ScaleEvents), incBytes, hashBytes, 100*float64(incBytes)/float64(hashBytes))

	// Trace artifact (left in PREGELNET_TRACE_DIR for CI) with the elastic
	// and repartition span kinds present.
	events := recorder.Snapshot()
	dir := os.Getenv("PREGELNET_TRACE_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "chaos-soak-incremental-resize-tcp.trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(f, events); err != nil {
		t.Fatalf("writing chrome trace: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	byKind := map[TraceKind]int{}
	for _, e := range events {
		byKind[e.Kind]++
	}
	for _, k := range []TraceKind{
		observe.KindMigrate, observe.KindRepartition, observe.KindVMRestart,
		observe.KindCheckpoint, observe.KindRollback,
	} {
		if byKind[k] == 0 {
			t.Errorf("incremental soak trace has no %q spans (have %v)", k, byKind)
		}
	}
}
