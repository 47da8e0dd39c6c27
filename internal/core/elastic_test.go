package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// stepAtController switches to `to` workers once the given superstep has
// completed, and holds the count there.
func stepAtController(superstep, to int) ElasticController {
	return ElasticControllerFunc(func(prev *StepStats, current int) int {
		if prev != nil && prev.Superstep >= superstep {
			return to
		}
		return current
	})
}

func TestLiveScaleOutPreservesResults(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 5)
	want := graph.BFS(g, 0)

	spec := ckptSpec(g, 2, 0)
	spec.ElasticController = stepAtController(1, 5)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d after scale-out, want %d", v, got[v], want[v])
		}
	}
	if len(res.ScaleEvents) != 1 {
		t.Fatalf("ScaleEvents = %+v, want exactly one", res.ScaleEvents)
	}
	ev := res.ScaleEvents[0]
	if ev.FromWorkers != 2 || ev.ToWorkers != 5 {
		t.Errorf("scale event %+v, want 2 -> 5", ev)
	}
	if ev.MigratedBytes <= 0 {
		t.Errorf("MigratedBytes = %d, want > 0", ev.MigratedBytes)
	}
	if ev.SimSeconds <= 0 {
		t.Errorf("SimSeconds = %v, want > 0 (provisioning + migration must be billed)", ev.SimSeconds)
	}
	// The timeline must show the worker count actually changing.
	var low, high bool
	for _, s := range res.Steps {
		switch s.Workers {
		case 2:
			low = true
		case 5:
			high = true
		default:
			t.Fatalf("superstep %d ran at %d workers, want 2 or 5", s.Superstep, s.Workers)
		}
	}
	if !low || !high {
		t.Errorf("timeline did not span both worker counts (low=%v high=%v)", low, high)
	}
}

func TestLiveScaleInPreservesResults(t *testing.T) {
	g := graph.ErdosRenyi(250, 800, 11)
	want := graph.BFS(g, 0)

	spec := ckptSpec(g, 6, 0)
	spec.ElasticController = stepAtController(1, 2)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d after scale-in, want %d", v, got[v], want[v])
		}
	}
	if len(res.ScaleEvents) != 1 || res.ScaleEvents[0].ToWorkers != 2 {
		t.Fatalf("ScaleEvents = %+v, want one 6 -> 2 event", res.ScaleEvents)
	}
}

func TestLiveResizeOscillation(t *testing.T) {
	// Scale out and back in within one job: two events, exact results.
	g := graph.ErdosRenyi(200, 700, 23)
	want := graph.BFS(g, 0)

	spec := ckptSpec(g, 2, 0)
	spec.ElasticController = ElasticControllerFunc(func(prev *StepStats, current int) int {
		if prev == nil {
			return current
		}
		switch {
		case prev.Superstep < 1:
			return 2
		case prev.Superstep < 3:
			return 4
		default:
			return 2
		}
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d, want %d", v, got[v], want[v])
		}
	}
	if len(res.ScaleEvents) != 2 {
		t.Fatalf("ScaleEvents = %+v, want out + in", res.ScaleEvents)
	}
	if res.ScaleEvents[0].ToWorkers != 4 || res.ScaleEvents[1].ToWorkers != 2 {
		t.Errorf("ScaleEvents = %+v, want 2->4 then 4->2", res.ScaleEvents)
	}
}

func TestLiveResizeEmitsSpansAndMetrics(t *testing.T) {
	g := graph.ErdosRenyi(200, 600, 7)
	spec := ckptSpec(g, 2, 0)
	spec.ElasticController = stepAtController(1, 4)
	tracer, rec := observe.NewTraceRecorder(1 << 14)
	spec.Tracer = tracer
	m := observe.NewMetrics()
	spec.Metrics = m
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	byKind := map[observe.Kind]int{}
	for _, e := range rec.Snapshot() {
		byKind[e.Kind]++
	}
	if byKind[observe.KindScaleOut] == 0 {
		t.Error("no scale_out span recorded")
	}
	if byKind[observe.KindMigrate] == 0 {
		t.Error("no migrate spans recorded")
	}
	outs := m.Counter("pregel_scale_events_total", "Live elastic scale events by direction.",
		observe.Label{Name: "direction", Value: "out"}).Value()
	if outs != 1 {
		t.Errorf("pregel_scale_events_total{direction=out} = %v, want 1", outs)
	}
}

func TestLiveResizeControllerClamped(t *testing.T) {
	// A buggy controller returning 0 or a count beyond the vertex count must
	// be clamped, not crash the engine or produce an impossible deployment.
	g := graph.Ring(24)
	want := graph.BFS(g, 0)

	spec := ckptSpec(g, 2, 0)
	var asked atomic.Bool
	spec.ElasticController = ElasticControllerFunc(func(prev *StepStats, current int) int {
		if asked.Swap(true) {
			return -7 // clamp to 1
		}
		return 1 << 20 // clamp to NumVertices
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d, want %d", v, got[v], want[v])
		}
	}
	for _, ev := range res.ScaleEvents {
		if ev.ToWorkers < 1 || ev.ToWorkers > g.NumVertices() {
			t.Errorf("scale event to %d workers escaped the clamp", ev.ToWorkers)
		}
	}
}

func TestLiveResizeRequiresMigratableProgram(t *testing.T) {
	g := graph.Ring(16)
	spec := bfsSpec(g, 2, 0) // plain bfsProgram: no StateCodec
	spec.ElasticController = stepAtController(0, 4)
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "StateCodec") {
		t.Errorf("err = %v, want StateCodec requirement error", err)
	}
}

func TestLiveResizeWithCustomNetworkRequiresFactory(t *testing.T) {
	g := graph.Ring(16)
	spec := ckptSpec(g, 2, 0)
	spec.Network = transport.NewChannelNetwork(2, 64)
	spec.ElasticController = stepAtController(0, 4)
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "NetworkFactory") {
		t.Errorf("err = %v, want NetworkFactory requirement error", err)
	}
}

func TestLiveResizeSurvivesFaultDuringMigration(t *testing.T) {
	// A VM restart scripted for the exact superstep the resize resumes at
	// fires inside the migrate handler: the resize attempt must be absorbed
	// by ordinary checkpoint rollback, the job continues at the old count,
	// and a later consult performs the resize. Results stay exact.
	g := graph.ErdosRenyi(250, 800, 31)
	want := graph.BFS(g, 0)

	spec := ckptSpec(g, 2, 0)
	spec.ElasticController = stepAtController(2, 4)
	var strikes atomic.Int32
	spec.FailureInjector = func(worker, superstep int) error {
		// Superstep 3 is the first resume point stepAtController(2, …) can
		// produce; strike once there so the first migration attempt fails.
		if worker == 1 && superstep == 3 && strikes.Add(1) == 1 {
			return errors.New("chaos: VM lost mid-migration")
		}
		return nil
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d, want %d", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1 (failed migration must roll back)", res.Recoveries)
	}
	if len(res.ScaleEvents) == 0 {
		t.Error("no scale events: the resize must eventually succeed after the rollback")
	}
	for _, s := range res.Steps {
		if s.Workers != 2 && s.Workers != 4 {
			t.Errorf("superstep %d at %d workers, want 2 or 4", s.Superstep, s.Workers)
		}
	}
}

// TestMigrationBlobCorruptionDetected feeds the adopt path a truncated
// state blob: it must be rejected with an error rather than silently
// mis-restoring state.
func TestMigrationBlobCorruptionDetected(t *testing.T) {
	g := graph.Ring(8)
	spec := ckptSpec(g, 2, 0)
	spec.Assignment = partition.Assignment{0, 1, 0, 1, 0, 1, 0, 1}
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	owned := ownedLists(s.Assignment, 2)
	workers := make([]*worker[uint32], 2)
	net := transport.NewChannelNetwork(2, 64)
	defer net.Close()
	for w := range workers {
		workers[w] = testWorker(t, &s, net, w)
	}
	blob := workers[1].appendState(nil)
	for cut := 0; cut < len(blob); cut++ {
		if err := adoptState(workers, blob[:cut], owned[1]); err == nil {
			t.Fatalf("migration blob truncated to %d of %d bytes accepted", cut, len(blob))
		}
	}
	if err := adoptState(workers, append(blob, 0), owned[1]); err == nil {
		t.Fatal("migration blob with a trailing byte accepted")
	}
	if err := adoptState(workers, blob, owned[1]); err != nil {
		t.Fatalf("intact migration blob rejected: %v", err)
	}
}

func TestMovedStateBytesPerPartition(t *testing.T) {
	// Worker 0 holds 1000 bytes over 2 vertices (500 each); worker 1 holds
	// 100 bytes over 2 vertices (50 each). Moving one vertex out of worker 0
	// must bill 500, not the uniform estimate.
	oldA := partition.Assignment{0, 0, 1, 1}
	perWorker := []int64{1000, 100}
	if got := movedStateBytes(1100, perWorker, oldA, partition.Assignment{1, 0, 1, 1}); got != 500 {
		t.Errorf("one vertex from the heavy worker billed %d bytes, want 500", got)
	}
	if got := movedStateBytes(1100, perWorker, oldA, partition.Assignment{1, 0, 0, 1}); got != 550 {
		t.Errorf("one vertex from each worker billed %d bytes, want 550", got)
	}
	if got := movedStateBytes(1100, perWorker, oldA, oldA); got != 0 {
		t.Errorf("no movement billed %d bytes, want 0", got)
	}
}

func TestMovedStateBytesFallsBackToUniform(t *testing.T) {
	oldA := partition.Assignment{0, 0, 1, 1}
	newA := partition.Assignment{1, 0, 0, 1} // 2 of 4 moved
	if got := movedStateBytes(2000, nil, oldA, newA); got != 1000 {
		t.Errorf("nil perWorker billed %d bytes, want uniform 1000", got)
	}
	// An out-of-range entry in the old assignment makes per-partition
	// weighting unusable; fall back rather than panic or drop the charge.
	bad := partition.Assignment{0, 5, 1, 1} // 3 of 4 differ from newA
	if got := movedStateBytes(2000, []int64{1000, 100}, bad, newA); got != 2000*3/4 {
		t.Errorf("out-of-range oldA billed %d bytes, want uniform fallback", got)
	}
	// Mismatched assignment lengths: charge the conservative total.
	if got := movedStateBytes(2000, nil, oldA, partition.Assignment{0}); got != 2000 {
		t.Errorf("mismatched lengths billed %d bytes, want the full total", got)
	}
}

func TestResizeRecordsStrategyAndCut(t *testing.T) {
	// The default repartitioner is incremental: a resize must record the
	// strategy, the delta size, and the cut on both sides of the event.
	g := graph.ErdosRenyi(300, 900, 5)
	spec := ckptSpec(g, 2, 0)
	spec.ElasticController = stepAtController(1, 3)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScaleEvents) != 1 {
		t.Fatalf("ScaleEvents = %+v, want exactly one", res.ScaleEvents)
	}
	ev := res.ScaleEvents[0]
	if ev.Strategy != "incremental" {
		t.Errorf("Strategy = %q, want incremental (the default)", ev.Strategy)
	}
	if ev.MovedVertices <= 0 || ev.MovedVertices >= g.NumVertices() {
		t.Errorf("MovedVertices = %d, want a proper delta of %d vertices", ev.MovedVertices, g.NumVertices())
	}
	if ev.CutBefore < 0 || ev.CutBefore > 1 || ev.CutAfter < 0 || ev.CutAfter > 1 {
		t.Errorf("cut out of range: before=%v after=%v", ev.CutBefore, ev.CutAfter)
	}

	// An explicit full-reshuffle repartitioner is tagged as such.
	spec2 := ckptSpec(g, 2, 0)
	spec2.ElasticController = stepAtController(1, 3)
	spec2.Repartitioner = partition.Hash{}
	res2, err := Run(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.ScaleEvents) != 1 || res2.ScaleEvents[0].Strategy != "hash(full)" {
		t.Errorf("ScaleEvents = %+v, want one hash(full) event", res2.ScaleEvents)
	}
}

// reshuffleAlways wraps a controller and forces a full reshuffle on every
// resize, exercising the ReshuffleDecider hook.
type reshuffleAlways struct{ ElasticController }

func (reshuffleAlways) FullReshuffle(fromWorkers, toWorkers, eventIndex int) bool { return true }

func TestReshuffleDeciderForcesFull(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 5)
	want := graph.BFS(g, 0)
	spec := ckptSpec(g, 2, 0)
	spec.ElasticController = reshuffleAlways{stepAtController(1, 3)}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d after forced reshuffle, want %d", v, got[v], want[v])
		}
	}
	if len(res.ScaleEvents) != 1 {
		t.Fatalf("ScaleEvents = %+v, want exactly one", res.ScaleEvents)
	}
	if got := res.ScaleEvents[0].Strategy; got != "incremental(full)" {
		t.Errorf("Strategy = %q, want incremental(full) when the decider forces a reshuffle", got)
	}
}
