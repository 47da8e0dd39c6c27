package pregelnet

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/cloud"
	"pregelnet/internal/observe"
	"pregelnet/internal/transport"
)

// Chaos soak tests: run real algorithms under a seeded FaultPlan hitting
// every substrate layer in a single run — duplicated queue messages,
// transient blob errors, early lease expiries, a scripted VM restart, a
// dropped data-plane connection — and require results identical to a
// failure-free run (small FP tolerance: these jobs run four compute slots
// per worker, whose batches to one peer interleave in a run-dependent
// order; TestBitExactDelivery covers the exact single-slot case).

func soakBCSpec(g *Graph, roots []VertexID) JobSpec[BCMessage] {
	spec := BCSpec(g, 4, AllSourcesAtOnce(roots))
	spec.CheckpointEvery = 3
	return spec
}

func TestChaosSoakBCOverTCP(t *testing.T) {
	g := GenerateErdosRenyi(120, 360, 41)
	roots := FirstNSources(g, 10)

	clean, err := Run(soakBCSpec(g, roots))
	if err != nil {
		t.Fatal(err)
	}
	want := BCScoresOf(clean, g.NumVertices())

	spec := soakBCSpec(g, roots)
	network, err := transport.NewTCPNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	spec.Network = network
	tracer, recorder := NewTraceRecorder(1 << 17)
	spec.Tracer = tracer
	spec.Chaos = NewChaos(FaultPlan{
		Seed:               2026,
		BlobErrorProb:      1,
		MaxBlobErrors:      3, // < retry budget: absorbed deterministically
		QueueDuplicateProb: 1,
		LeaseExpiryProb:    0.25,
		MaxLeaseExpiries:   6,
		SendDropProb:       0.05,
		MaxSendDrops:       5,
		VMRestarts:         []VMRestart{{Worker: 1, Superstep: 3}},
		ConnDrops:          []ConnDrop{{From: 0, To: 1, Superstep: 2}},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("chaos soak failed: %v", err)
	}
	got := BCScoresOf(res, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("vertex %d: score %v under chaos, %v clean", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1 (scripted VM restart)", res.Recoveries)
	}
	if res.Faults == nil || res.Faults.VMRestarts != 1 || res.Faults.ConnDrops != 1 {
		t.Errorf("faults = %+v, want exactly 1 VM restart and 1 conn drop", res.Faults)
	}
	if res.Retries == 0 {
		t.Error("Retries = 0, want > 0 (blob errors and conn drop must be retried)")
	}
	if res.DuplicatesDropped == 0 {
		t.Error("DuplicatesDropped = 0, want > 0 (every check-in was duplicated)")
	}
	verifySoakTrace(t, recorder)
}

// verifySoakTrace checks that the chaos run's flight recorder round-trips
// through the Chrome trace_event exporter with every fault-handling span
// intact, and (when PREGELNET_TRACE_DIR is set, as in CI) leaves the file
// behind as an inspectable artifact.
func verifySoakTrace(t *testing.T, recorder *FlightRecorder) {
	t.Helper()
	events := recorder.Snapshot()

	dir := os.Getenv("PREGELNET_TRACE_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "chaos-soak-bc-tcp.trace.json")
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

	rt, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	decoded, err := observe.ReadChromeTrace(rt)
	if err != nil {
		t.Fatalf("trace file is not valid Chrome trace_event JSON: %v", err)
	}
	if len(decoded) != len(events) {
		t.Errorf("trace round-trip lost events: wrote %d, read %d", len(events), len(decoded))
	}
	byKind := map[TraceKind]int{}
	for _, e := range decoded {
		byKind[e.Kind]++
	}
	for _, k := range []TraceKind{
		observe.KindSuperstep, observe.KindBarrierCollect, observe.KindBarrierWait,
		observe.KindRetry, observe.KindFault, observe.KindVMRestart,
		observe.KindCheckpoint, observe.KindRollback, observe.KindOutboxFlush,
	} {
		if byKind[k] == 0 {
			t.Errorf("soak trace has no %q spans (have %v)", k, byKind)
		}
	}
}

// TestChaosSoakAsyncOutboxTCP drives the asynchronous send pipeline through
// its worst case: depth-1 outboxes plus a tiny bulk-flush threshold keep the
// per-destination queues permanently full, so every compute goroutine runs
// the backpressure (stall) path, while scripted connection drops and
// probabilistic send drops force mid-flight retries whose duplicate
// deliveries the (From, Seq) dedup must absorb. The run must still produce
// results identical to a failure-free one.
func TestChaosSoakAsyncOutboxTCP(t *testing.T) {
	g := GenerateErdosRenyi(120, 360, 43)
	roots := FirstNSources(g, 10)

	clean, err := Run(soakBCSpec(g, roots))
	if err != nil {
		t.Fatal(err)
	}
	want := BCScoresOf(clean, g.NumVertices())

	spec := soakBCSpec(g, roots)
	spec.OutboxDepth = 1
	spec.FlushBytes = 256
	network, err := transport.NewTCPNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	spec.Network = network
	metrics := NewEngineMetrics()
	spec.Metrics = metrics
	tracer, recorder := NewTraceRecorder(1 << 17)
	spec.Tracer = tracer
	spec.Chaos = NewChaos(FaultPlan{
		Seed:         7,
		SendDropProb: 0.02,
		MaxSendDrops: 8,
		ConnDrops: []ConnDrop{
			{From: 1, To: 2, Superstep: 1},
			{From: 2, To: 0, Superstep: 3},
		},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("chaos soak failed: %v", err)
	}
	got := BCScoresOf(res, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("vertex %d: score %v under chaos, %v clean", v, got[v], want[v])
		}
	}
	if res.Faults == nil || res.Faults.ConnDrops != 2 {
		t.Errorf("faults = %+v, want exactly 2 conn drops", res.Faults)
	}
	if res.Retries == 0 {
		t.Error("Retries = 0, want > 0 (dropped sends must be retried through the outbox senders)")
	}
	// Depth-1 outboxes under a 256-byte flush threshold cannot keep up with
	// compute: the backpressure path must have fired and been measured.
	stalls := metrics.Counter("pregel_outbox_stalls_total",
		"Batch enqueues that found a per-destination outbox full (compute blocked on the network).").Value()
	if stalls == 0 {
		t.Error("pregel_outbox_stalls_total = 0, want > 0 with depth-1 outboxes")
	}
	byKind := map[TraceKind]int{}
	for _, e := range recorder.Snapshot() {
		byKind[e.Kind]++
	}
	for _, k := range []TraceKind{observe.KindOutboxFlush, observe.KindSendStall} {
		if byKind[k] == 0 {
			t.Errorf("soak trace has no %q spans (have %v)", k, byKind)
		}
	}
}

// TestChaosSoakConfinedRecovery kills one worker's VM mid-job and requires
// the recovery to stay confined: only the failed worker restores from the
// checkpoint and re-executes, the survivors keep their live state and replay
// logged messages into it, and the results still match a failure-free run
// bit-for-bit over TCP.
func TestChaosSoakConfinedRecovery(t *testing.T) {
	g := GenerateErdosRenyi(120, 360, 41)
	roots := FirstNSources(g, 10)

	clean, err := Run(soakBCSpec(g, roots))
	if err != nil {
		t.Fatal(err)
	}
	want := BCScoresOf(clean, g.NumVertices())

	spec := soakBCSpec(g, roots)
	network, err := transport.NewTCPNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer network.Close()
	spec.Network = network
	spec.CheckpointStore = cloud.NewBlobStore()
	tracer, recorder := NewTraceRecorder(1 << 17)
	spec.Tracer = tracer
	metrics := NewEngineMetrics()
	spec.Metrics = metrics
	spec.Chaos = NewChaos(FaultPlan{
		Seed:       11,
		VMRestarts: []VMRestart{{Worker: 1, Superstep: 4}},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("chaos soak failed: %v", err)
	}
	got := BCScoresOf(res, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("vertex %d: score %v under chaos, %v clean", v, got[v], want[v])
		}
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recoveries)
	}
	if len(res.RecoveryEvents) != 1 {
		t.Fatalf("recovery events = %d, want 1", len(res.RecoveryEvents))
	}
	ev := res.RecoveryEvents[0]
	if !ev.Confined {
		t.Error("recovery fell back to a global rollback")
	}
	if len(ev.FailedWorkers) != 1 || ev.FailedWorkers[0] != 1 {
		t.Errorf("failed workers = %v, want [1]", ev.FailedWorkers)
	}
	if ev.ReplayedMsgs == 0 {
		t.Error("ReplayedMsgs = 0, want > 0 (survivors must replay logged traffic)")
	}
	if ev.RecoverySeconds <= 0 {
		t.Errorf("RecoverySeconds = %v, want > 0", ev.RecoverySeconds)
	}
	// The defining property: survivors never restore. Every restore span in
	// the trace must belong to the failed worker.
	for _, e := range recorder.Snapshot() {
		if e.Kind == observe.KindRestore && e.Worker != 1 {
			t.Errorf("worker %d restored a checkpoint: confined recovery must not roll back survivors", e.Worker)
		}
	}
	if n := metrics.Counter("pregel_recovery_confined_total",
		"Recoveries handled confined: only the failed workers restored and re-executed.").Value(); n != 1 {
		t.Errorf("pregel_recovery_confined_total = %v, want 1", n)
	}
	// The replay rounds re-executed work on the failed worker.
	if res.Supersteps <= clean.Supersteps {
		t.Errorf("chaos run executed %d supersteps, clean %d: replay must re-execute work",
			res.Supersteps, clean.Supersteps)
	}
	// Checkpoint GC: once the job's last checkpoint committed, every
	// superseded generation was deleted — the store holds exactly one
	// superstep's worth of snapshot blobs.
	gens := map[string]bool{}
	for _, name := range spec.CheckpointStore.List("checkpoints") {
		gens[name[:len("s00000000")]] = true
	}
	if len(gens) != 1 {
		t.Errorf("checkpoint store holds %d generations %v, want 1 (GC at commit)",
			len(gens), gens)
	}
}

// TestChaosSoakTornCheckpoint scripts a VM dying mid-checkpoint-write: every
// Put of worker 2's superstep-6 snapshot fails until the writer's retry
// budget is exhausted. The attempted checkpoint never commits, so recovery
// must restore from the previous complete checkpoint (superstep 3) — never
// from the torn generation — and the rewrite after recovery succeeds.
func TestChaosSoakTornCheckpoint(t *testing.T) {
	g := GenerateErdosRenyi(120, 360, 41)
	roots := FirstNSources(g, 10)

	clean, err := Run(soakBCSpec(g, roots))
	if err != nil {
		t.Fatal(err)
	}
	want := BCScoresOf(clean, g.NumVertices())

	spec := soakBCSpec(g, roots)
	// The failed snapshot stalls the survivors' sentinel wait for a full
	// barrier timeout; keep it short so the soak stays fast.
	spec.BarrierTimeout = 2 * time.Second
	tracer, recorder := NewTraceRecorder(1 << 17)
	spec.Tracer = tracer
	spec.Chaos = NewChaos(FaultPlan{
		Seed:              17,
		BlobWriteFails:    []BlobWriteFail{{Container: "checkpoints", Name: "s00000006-w0002"}},
		MaxBlobWriteFails: 6, // = the retry budget: one whole attempt dies
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("chaos soak failed: %v", err)
	}
	got := BCScoresOf(res, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("vertex %d: score %v under chaos, %v clean", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Fatalf("recoveries = %d, want >= 1 (torn checkpoint write)", res.Recoveries)
	}
	if res.Faults == nil || res.Faults.BlobErrors != 6 {
		t.Errorf("faults = %+v, want exactly 6 scripted blob write failures", res.Faults)
	}
	// The torn generation must never be restored: every restore targets the
	// last COMMITTED checkpoint (superstep 3), not the failed attempt at 6.
	restores := 0
	for _, e := range recorder.Snapshot() {
		if e.Kind == observe.KindRestore {
			restores++
			if e.Superstep == 6 {
				t.Error("a worker restored the torn superstep-6 checkpoint")
			}
			if e.Superstep != 3 {
				t.Errorf("restore targeted superstep %d, want 3 (last committed)", e.Superstep)
			}
		}
	}
	if restores == 0 {
		t.Error("no restore spans recorded")
	}
}

func TestChaosSoakPageRank(t *testing.T) {
	g := GenerateBarabasiAlbert(200, 3, 9)
	mk := func() JobSpec[float64] {
		spec := algorithms.PageRank{Iterations: 10, Damping: 0.85}.Spec(g, 3)
		spec.CheckpointEvery = 2
		return spec
	}

	clean, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.Ranks(clean, g.NumVertices())

	spec := mk()
	spec.Chaos = NewChaos(FaultPlan{
		Seed:               99,
		BlobErrorProb:      1,
		MaxBlobErrors:      4,
		QueueDuplicateProb: 0.5,
		LeaseExpiryProb:    0.25,
		MaxLeaseExpiries:   6,
		SendDropProb:       0.1,
		MaxSendDrops:       5,
		VMRestarts:         []VMRestart{{Worker: 2, Superstep: 4}},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("chaos soak failed: %v", err)
	}
	got := algorithms.Ranks(res, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: rank %v under chaos, %v clean", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1", res.Recoveries)
	}
	if res.Supersteps <= clean.Supersteps {
		t.Errorf("chaos run executed %d supersteps, clean %d: replay must re-execute work",
			res.Supersteps, clean.Supersteps)
	}
}
