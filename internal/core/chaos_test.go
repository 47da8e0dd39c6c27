package core

import (
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
)

// TestChaosSoakBFS runs BFS under a seeded fault plan hammering every
// substrate layer at once — every control-plane message duplicated,
// transient blob errors, early lease expiries, probabilistic send drops, a
// scripted VM restart — and requires the results to be identical to a
// failure-free run (graph.BFS is the oracle).
func TestChaosSoakBFS(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 17)
	spec := ckptSpec(g, 4, 0)
	spec.Chaos = cloud.NewChaos(cloud.FaultPlan{
		Seed:               1234,
		BlobErrorProb:      1,
		MaxBlobErrors:      4,
		QueueDuplicateProb: 1, // every Put duplicated: tokens, check-ins, acks
		LeaseExpiryProb:    0.2,
		MaxLeaseExpiries:   8,
		SendDropProb:       0.05,
		MaxSendDrops:       10,
		VMRestarts:         []cloud.VMRestart{{Worker: 1, Superstep: 3}},
		ConnDrops:          []cloud.ConnDrop{{From: 0, To: 2, Superstep: 1}},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("chaos soak failed: %v", err)
	}
	checkCkptBFS(t, g, res, 0)
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1 (scripted VM restart)", res.Recoveries)
	}
	if res.VMRestarts != 1 {
		t.Errorf("VMRestarts = %d, want 1", res.VMRestarts)
	}
	if res.Faults == nil {
		t.Fatal("JobResult.Faults not populated")
	}
	if res.Faults.VMRestarts != 1 || res.Faults.ConnDrops != 1 {
		t.Errorf("faults = %+v, want 1 VM restart and 1 conn drop", *res.Faults)
	}
	if res.Faults.QueueDuplicates == 0 || res.Faults.BlobErrors != 4 {
		t.Errorf("faults = %+v, want queue duplicates and 4 blob errors", *res.Faults)
	}
	if res.Retries == 0 {
		t.Error("Retries = 0, want > 0 (injected blob errors must be retried)")
	}
	if res.DuplicatesDropped == 0 {
		t.Error("DuplicatesDropped = 0, want > 0 (every check-in was duplicated)")
	}
}

// TestChaosDuplicateTokensOnly verifies the engine is idempotent against an
// at-least-once control plane on its own: with every queue message
// duplicated but no failures, results and recovery counts are unchanged.
func TestChaosDuplicateTokensOnly(t *testing.T) {
	g := graph.ErdosRenyi(250, 800, 23)
	spec := ckptSpec(g, 3, 0)
	spec.Chaos = cloud.NewChaos(cloud.FaultPlan{Seed: 7, QueueDuplicateProb: 1})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkCkptBFS(t, g, res, 0)
	if res.Recoveries != 0 {
		t.Errorf("recoveries = %d, want 0 (duplicates are not failures)", res.Recoveries)
	}
	if res.DuplicatesDropped == 0 {
		t.Error("DuplicatesDropped = 0, want > 0")
	}
}

// TestManagerDropsStaleAndDuplicateCheckins pre-pollutes the barrier queue
// with a stale check-in and a stray restore ack, as redelivery after an
// aborted execution would: the manager must ignore both and the job must
// still produce correct results.
func TestManagerDropsStaleAndDuplicateCheckins(t *testing.T) {
	g := graph.ErdosRenyi(200, 600, 3)
	spec := ckptSpec(g, 3, 0)
	spec.Queues = cloud.NewQueueService()
	stale, _ := json.Marshal(barrierMsg{Worker: 1, Superstep: 999})
	ack, _ := json.Marshal(barrierMsg{Kind: kindRestore, Worker: 0, Superstep: 0})
	spec.Queues.Queue("barrier").Put(stale)
	spec.Queues.Queue("barrier").Put(ack)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkCkptBFS(t, g, res, 0)
	if res.DuplicatesDropped < 2 {
		t.Errorf("DuplicatesDropped = %d, want >= 2", res.DuplicatesDropped)
	}
}

// stragglerProgram is ckptBFS with one worker sleeping through the barrier
// deadline once, exercising straggler detection end to end.
type stragglerProgram struct {
	ckptBFSProgram
	slept *atomic.Bool
	at    int
	naps  time.Duration
}

// Compute sleeps exactly once on one worker.
//
//pregelvet:allow blockingcompute the stall is the fixture: it must overshoot BarrierTimeout to trigger straggler recovery
func (p *stragglerProgram) Compute(ctx *Context[uint32], msgs []uint32) {
	if ctx.WorkerID() == 1 && ctx.Superstep() == p.at && !p.slept.Swap(true) {
		time.Sleep(p.naps)
	}
	p.ckptBFSProgram.Compute(ctx, msgs)
}

// TestStragglerTriggersRollback makes one worker overshoot BarrierTimeout:
// the manager must declare the barrier failed, roll everyone back to the
// last checkpoint, and replay to a correct result — instead of hanging on
// an open-ended queue wait.
func TestStragglerTriggersRollback(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 17)
	spec := ckptSpec(g, 2, 0)
	spec.BarrierTimeout = 500 * time.Millisecond
	// Sleep past the barrier deadline but wake in time to process the
	// restore token within the recovery's own deadline window.
	var slept atomic.Bool
	inner := spec.NewProgram
	spec.NewProgram = func(id int, gg *graph.Graph, owned []graph.VertexID) VertexProgram[uint32] {
		base := inner(id, gg, owned).(*ckptBFSProgram)
		return &stragglerProgram{ckptBFSProgram: *base, slept: &slept, at: 3, naps: 700 * time.Millisecond}
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("straggler was not recovered: %v", err)
	}
	want := graph.BFS(g, 0)
	got := make([]int32, g.NumVertices())
	for w, prog := range res.Programs {
		p := prog.(*stragglerProgram)
		for li, v := range res.Owned[w] {
			got[v] = p.dist[li]
		}
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d, want %d", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1 (straggler must trigger rollback)", res.Recoveries)
	}
}

// TestCorruptCheckpointFailsRecovery corrupts the checkpoint blobs before a
// failure: the rollback must surface a decode error instead of silently
// restoring garbage state (the bug this exercises: restore used to ignore
// codec decode errors).
func TestCorruptCheckpointFailsRecovery(t *testing.T) {
	g := graph.ErdosRenyi(200, 600, 5)
	spec := ckptSpec(g, 3, 0)
	store := spec.CheckpointStore
	var failed atomic.Bool
	spec.FailureInjector = func(worker, superstep int) error {
		if worker == 0 && superstep == 3 && !failed.Swap(true) {
			for _, name := range store.List("checkpoints") {
				_ = store.Put("checkpoints", name, []byte("garbage"))
			}
			return errors.New("chaos: VM 0 lost at superstep 3")
		}
		return nil
	}
	_, err := Run(spec)
	if err == nil {
		t.Fatal("recovery from corrupt checkpoints unexpectedly succeeded")
	}
	if !strings.Contains(err.Error(), "corrupt checkpoint") {
		t.Errorf("error does not surface corruption: %v", err)
	}
}

// TestDecodeCheckedRejectsMalformed unit-tests the checked snapshot decode:
// trailing garbage and short buffers must produce errors, not silently
// yield zero-valued messages.
func TestDecodeCheckedRejectsMalformed(t *testing.T) {
	w := &worker[uint32]{codec: Uint32Codec{}}
	good := Uint32Codec{}.Append(nil, 7)
	if m, err := w.decodeChecked(good); err != nil || m != 7 {
		t.Fatalf("valid message rejected: m=%d err=%v", m, err)
	}
	if _, err := w.decodeChecked(append(good, 0xFF)); err == nil {
		t.Error("trailing garbage not rejected")
	}
	if _, err := w.decodeChecked([]byte{1, 2}); err == nil {
		t.Error("short buffer not rejected")
	}
}
