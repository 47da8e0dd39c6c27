package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// ckptBFSProgram is the test BFS program plus a StateCodec: each vertex's
// distance as 4 little-endian bytes.
type ckptBFSProgram struct {
	bfsProgram
}

func newCkptBFSProgram(_ int, _ *graph.Graph, owned []graph.VertexID) VertexProgram[uint32] {
	p := &ckptBFSProgram{bfsProgram{dist: make([]int32, len(owned))}}
	for i := range p.dist {
		p.dist[i] = -1
	}
	return p
}

func (p *ckptBFSProgram) AppendVertex(dst []byte, li int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(p.dist[li]))
}

func (p *ckptBFSProgram) ReadVertex(li int32, src []byte) (int, error) {
	if len(src) < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	p.dist[li] = int32(binary.LittleEndian.Uint32(src))
	return 4, nil
}

var _ StateCodec = (*ckptBFSProgram)(nil)

func ckptSpec(g *graph.Graph, workers int, src graph.VertexID) JobSpec[uint32] {
	spec := bfsSpec(g, workers, src)
	spec.NewProgram = newCkptBFSProgram
	spec.CheckpointEvery = 2
	spec.CheckpointStore = cloud.NewBlobStore()
	return spec
}

func ckptDistances(res *JobResult[uint32], n int) []int32 {
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	for w, prog := range res.Programs {
		p := prog.(*ckptBFSProgram)
		for li, v := range res.Owned[w] {
			dist[v] = p.dist[li]
		}
	}
	return dist
}

func checkCkptBFS(t *testing.T, g *graph.Graph, res *JobResult[uint32], src graph.VertexID) {
	t.Helper()
	want := graph.BFS(g, src)
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d, want %d", v, got[v], want[v])
		}
	}
}

func TestCheckpointingWithoutFailures(t *testing.T) {
	g := graph.ErdosRenyi(200, 600, 3)
	spec := ckptSpec(g, 4, 0)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkCkptBFS(t, g, res, 0)
	if res.Recoveries != 0 {
		t.Errorf("recoveries = %d, want 0", res.Recoveries)
	}
	// Snapshots exist for checkpointed supersteps.
	if blobs := spec.CheckpointStore.List("checkpoints"); len(blobs) == 0 {
		t.Error("no checkpoint blobs written")
	}
}

func TestRecoveryFromInjectedFailure(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 17)
	spec := ckptSpec(g, 4, 0)
	var failed atomic.Bool
	spec.FailureInjector = func(worker, superstep int) error {
		if worker == 2 && superstep == 5 && !failed.Swap(true) {
			return errors.New("chaos: VM 2 lost at superstep 5")
		}
		return nil
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkCkptBFS(t, g, res, 0)
	if res.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", res.Recoveries)
	}
	// Confined recovery (the default) rewinds only the failed worker: the
	// recorded timeline never dips because survivors keep executing forward
	// and the replay rounds run outside the main superstep loop.
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].Superstep <= res.Steps[i-1].Superstep {
			t.Errorf("timeline dipped at index %d (%d after %d): confined recovery must not rewind survivors",
				i, res.Steps[i].Superstep, res.Steps[i-1].Superstep)
		}
	}
	if len(res.RecoveryEvents) != 1 {
		t.Fatalf("recovery events = %d, want 1", len(res.RecoveryEvents))
	}
	ev := res.RecoveryEvents[0]
	if !ev.Confined {
		t.Error("recovery was not confined")
	}
	if len(ev.FailedWorkers) != 1 || ev.FailedWorkers[0] != 2 {
		t.Errorf("failed workers = %v, want [2]", ev.FailedWorkers)
	}
	if want := ev.AtSuperstep - ev.Checkpoint + 1; ev.ReplaySupersteps != want {
		t.Errorf("replay supersteps = %d, want %d", ev.ReplaySupersteps, want)
	}
}

// TestConfinedReplayBillsLogicalBytes: a survivor's replay bills what the
// replayed traffic was billed when first sent, per-message records and
// batch headers, although its logged batches carry broadcast records. On a
// two-worker BFS where only worker 0 sends remote messages — a chain of
// even vertices, each also pointing at all 20 odd ones, which point
// nowhere — each superstep's remote bytes are one batch of 20 records of
// 12 bytes, and losing worker 1 replays exactly the steps since the
// checkpoint.
func TestConfinedReplayBillsLogicalBytes(t *testing.T) {
	const chain, fan = 12, 20
	b := graph.NewBuilder(2 * max(chain, fan))
	for i := range chain {
		if i+1 < chain {
			b.Add(graph.VertexID(2*i), graph.VertexID(2*i+2))
		}
		for j := range fan {
			b.Add(graph.VertexID(2*i), graph.VertexID(2*j+1))
		}
	}
	g := b.Build()
	spec := ckptSpec(g, 2, 0)
	var failed atomic.Bool
	spec.FailureInjector = func(worker, superstep int) error {
		if worker == 1 && superstep == 5 && !failed.Swap(true) {
			return errors.New("chaos: VM 1 lost at superstep 5")
		}
		return nil
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkCkptBFS(t, g, res, 0)
	if len(res.RecoveryEvents) != 1 || !res.RecoveryEvents[0].Confined {
		t.Fatalf("recovery events %+v, want one confined recovery", res.RecoveryEvents)
	}
	ev := res.RecoveryEvents[0]
	const perStep = fan*(msgWireOverhead+4) + transport.BatchHeaderSize
	var billed int64
	for _, st := range res.Steps {
		if st.Superstep >= ev.Checkpoint && st.Superstep <= ev.AtSuperstep {
			if st.RemoteBytes != perStep {
				t.Fatalf("superstep %d billed %d remote bytes, want %d", st.Superstep, st.RemoteBytes, perStep)
			}
			billed += st.RemoteBytes
		}
	}
	if want := int64(perStep * (ev.AtSuperstep - ev.Checkpoint + 1)); billed != want || ev.ReplayedBytes != want {
		t.Fatalf("replayed %d bytes of supersteps %d..%d, first billed at %d; want %d",
			ev.ReplayedBytes, ev.Checkpoint, ev.AtSuperstep, billed, want)
	}
	if ev.ReplayedMsgs != int64(fan*(ev.AtSuperstep-ev.Checkpoint+1)) {
		t.Fatalf("replayed %d messages, want %d", ev.ReplayedMsgs, fan*(ev.AtSuperstep-ev.Checkpoint+1))
	}
}

func TestGlobalRecoveryFromInjectedFailure(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 17)
	spec := ckptSpec(g, 4, 0)
	spec.RecoveryMode = RecoverGlobal
	var failed atomic.Bool
	spec.FailureInjector = func(worker, superstep int) error {
		if worker == 2 && superstep == 5 && !failed.Swap(true) {
			return errors.New("chaos: VM 2 lost at superstep 5")
		}
		return nil
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkCkptBFS(t, g, res, 0)
	if res.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", res.Recoveries)
	}
	// A global rollback rewinds everyone: the timeline contains re-executed
	// supersteps, so superstep numbers fall back to the checkpoint after the
	// failure (the failed superstep itself is not recorded, so the dip shows
	// as a repeat or decrease).
	dipped := false
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].Superstep <= res.Steps[i-1].Superstep {
			dipped = true
		}
	}
	if !dipped {
		t.Error("expected the superstep timeline to roll back")
	}
	if len(res.RecoveryEvents) != 1 || res.RecoveryEvents[0].Confined {
		t.Errorf("recovery events = %+v, want one global event", res.RecoveryEvents)
	}
}

func TestRecoveryFromRepeatedFailures(t *testing.T) {
	g := graph.ErdosRenyi(150, 450, 9)
	spec := ckptSpec(g, 3, 0)
	var failures atomic.Int32
	spec.FailureInjector = func(worker, superstep int) error {
		if worker == 1 && superstep == 3 && failures.Add(1) <= 2 {
			return fmt.Errorf("chaos strike %d", failures.Load())
		}
		return nil
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkCkptBFS(t, g, res, 0)
	if res.Recoveries != 2 {
		t.Errorf("recoveries = %d, want 2", res.Recoveries)
	}
}

func TestRecoveryGivesUpAfterMaxRecoveries(t *testing.T) {
	g := graph.Ring(32)
	spec := ckptSpec(g, 2, 0)
	spec.FailureInjector = func(worker, superstep int) error {
		if worker == 0 && superstep == 3 {
			return errors.New("chaos: permanent failure")
		}
		return nil
	}
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 recoveries") {
		t.Errorf("err = %v, want giving-up error", err)
	}
}

func TestFailureWithoutCheckpointsIsFatal(t *testing.T) {
	g := graph.Ring(16)
	spec := bfsSpec(g, 2, 0)
	spec.FailureInjector = func(worker, superstep int) error {
		if worker == 0 && superstep == 2 {
			return errors.New("chaos")
		}
		return nil
	}
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("err = %v, want fatal chaos error", err)
	}
}

func TestCheckpointRequiresCheckpointableProgram(t *testing.T) {
	g := graph.Ring(8)
	spec := bfsSpec(g, 2, 0) // plain bfsProgram: no StateCodec
	spec.CheckpointEvery = 2
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "StateCodec") {
		t.Errorf("err = %v, want StateCodec requirement error", err)
	}
}

func TestRecoveryFromMemoryBlowout(t *testing.T) {
	// The fabric-restart scenario: an over-large swath blows the memory
	// limit mid-job. With checkpoints the job rolls back and retries; the
	// retry hits the same wall, so it gives up — but cleanly, through the
	// recovery machinery.
	g := graph.Complete(48)
	spec := ckptSpec(g, 2, 0)
	spec.CostModel = cloud.DefaultCostModel(cloud.LargeVM().WithMemory(2048))
	_, err := Run(spec)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, cloud.ErrMemoryBlowout) {
		t.Errorf("err = %v, want wrapped ErrMemoryBlowout", err)
	}
	if !strings.Contains(err.Error(), "giving up after 3 recoveries") {
		t.Errorf("err = %v, want recovery attempts first", err)
	}
}

func TestRecoveryWithSwathSchedulerReplay(t *testing.T) {
	// Swath injections after recovery must be replayed, not re-asked: the
	// final BC-style multi-injection result must match a failure-free run.
	g := graph.ErdosRenyi(200, 700, 21)
	sources := []graph.VertexID{0, 50, 100, 150}

	mkSpec := func() JobSpec[uint32] {
		spec := ckptSpec(g, 4, 0)
		spec.Scheduler = NewSwathRunner(sources, StaticSizer(1), StaticNInitiator(2))
		return spec
	}
	clean, err := Run(mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	faulty := mkSpec()
	var failed atomic.Bool
	faulty.FailureInjector = func(worker, superstep int) error {
		if worker == 1 && superstep == 5 && !failed.Swap(true) {
			return errors.New("chaos")
		}
		return nil
	}
	res, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d", res.Recoveries)
	}
	// Multi-source BFS distances must be identical to the clean run.
	want := ckptDistances(clean, g.NumVertices())
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d, want %d (injection replay broken)", v, got[v], want[v])
		}
	}
	// Total injections across the timeline may exceed len(sources) because
	// replayed supersteps re-inject; distinct sources must not be skipped.
	var totalInjected int
	for _, s := range res.Steps {
		totalInjected += s.Injected
	}
	if totalInjected < len(sources) {
		t.Errorf("injected %d < %d sources", totalInjected, len(sources))
	}
}

func TestMasterComputeHaltsJob(t *testing.T) {
	g := graph.Ring(16)
	spec := JobSpec[uint32]{
		Graph:       g,
		NumWorkers:  2,
		Codec:       Uint32Codec{},
		ActivateAll: true,
		NewProgram: func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] {
			return computeFunc[uint32](func(ctx *Context[uint32], _ []uint32) {
				ctx.Aggregate("active", 1)
				ctx.SendToNeighbors(1) // never halts on its own
			})
		},
		MasterCompute: func(superstep int, aggs map[string]float64) error {
			if superstep >= 4 {
				return ErrHaltJob
			}
			return nil
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 5 {
		t.Errorf("supersteps = %d, want 5 (halted by master)", res.Supersteps)
	}
}

func TestMasterComputeErrorAborts(t *testing.T) {
	g := graph.Ring(8)
	spec := bfsSpec(g, 2, 0)
	spec.MasterCompute = func(superstep int, aggs map[string]float64) error {
		if superstep == 2 {
			return errors.New("master exploded")
		}
		return nil
	}
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "master exploded") {
		t.Errorf("err = %v", err)
	}
}

func TestMasterComputeMutatesBroadcast(t *testing.T) {
	g := graph.Ring(8)
	var sawValue atomic.Bool
	spec := JobSpec[uint32]{
		Graph:       g,
		NumWorkers:  2,
		Codec:       Uint32Codec{},
		ActivateAll: true,
		NewProgram: func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] {
			return computeFunc[uint32](func(ctx *Context[uint32], _ []uint32) {
				if ctx.Superstep() == 1 {
					if v, ok := ctx.Agg("master/value"); ok && v == 42 {
						sawValue.Store(true)
					}
					ctx.VoteToHalt()
					return
				}
			})
		},
		MasterCompute: func(superstep int, aggs map[string]float64) error {
			if superstep == 0 {
				aggs["master/value"] = 42
			}
			return nil
		},
	}
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	if !sawValue.Load() {
		t.Error("vertices did not see the master-injected aggregate")
	}
}
