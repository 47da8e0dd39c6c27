package core

import (
	"strings"
	"testing"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
)

// Tests for the partition-centric execution path at the engine level: spec
// validation, the vertex-program adapter, and the adapter's pass-through of
// checkpoint/migration capabilities (algorithm-level equality and chaos
// coverage lives in internal/algorithms/subgraph_test.go).

func TestPartitionSpecValidation(t *testing.T) {
	g := graph.Ring(8)

	neither := JobSpec[uint32]{Graph: g, NumWorkers: 2, Codec: Uint32Codec{}}
	if _, err := Run(neither); err == nil || !strings.Contains(err.Error(), "NewPartitionProgram") {
		t.Errorf("no program factory: err = %v, want mention of both factory fields", err)
	}

	both := bfsSpec(g, 2, 0)
	both.NewPartitionProgram = func(_ int, _ *graph.Graph, owned []graph.VertexID) PartitionProgram[uint32] {
		return AdaptVertexProgram(newBFSProgram(0, g, owned))
	}
	if _, err := Run(both); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("both program factories: err = %v, want mutually-exclusive error", err)
	}
}

// TestVertexAdapterMatchesDirectRun runs the same BFS program natively and
// under AdaptVertexProgram; the adapter must produce identical results and
// JobResult.Programs must surface the unwrapped inner program.
func TestVertexAdapterMatchesDirectRun(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 17)

	direct, err := Run(bfsSpec(g, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := bfsDistances(direct, g.NumVertices())

	spec := bfsSpec(g, 4, 0)
	UseVertexAdapter(&spec)
	if spec.NewProgram != nil {
		t.Fatal("UseVertexAdapter left NewProgram set")
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for w := range res.PartitionPrograms {
		if _, ok := res.PartitionPrograms[w].(*vertexAdapter[uint32]); !ok {
			t.Fatalf("PartitionPrograms[%d] = %T, want *vertexAdapter", w, res.PartitionPrograms[w])
		}
	}
	got := bfsDistances(res, g.NumVertices()) // relies on Programs holding the inner *bfsProgram
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: adapter dist %d, want %d", v, got[v], want[v])
		}
	}
	if res.Supersteps != direct.Supersteps {
		t.Errorf("adapter ran %d supersteps, direct run %d", res.Supersteps, direct.Supersteps)
	}
}

// TestVertexAdapterElasticScaleOut checks that the wrapped program's
// StateCodec shines through the adapter: an elastic resize mid-job needs
// per-vertex state save and reload.
func TestVertexAdapterElasticScaleOut(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 5)
	want := graph.BFS(g, 0)

	spec := ckptSpec(g, 2, 0)
	UseVertexAdapter(&spec)
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
}

// TestVertexAdapterConfinedRecovery checks checkpoint/restore through the
// adapter under a scripted VM restart with confined recovery.
func TestVertexAdapterConfinedRecovery(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 11)
	want := graph.BFS(g, 0)

	spec := ckptSpec(g, 3, 0)
	UseVertexAdapter(&spec)
	spec.Chaos = cloud.NewChaos(cloud.FaultPlan{
		Seed:       99,
		VMRestarts: []cloud.VMRestart{{Worker: 1, Superstep: 3}},
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := ckptDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d after recovery, want %d", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1", res.Recoveries)
	}
}

// relayProgram hands activity along the partition: each superstep it halts
// everything and Activates the next local vertex, which is not in the active
// list and has no messages, so only Activate's wake can make it run.
type relayProgram struct{}

func (relayProgram) ComputePartition(pc *PartitionContext[uint32]) {
	pc.VoteAllToHalt()
	if next := int32(pc.Superstep()); int(next) < pc.NumLocal() {
		pc.Activate(next)
	}
}

func TestPartitionActivateWakesHaltedVertex(t *testing.T) {
	g := graph.Ring(8)
	res, err := Run(JobSpec[uint32]{Graph: g, NumWorkers: 1, Codec: Uint32Codec{}, ActivateAll: true,
		NewPartitionProgram: func(int, *graph.Graph, []graph.VertexID) PartitionProgram[uint32] {
			return relayProgram{}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 9 {
		t.Fatalf("ran %d supersteps, want 9 (one per relayed vertex, plus superstep 0)", len(res.Steps))
	}
	for _, s := range res.Steps[1:] {
		if s.ActiveVertices != 1 {
			t.Errorf("superstep %d: %d active, want the one Activated vertex", s.Superstep, s.ActiveVertices)
		}
	}
}
