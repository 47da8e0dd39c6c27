package pregelnet

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// Sparse-frontier transition soak. The PageRank and BC soaks keep the whole
// partition active, so a wake bit lost across a restore, an adoption or a
// resume would go unnoticed there. SSSP on a grid keeps a frontier of at
// most 128 vertices out of 4096, and every transition lands mid-frontier: the
// result must equal the sequential BFS and every committed superstep must
// report the fault-free run's active counts.

// committedSteps keys a timeline by superstep; a later entry for the same
// superstep (a re-execution) replaces the earlier one.
func committedSteps(steps []core.StepStats) map[int]core.StepStats {
	out := make(map[int]core.StepStats, len(steps))
	for _, s := range steps {
		out[s.Superstep] = s
	}
	return out
}

func TestSparseFrontierTransitions(t *testing.T) {
	g := graph.Grid(64, 64)
	layout := partition.NewLDG(partition.DefaultSlack).Partition(g, 3)
	want := graph.BFS(g, 0)
	models := []struct {
		name string
		spec func(g *graph.Graph) core.JobSpec[uint32]
		dist func(res *core.JobResult[uint32], n int) []int32
		// layoutFree: the per-superstep frontier does not depend on the
		// partition layout. The subgraph program's local fixpoint does, so
		// a resize legitimately changes its frontier from then on.
		layoutFree bool
	}{
		{"vertex", func(g *graph.Graph) core.JobSpec[uint32] { return algorithms.SSSP(g, 3, 0) },
			algorithms.SSSPDistances, true},
		{"adapter", func(g *graph.Graph) core.JobSpec[uint32] {
			spec := algorithms.SSSP(g, 3, 0)
			core.UseVertexAdapter(&spec)
			return spec
		}, algorithms.SSSPDistances, true},
		{"subgraph", func(g *graph.Graph) core.JobSpec[uint32] { return algorithms.SSSPSubgraph(g, 3, 0) },
			algorithms.SSSPSubgraphDistances, false},
	}
	transports := []struct {
		name    string
		factory func(n int) (transport.Network, error)
	}{
		{"chan", nil},
		{"tcp", func(n int) (transport.Network, error) { return transport.NewTCPNetwork(n) }},
	}
	for _, model := range models {
		base := model.spec(g)
		base.Assignment = layout
		clean, err := core.Run(base)
		if err != nil {
			t.Fatalf("%s: fault-free run: %v", model.name, err)
		}
		ref := committedSteps(clean.Steps)
		n := len(clean.Steps)
		if n < 4 {
			t.Fatalf("%s: fault-free run took %d supersteps, too few to land transitions mid-frontier", model.name, n)
		}
		mid, out, in := n/2, n/3, 2*n/3
		// The confined failure hits the worker with the most vertices active
		// at a checkpoint, so its restore must bring back a pending frontier,
		// not just injections. It fails two supersteps later where the run
		// is long enough: one superstep later, the wakes its aborted
		// execution left behind would cover the restored frontier by
		// accident (on an undirected grid, each level messages the level
		// before it).
		ckpt := mid &^ 1
		failAt := min(ckpt+2, n-1)
		failed := 0
		for w, a := range ref[ckpt].WorkerActive {
			if a > ref[ckpt].WorkerActive[failed] {
				failed = w
			}
		}

		transitions := []struct {
			name  string
			setup func(spec *core.JobSpec[uint32])
			check func(t *testing.T, res *core.JobResult[uint32])
		}{
			{"confined", func(spec *core.JobSpec[uint32]) {
				spec.CheckpointEvery = 2
				spec.Chaos = cloud.NewChaos(cloud.FaultPlan{
					Seed:       5,
					VMRestarts: []cloud.VMRestart{{Worker: failed, Superstep: failAt}},
				})
			}, func(t *testing.T, res *core.JobResult[uint32]) {
				if len(res.RecoveryEvents) != 1 || !res.RecoveryEvents[0].Confined || res.RecoveryEvents[0].Checkpoint != ckpt {
					t.Errorf("recovery events %+v, want one confined recovery from checkpoint %d", res.RecoveryEvents, ckpt)
				}
			}},
			{"scale", func(spec *core.JobSpec[uint32]) {
				spec.CheckpointEvery = 3
				spec.ElasticController = core.ElasticControllerFunc(func(prev *core.StepStats, cur int) int {
					switch {
					case prev == nil:
						return cur
					case prev.Superstep >= in:
						return 3
					case prev.Superstep >= out:
						return 4
					}
					return cur
				})
			}, func(t *testing.T, res *core.JobResult[uint32]) {
				if len(res.ScaleEvents) != 2 || res.ScaleEvents[0].ToWorkers != 4 || res.ScaleEvents[1].ToWorkers != 3 {
					t.Errorf("scale events %+v, want a scale-out to 4 then a scale-in to 3", res.ScaleEvents)
				}
			}},
			{"preempt", func(spec *core.JobSpec[uint32]) {
				var fired atomic.Bool
				spec.BarrierPreempt = func(next int) bool {
					return next == mid && fired.CompareAndSwap(false, true)
				}
			}, func(t *testing.T, res *core.JobResult[uint32]) {
				if res.Preemptions != 1 {
					t.Errorf("preemptions = %d, want 1", res.Preemptions)
				}
			}},
		}
		for _, tr := range transports {
			for _, tc := range transitions {
				t.Run(fmt.Sprintf("%s/%s/%s", model.name, tr.name, tc.name), func(t *testing.T) {
					spec := model.spec(g)
					spec.Assignment = append(partition.Assignment(nil), layout...)
					spec.NetworkFactory = tr.factory
					tc.setup(&spec)
					res, err := core.Run(spec)
					for err == nil && res.Suspended != nil {
						spec.Resume = res.Suspended
						res, err = core.Run(spec)
					}
					if err != nil {
						t.Fatal(err)
					}
					tc.check(t, res)
					got := model.dist(res, g.NumVertices())
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("vertex %d: dist %d, BFS %d", v, got[v], want[v])
						}
					}
					steps := committedSteps(res.Steps)
					layoutFixedUntil := len(steps)
					if !model.layoutFree && len(res.ScaleEvents) > 0 {
						layoutFixedUntil = res.ScaleEvents[0].Superstep
					} else if len(steps) != n {
						t.Errorf("%d committed supersteps, fault-free run %d", len(steps), n)
					}
					for s := 0; s < layoutFixedUntil; s++ {
						got, want := steps[s], ref[s]
						if got.ActiveVertices != want.ActiveVertices || got.ActiveAfter != want.ActiveAfter {
							t.Errorf("superstep %d: active %d after %d, fault-free %d after %d",
								s, got.ActiveVertices, got.ActiveAfter, want.ActiveVertices, want.ActiveAfter)
						}
					}
					if !model.layoutFree {
						for s, st := range steps {
							if st.ActiveAfter != 0 {
								t.Errorf("superstep %d: ActiveAfter %d, want 0 (the program votes all to halt)", s, st.ActiveAfter)
							}
						}
					}
				})
			}
		}
	}
}
