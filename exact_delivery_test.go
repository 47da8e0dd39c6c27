package pregelnet

import (
	"math"
	"sync/atomic"
	"testing"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// TestBitExactDelivery: at a fixed assignment and ComputeParallelism 1, the
// barrier merge folds and orders every vertex's messages the same way
// whatever order the transport delivered them in, so float results are the
// same bits across reruns, transports, confined recovery, global rollback
// and preemption. PageRank exercises the combiner fold, BC the uncombined
// inbox order.
func TestBitExactDelivery(t *testing.T) {
	g := graph.RMAT(11, 8, 0.57, 0.19, 0.19, 0.05, 1)
	n := g.NumVertices()
	t.Run("pagerank", func(t *testing.T) {
		checkBitExact(t, func() core.JobSpec[float64] {
			return algorithms.PageRank{Iterations: 10, Damping: 0.85}.Spec(g, 2)
		}, func(res *core.JobResult[float64]) []float64 { return algorithms.Ranks(res, n) })
	})
	t.Run("bc", func(t *testing.T) {
		roots := algorithms.Sources(g, 8)
		checkBitExact(t, func() core.JobSpec[algorithms.BCMsg] {
			return algorithms.BC(g, 2, core.NewAllAtOnce(roots))
		}, func(res *core.JobResult[algorithms.BCMsg]) []float64 { return algorithms.BCScores(res, n) })
	})
}

// checkBitExact runs mk's job at ComputeParallelism 1 three times over
// channels, once over TCP, through a confined recovery, a global rollback
// and a preempt/resume, and requires every run's values to have the first
// run's bits.
func checkBitExact[M any](t *testing.T, mk func() core.JobSpec[M], values func(*core.JobResult[M]) []float64) {
	restart := func(mode core.RecoveryMode) func(*core.JobSpec[M]) {
		return func(s *core.JobSpec[M]) {
			s.CheckpointEvery = 2
			s.RecoveryMode = mode
			s.Chaos = cloud.NewChaos(cloud.FaultPlan{Seed: 3,
				VMRestarts: []cloud.VMRestart{{Worker: 1, Superstep: 3}}})
		}
	}
	runs := []struct {
		name  string
		setup func(*core.JobSpec[M])
		check func(*core.JobResult[M]) bool
	}{
		{"chan-1", nil, nil},
		{"chan-2", nil, nil},
		{"chan-3", nil, nil},
		{"tcp", func(s *core.JobSpec[M]) {
			s.NetworkFactory = tcpNetwork
		}, nil},
		{"confined", restart(core.RecoverConfined), func(res *core.JobResult[M]) bool {
			return len(res.RecoveryEvents) == 1 && res.RecoveryEvents[0].Confined
		}},
		{"global", restart(core.RecoverGlobal), func(res *core.JobResult[M]) bool {
			return len(res.RecoveryEvents) == 1 && !res.RecoveryEvents[0].Confined
		}},
		{"preempt", func(s *core.JobSpec[M]) {
			var fired atomic.Bool
			s.BarrierPreempt = func(next int) bool { return next == 4 && fired.CompareAndSwap(false, true) }
		}, func(res *core.JobResult[M]) bool { return res.Preemptions == 1 }},
	}
	var ref []float64
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			spec := mk()
			spec.ComputeParallelism = 1
			if r.setup != nil {
				r.setup(&spec)
			}
			res, err := core.Run(spec)
			for err == nil && res.Suspended != nil {
				spec.Resume = res.Suspended
				res, err = core.Run(spec)
			}
			if err != nil {
				t.Fatal(err)
			}
			if r.check != nil && !r.check(res) {
				t.Fatalf("the %s transition did not happen (recoveries %+v, preemptions %d)",
					r.name, res.RecoveryEvents, res.Preemptions)
			}
			got := values(res)
			if ref == nil {
				ref = got
				return
			}
			differ, first := 0, -1
			for v := range ref {
				if math.Float64bits(got[v]) != math.Float64bits(ref[v]) {
					if first < 0 {
						first = v
					}
					differ++
				}
			}
			if differ > 0 {
				t.Fatalf("%d of %d values differ bitwise from the first run (vertex %d: %v, first run %v)",
					differ, len(ref), first, got[first], ref[first])
			}
		})
	}
}
