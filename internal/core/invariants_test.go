//go:build pregel_invariants

package core

import (
	"strings"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// Canaries for the frontier invariants: each skips one wake on purpose and
// requires the dense cross-check to name the vertex. They only exist under
// -tags pregel_invariants; the default build compiles the checks away.

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	f()
}

// frontierWorker builds worker 0 of a two-worker BFS job on an 8-ring,
// owning the even vertices, with every vertex halted.
func frontierWorker(t *testing.T, combiner Combiner[uint32]) *worker[uint32] {
	t.Helper()
	spec := bfsSpec(graph.Ring(8), 2, 0)
	spec.Combiner = combiner
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChannelNetwork(2, 64)
	t.Cleanup(func() { net.Close() })
	ep, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int32{0, -1, 1, -1, 2, -1, 3, -1}
	return newWorker(&s, 0, []graph.VertexID{0, 2, 4, 6}, idx, ep, nil, nil)
}

func TestFrontierInvariantCatchesSkippedDeliveryWake(t *testing.T) {
	for _, tc := range []struct {
		name     string
		combiner Combiner[uint32]
	}{{"combined", MinUint32Combiner{}}, {"plain", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			w := frontierWorker(t, tc.combiner)
			active := w.frontier() // the wake-all pass: nothing is active
			if len(active) != 0 {
				t.Fatalf("active = %v, want none", active)
			}
			w.deliverLocal(2, 7, 8)
			w.swapInboxes(active)
			w.activeAfter()
			w.wakeCur[0].And(^uint64(1 << 2)) // lose vertex 4's delivery wake
			w.superstep = 1
			mustPanic(t, "worker 0 superstep 1: vertex 4 (local 2)", func() { w.frontier() })
		})
	}
}

func TestFrontierInvariantCatchesSkippedRunningWake(t *testing.T) {
	w := frontierWorker(t, MinUint32Combiner{})
	active := w.frontier()
	w.halted[3] = false // left running without a wake
	w.swapInboxes(active)
	mustPanic(t, "vertex 6 (local 3) is not halted but was never woken", func() { w.activeAfter() })
}

func TestFrontierInvariantQuietWhenWoken(t *testing.T) {
	w := frontierWorker(t, MinUint32Combiner{})
	active := w.frontier()
	w.deliverLocal(1, 3, 8)
	w.halted[3] = false
	w.wakeNext.set(3)
	w.swapInboxes(active)
	if n := w.activeAfter(); n != 1 {
		t.Fatalf("activeAfter = %d, want 1", n)
	}
	if got := w.frontier(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("frontier = %v, want [1 3]", got)
	}
}
