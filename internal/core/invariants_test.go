//go:build pregel_invariants

package core

import (
	"slices"
	"strings"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// Canaries for the frontier and delivery invariants: each skips one piece of
// bookkeeping on purpose and requires the dense cross-check to name the
// vertex. They only exist under -tags pregel_invariants; the default build
// compiles the checks away.

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
	return testWorker(t, &s, net, 0)
}

// barrier ends the worker's superstep as runSuperstep does: the merge, then
// the wake-set rotation.
func barrier(w *worker[uint32]) {
	w.deliver()
	w.wakeCur, w.wakeNext = w.wakeNext, w.wakeCur
}

var inboxModes = []struct {
	name     string
	combiner Combiner[uint32]
}{{"combined", MinUint32Combiner{}}, {"plain", nil}}

func TestFrontierInvariantCatchesSkippedDeliveryWake(t *testing.T) {
	for _, tc := range inboxModes {
		t.Run(tc.name, func(t *testing.T) {
			w := frontierWorker(t, tc.combiner)
			active := w.frontier() // the wake-all pass: nothing is active
			if len(active) != 0 {
				t.Fatalf("active = %v, want none", active)
			}
			w.slotContext(0).Send(4, 7)
			barrier(w)
			w.activeAfter()
			w.wakeCur[0].And(^uint64(1 << 2)) // lose vertex 4's delivery wake
			w.superstep = 1
			mustPanic(t, "worker 0 superstep 1: vertex 4 (local 2)", func() { w.frontier() })
		})
	}
}

func TestFrontierInvariantCatchesSkippedRunningWake(t *testing.T) {
	w := frontierWorker(t, MinUint32Combiner{})
	w.frontier()
	w.halted[3] = false // left running without a wake
	barrier(w)
	mustPanic(t, "vertex 6 (local 3) is not halted but was never woken", func() { w.activeAfter() })
}

func TestFrontierInvariantQuietWhenWoken(t *testing.T) {
	w := frontierWorker(t, MinUint32Combiner{})
	w.frontier()
	w.slotContext(0).Send(2, 3)
	w.halted[3] = false
	w.wakeNext.set(3)
	barrier(w)
	if n := w.activeAfter(); n != 1 {
		t.Fatalf("activeAfter = %d, want 1", n)
	}
	if got := w.frontier(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("frontier = %v, want [1 3]", got)
	}
}

// TestDeliveryInvariantCatchesStaleInbox: a merge whose reset forgets a
// vertex leaves it holding a message nobody sent this superstep.
func TestDeliveryInvariantCatchesStaleInbox(t *testing.T) {
	for _, tc := range inboxModes {
		t.Run(tc.name, func(t *testing.T) {
			w := frontierWorker(t, tc.combiner)
			w.frontier()
			w.slotContext(0).Send(4, 7)
			barrier(w)
			if got := w.in.msgs(2); !slices.Equal(got, []uint32{7}) {
				t.Fatalf("vertex 4's inbox = %v, want [7]", got)
			}
			// The inbox loses track of vertex 4 (local 2), so the next reset
			// leaves its message in place.
			if tc.combiner != nil {
				w.in.blocks = w.in.blocks[:0]
			} else {
				w.in.touched = w.in.touched[:0]
			}
			w.superstep = 1
			mustPanic(t, "worker 0 superstep 1: vertex 4 (local 2) holds 1 messages, its producers sent 0",
				func() { w.deliver() })
		})
	}
}

// TestDeliveryInvariantCatchesForeignIndex: a run entry for a local index
// the worker does not own is named before the merge indexes with it.
func TestDeliveryInvariantCatchesForeignIndex(t *testing.T) {
	w := frontierWorker(t, nil)
	w.recv[1].add(9, 5, 12)
	mustPanic(t, "worker 0 superstep 0: a run names local index 9 of 4", func() { w.deliver() })
}

// TestDeliveryInvariantQuiet: local sends, then sender 1's run, in that
// order; folded under the combiner.
func TestDeliveryInvariantQuiet(t *testing.T) {
	for _, tc := range inboxModes {
		t.Run(tc.name, func(t *testing.T) {
			w := frontierWorker(t, tc.combiner)
			w.frontier()
			w.recv[1].add(2, 9, 12)
			w.recv[1].add(0, 1, 12)
			ctx := w.slotContext(0)
			ctx.Send(4, 7)
			ctx.Send(4, 5)
			barrier(w)
			want := [][]uint32{{1}, nil, {7, 5, 9}, nil}
			if tc.combiner != nil {
				want[2] = []uint32{5}
			}
			for li, msgs := range want {
				if got := w.in.msgs(int32(li)); !slices.Equal(got, msgs) {
					t.Errorf("local %d inbox = %v, want %v", li, got, msgs)
				}
			}
		})
	}
}
