package core

import (
	"reflect"
	"testing"

	"pregelnet/internal/cloud"
	"pregelnet/internal/observe"
	"pregelnet/internal/transport"
)

// CheckRestoreMatchesAdopt runs spec until the barrier before superstep at,
// suspends it there, and has every halted worker write a checkpoint blob.
// Each blob is then restored into one fresh worker and adopted, under the
// same assignment, into another. Both must end with the writer's halted
// flags, inboxes and inbox byte count, with identical program state, and
// must re-encode to the same blob bytes.
func CheckRestoreMatchesAdopt[M any](t *testing.T, spec JobSpec[M], at int) {
	t.Helper()
	spec.BarrierPreempt = func(next int) bool { return next == at }
	spec.CheckpointStore = cloud.NewBlobStore()
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	resize, writers, err := runSegment(&s, newJobState(), cloud.NewFabric(), newJobInstruments(nil, nil), nil)
	if err != nil || resize == nil || !resize.suspend {
		t.Fatalf("job did not suspend before superstep %d (err %v)", at, err)
	}
	owned := ownedLists(s.Assignment, s.NumWorkers)
	fresh := func() []*worker[M] {
		net := transport.NewChannelNetwork(s.NumWorkers, 64)
		t.Cleanup(func() { net.Close() })
		ws := make([]*worker[M], s.NumWorkers)
		for id := range ws {
			ws[id] = testWorker(t, &s, net, id)
		}
		return ws
	}
	restored, adopted := fresh(), fresh()
	for id, w := range writers {
		before := w.in.bytes
		w.superstep = at
		if _, err := w.putState(observe.KindCheckpoint, checkpointContainer, checkpointBlob(at, id), at); err != nil {
			t.Fatal(err)
		}
		blob, err := s.CheckpointStore.Get(checkpointContainer, checkpointBlob(at, id))
		if err != nil {
			t.Fatal(err)
		}
		r := restored[id]
		for dest, ob := range r.outboxes {
			if ob != nil {
				go r.senderLoop(dest, ob)
			}
		}
		err = r.restore(s.CheckpointStore, at, 1)
		r.closeOutboxes()
		if err != nil {
			t.Fatalf("worker %d: restore: %v", id, err)
		}
		if err := adoptState(adopted, blob, owned[id]); err != nil {
			t.Fatalf("worker %d: adopt: %v", id, err)
		}
		a := adopted[id]
		a.installState()
		for name, got := range map[string]*worker[M]{"restored": r, "adopted": a} {
			if !reflect.DeepEqual(got.halted, w.halted) {
				t.Errorf("worker %d: %s halted flags differ from the writer's", id, name)
			}
			if !reflect.DeepEqual(pendingInbox(got), pendingInbox(w)) {
				t.Errorf("worker %d: %s inboxes differ from the writer's", id, name)
			}
			if got.in.bytes != before {
				t.Errorf("worker %d: %s inbox bytes %d, writer had %d", id, name, got.in.bytes, before)
			}
		}
		if !reflect.DeepEqual(r.programAny(), a.programAny()) {
			t.Errorf("worker %d: restored and adopted program state differ", id)
		}
		if ws, rs, as := w.programStateBytes(), r.programStateBytes(), a.programStateBytes(); rs != ws || as != ws {
			t.Errorf("worker %d: state bytes restored %d, adopted %d, writer %d", id, rs, as, ws)
		}
		for name, got := range map[string][]byte{"restored": r.appendState(nil), "adopted": a.appendState(nil)} {
			if !reflect.DeepEqual(got, blob) {
				t.Errorf("worker %d: %s re-encodes to a different blob", id, name)
			}
		}
	}
}

// pendingInbox returns the messages pending for the next superstep per
// local vertex, with no-message vertices as nil.
func pendingInbox[M any](w *worker[M]) [][]M {
	out := make([][]M, len(w.owned))
	for li := range out {
		out[li] = w.in.msgs(int32(li))
	}
	return out
}
