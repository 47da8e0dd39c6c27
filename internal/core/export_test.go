package core

import (
	"bytes"
	"encoding/binary"
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

// RunBatchFuzz fuzzes the receive path's decoder with (count, payload)
// pairs as batches from worker 1 to worker 0 of a two-worker spec, seeded
// with the batches worker 0 received in a real run of it. Worker 1's run
// starts out holding the first seed. Any input must end in an error that
// leaves the run's entries, message count and bytes where they were, or in
// exactly count messages whose records — each plain entry as a record for
// its vertex, each span entry as a broadcast record from the vertex whose
// span it is, each list entry as a multicast record listing its local
// indices — behind the returned logical size re-encode to the payload byte
// for byte.
func RunBatchFuzz[M any](f *testing.F, spec JobSpec[M]) {
	spec.NumWorkers = 2
	rec := &recordingNetwork{Network: transport.NewChannelNetwork(2, 64)}
	seed := spec
	seed.NetworkFactory = func(int) (transport.Network, error) { return rec, nil }
	if _, err := Run(seed); err != nil {
		f.Fatal(err)
	}
	if len(rec.batches) == 0 {
		f.Fatal("the seed run sent worker 0 no data")
	}
	for _, b := range rec.batches {
		f.Add(b.Count, b.Payload)
	}

	s, err := spec.withDefaults()
	if err != nil {
		f.Fatal(err)
	}
	net := transport.NewChannelNetwork(2, 64)
	f.Cleanup(func() { net.Close() })
	w := testWorker(f, &s, net, 0)
	r := &w.recv[1]
	first := rec.batches[0]
	if _, err := w.decodeBatch(&transport.Batch{From: 1, Count: first.Count, Epoch: r.epoch, Payload: first.Payload}); err != nil {
		f.Fatalf("a real batch: %v", err)
	}
	base := r.pos()
	f.Fuzz(func(t *testing.T, count int32, payload []byte) {
		defer r.truncate(base)
		logical, err := w.decodeBatch(&transport.Batch{From: 1, To: 0, Count: count, Epoch: r.epoch, Payload: payload})
		if err != nil {
			if got := r.pos(); got != base {
				t.Fatalf("rejected batch (%v) moved the run from %+v to %+v", err, base, got)
			}
			return
		}
		if got := r.msgs - base.msgs; got != int(count) {
			t.Fatalf("accepted %d messages, header says %d", got, count)
		}
		enc := binary.LittleEndian.AppendUint32(nil, uint32(logical))
		at := base.lists
		for i := base.n; i < r.n; i++ {
			li, m := r.chunks[i/runChunkLen].lis[i%runChunkLen], r.chunks[i/runChunkLen].msgs[i%runChunkLen]
			v, size := uint32(0), uint32(w.codec.Size(m))
			var list []int32
			switch {
			case li >= 0:
				v = uint32(w.owned[li])
			case li == listEntry:
				list, at = r.list(at)
				v, size = uint32(len(list)), size|multicastFlag
			default:
				v, size = uint32(w.lay.owned[1][^li]), size|broadcastFlag
			}
			var hdr [msgWireOverhead]byte
			putMsgHeader(hdr[:], v, size)
			enc = w.codec.Append(append(enc, hdr[:]...), m)
			for _, x := range list {
				enc = binary.LittleEndian.AppendUint32(enc, uint32(x))
			}
		}
		if !bytes.Equal(enc, payload) {
			t.Fatalf("accepted payload re-encodes to %x, want %x", enc, payload)
		}
	})
}
