package core

import (
	"bytes"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// testWorker builds worker id of the spec's layout on net, without starting
// any of its goroutines.
func testWorker[M any](t testing.TB, s *JobSpec[M], net transport.Network, id int) *worker[M] {
	t.Helper()
	ep, err := net.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	return newWorker(s, id, specLayout(s), ep, nil)
}

// FuzzStateBlob feeds arbitrary bytes to the one state-blob parser through
// both of its entry points — a checkpoint restore and a migration adopt —
// for the test BFS program on a one-worker layout. Any input must end in
// an error or a success, never a panic, the two entry points must agree,
// and a success must re-encode to exactly the input. The seeds are the
// checkpoint blobs of a small real run.
func FuzzStateBlob(f *testing.F) {
	g := graph.ErdosRenyi(12, 30, 4)
	seed := ckptSpec(g, 1, 0)
	seed.CheckpointEvery = 1
	store := seed.CheckpointStore
	seen := map[string]bool{}
	var seeds [][]byte
	seed.FailureInjector = func(_, _ int) error {
		for _, name := range store.List(checkpointContainer) {
			if blob, err := store.Get(checkpointContainer, name); err == nil && !seen[string(blob)] {
				seen[string(blob)] = true
				seeds = append(seeds, blob)
			}
		}
		return nil
	}
	if _, err := Run(seed); err != nil {
		f.Fatal(err)
	}
	for _, blob := range seeds {
		f.Add(blob)
	}

	spec := ckptSpec(g, 1, 0)
	s, err := spec.withDefaults()
	if err != nil {
		f.Fatal(err)
	}
	owned := ownedLists(s.Assignment, 1)
	net := transport.NewChannelNetwork(1, 64)
	f.Cleanup(func() { net.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		restored := testWorker(t, &s, net, 0)
		if err := s.CheckpointStore.Put(checkpointContainer, checkpointBlob(3, 0), data); err != nil {
			t.Fatal(err)
		}
		restoreErr := restored.restore(s.CheckpointStore, 3, 1)
		adopted := testWorker(t, &s, net, 0)
		adoptErr := adoptState([]*worker[uint32]{adopted}, data, owned[0])
		if adoptErr == nil {
			adopted.installState()
		}
		if (restoreErr == nil) != (adoptErr == nil) {
			t.Fatalf("restore err %v, adopt err %v: the entry points disagree", restoreErr, adoptErr)
		}
		if restoreErr != nil {
			return
		}
		for name, w := range map[string]*worker[uint32]{"restore": restored, "adopt": adopted} {
			if got := w.appendState(nil); !bytes.Equal(got, data) {
				t.Fatalf("%s re-encodes to %x, want %x", name, got, data)
			}
		}
	})
}
