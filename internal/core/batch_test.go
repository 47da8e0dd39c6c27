package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// record encodes one wire message claiming size bytes, followed by body.
func record(to graph.VertexID, size int, body ...byte) []byte {
	return append(appendMsgHeader(nil, to, size), body...)
}

// TestHostileBatchFailsCheckIn: malformed data batches reaching worker 0 of
// a two-worker Uint32 job on an 8-ring (it owns the even vertices) fail that
// superstep's check-in with an error naming the sender, instead of
// panicking the receive goroutine; the sender's run is left empty.
func TestHostileBatchFailsCheckIn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		from    int32
		count   int32
		payload []byte
		want    string
	}{
		{"size past the payload", 1, 1, record(2, 100, 1, 2, 3, 4), "from worker 1 for superstep 0: message claims 100 bytes, 4 remain"},
		{"vertex outside the graph", 1, 1, record(1000, 4, 0, 0, 0, 0), "from worker 1 for superstep 0: message for vertex 1000"},
		{"short message", 1, 1, record(2, 1, 7), "from worker 1 for superstep 0: decode panicked"},
		{"vertex of another worker", 1, 1, record(3, 4, 0, 0, 0, 0), "message for vertex 3, which worker 0 does not own"},
		{"long message", 1, 1, record(2, 5, 1, 0, 0, 0, 0), "message decoded 4 of 5 bytes"},
		{"trailing bytes", 1, 1, append(record(2, 4, 1, 0, 0, 0), 9, 9), "2 trailing bytes"},
		{"count mismatch", 1, 2, record(2, 4, 1, 0, 0, 0), "1 messages, header says 2"},
		{"unknown sender", 7, 1, record(2, 4, 1, 0, 0, 0), "from unknown worker 7"},
		{"sender is the receiver", 0, 1, record(2, 4, 1, 0, 0, 0), "from unknown worker 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := bfsSpec(graph.Ring(8), 2, 0)
			s, err := spec.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewChannelNetwork(2, 64)
			defer net.Close()
			w := testWorker(t, &s, net, 0)
			for dest, ob := range w.outboxes {
				if ob != nil {
					go w.senderLoop(dest, ob)
				}
			}
			defer w.closeOutboxes()
			w.receive(&transport.Batch{From: tc.from, To: 0, Count: tc.count, Seq: 1, Payload: tc.payload})
			w.receive(&transport.Batch{From: 1, To: 0, Count: -1}) // worker 1's sentinel
			w.runSuperstep(&stepToken{Superstep: 0})
			lease := w.barrierQ.Get(time.Second)
			if lease == nil {
				t.Fatal("no check-in")
			}
			msg, err := decodeCheckIn(lease.Body, 2)
			if err != nil || !strings.Contains(msg.Err, tc.want) {
				t.Errorf("check-in error %q (decode err %v), want one containing %q", msg.Err, err, tc.want)
			}
			for from := range w.recv {
				if n := w.recv[from].n; n != 0 {
					t.Errorf("sender %d's run holds %d messages from a rejected batch", from, n)
				}
			}
		})
	}
}

// recordingNetwork keeps a copy of every data batch sent to worker 0.
type recordingNetwork struct {
	transport.Network
	mu      sync.Mutex
	batches []*transport.Batch
}

func (n *recordingNetwork) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(id)
	return &recordingEndpoint{Endpoint: ep, net: n}, err
}

type recordingEndpoint struct {
	transport.Endpoint
	net *recordingNetwork
}

func (e *recordingEndpoint) Send(b *transport.Batch) error {
	if b.To == 0 && b.Count > 0 {
		e.net.mu.Lock()
		e.net.batches = append(e.net.batches, &transport.Batch{Count: b.Count, Payload: bytes.Clone(b.Payload)})
		e.net.mu.Unlock()
	}
	return e.Endpoint.Send(b)
}

// FuzzBatchPayload feeds arbitrary (count, payload) pairs to the receive
// path's decoder as a batch from worker 1 to worker 0 of a two-worker BFS
// job. Any input must end in an error, leaving the sender's run empty, or in
// exactly count messages that re-encode to the payload byte for byte. The
// seeds are the batches worker 0 received in a real run.
func FuzzBatchPayload(f *testing.F) {
	g := graph.ErdosRenyi(40, 160, 5)
	rec := &recordingNetwork{Network: transport.NewChannelNetwork(2, 64)}
	seed := bfsSpec(g, 2, 0)
	seed.Network = rec
	if _, err := Run(seed); err != nil {
		f.Fatal(err)
	}
	rec.Close()
	if len(rec.batches) == 0 {
		f.Fatal("the seed run sent worker 0 no data")
	}
	for _, b := range rec.batches {
		f.Add(b.Count, b.Payload)
	}

	spec := bfsSpec(g, 2, 0)
	s, err := spec.withDefaults()
	if err != nil {
		f.Fatal(err)
	}
	net := transport.NewChannelNetwork(2, 64)
	f.Cleanup(func() { net.Close() })
	w := testWorker(f, &s, net, 0)
	f.Fuzz(func(t *testing.T, count int32, payload []byte) {
		r := &w.recv[1]
		r.reset()
		err := w.decodeBatch(&transport.Batch{From: 1, To: 0, Count: count, Payload: payload})
		if err != nil {
			if r.n != 0 {
				t.Fatalf("rejected batch (%v) left %d messages in the run", err, r.n)
			}
			return
		}
		if r.n != int(count) {
			t.Fatalf("accepted %d messages, header says %d", r.n, count)
		}
		var enc []byte
		for c := range r.segs() {
			lis, msgs := r.seg(c)
			for i, li := range lis {
				enc = appendMsgHeader(enc, w.owned[li], w.codec.Size(msgs[i]))
				enc = w.codec.Append(enc, msgs[i])
			}
		}
		if !bytes.Equal(enc, payload) {
			t.Fatalf("accepted payload re-encodes to %x, want %x", enc, payload)
		}
	})
}
