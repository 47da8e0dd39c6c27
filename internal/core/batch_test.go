package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"

	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// appendMsgHeader appends one plain wire record header, as the send path
// writes it.
func appendMsgHeader(buf []byte, to graph.VertexID, size int) []byte {
	var hdr [msgWireOverhead]byte
	putMsgHeader(hdr[:], uint32(to), uint32(size))
	return append(buf, hdr[:]...)
}

// record encodes one plain wire message claiming size bytes, followed by
// body.
func record(to graph.VertexID, size int, body ...byte) []byte {
	return append(appendMsgHeader(nil, to, size), body...)
}

// broadcastRecord encodes one broadcast record from vertex from claiming
// size bytes, followed by body.
func broadcastRecord(from graph.VertexID, size int, body ...byte) []byte {
	return append(appendMsgHeader(nil, from, size|broadcastFlag), body...)
}

// multicastRecord encodes one multicast record claiming k vertices and size
// bytes, followed by body and then the local indices lis.
func multicastRecord(k uint32, size int, body []byte, lis ...uint32) []byte {
	rec := append(appendMsgHeader(nil, graph.VertexID(k), size|multicastFlag), body...)
	for _, li := range lis {
		rec = binary.LittleEndian.AppendUint32(rec, li)
	}
	return rec
}

// payload is a data batch payload: the logical size, then the records.
func payload(logical int, records ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(logical))
	for _, r := range records {
		out = append(out, r...)
	}
	return out
}

// TestHostileBatchFailsCheckIn: malformed data batches reaching worker 0 of
// a two-worker Uint32 job on an 8-ring fail that superstep's check-in with
// an error naming the sender, instead of panicking the receive goroutine.
// Worker 0 owns 0, 2 and 4, so vertex 1's mirror span on it is {0, 2} and
// vertex 6, whose neighbours 5 and 7 are both worker 1's, has none. A valid
// batch from worker 1 arrives first; the hostile one must leave the run's
// entries, message count and bytes as that batch left them.
func TestHostileBatchFailsCheckIn(t *testing.T) {
	const (
		one   = msgWireOverhead + 4 + transport.BatchHeaderSize // one 4-byte message's batch
		bcast = 2*(msgWireOverhead+4) + transport.BatchHeaderSize
	)
	for _, tc := range []struct {
		name    string
		from    int32
		count   int32
		payload []byte
		want    string
	}{
		{"size past the payload", 1, 1, payload(one, record(2, 100, 1, 2, 3, 4)), "from worker 1 for superstep 0: message claims 100 bytes, 4 remain"},
		{"vertex outside the graph", 1, 1, payload(one, record(1000, 4, 0, 0, 0, 0)), "from worker 1 for superstep 0: message for vertex 1000"},
		{"short message", 1, 1, payload(one, record(2, 1, 7)), "from worker 1 for superstep 0: decode panicked"},
		{"vertex of another worker", 1, 1, payload(one, record(3, 4, 0, 0, 0, 0)), "message for vertex 3, which worker 0 does not own"},
		{"long message", 1, 1, payload(one, record(2, 5, 1, 0, 0, 0, 0)), "message decoded 4 of 5 bytes"},
		{"trailing bytes", 1, 1, append(payload(one, record(2, 4, 1, 0, 0, 0)), 9, 9), "2 trailing bytes"},
		{"count mismatch", 1, 2, payload(one, record(2, 4, 1, 0, 0, 0)), "1 messages, header says 2"},
		{"unknown sender", 7, 1, payload(one, record(2, 4, 1, 0, 0, 0)), "from unknown worker 7"},
		{"sender is the receiver", 0, 1, payload(one, record(2, 4, 1, 0, 0, 0)), "from unknown worker 0"},
		{"no logical size", 1, 0, []byte{1, 2}, "2-byte payload has no logical size"},
		{"logical size below the records", 1, 1, payload(one-transport.BatchHeaderSize-1, record(2, 4, 1, 0, 0, 0)), "logical size 11 is not 12 bytes of records"},
		{"logical size a batch header below the records", 1, 3, payload(one+bcast-3*transport.BatchHeaderSize, record(2, 4, 1, 0, 0, 0), broadcastRecord(1, 4, 1, 0, 0, 0)), "logical size 8 is not 36 bytes of records"},
		{"logical size off the header grid", 1, 1, payload(one+1, record(2, 4, 1, 0, 0, 0)), "logical size 41 is not 12 bytes of records plus at most 1 batch headers"},
		{"more batch headers than messages", 1, 1, payload(one+transport.BatchHeaderSize, record(2, 4, 1, 0, 0, 0)), "logical size 68 is not"},
		{"broadcast logical size counts the record once", 1, 2, payload(one, broadcastRecord(1, 4, 1, 0, 0, 0)), "logical size 40 is not 24 bytes of records"},
		{"broadcast from a vertex of the receiver", 1, 1, payload(one, broadcastRecord(2, 4, 1, 0, 0, 0)), "broadcast from vertex 2, which worker 1 does not own"},
		{"broadcast from outside the graph", 1, 1, payload(one, broadcastRecord(1000, 4, 1, 0, 0, 0)), "broadcast from vertex 1000, which worker 1 does not own"},
		{"broadcast from a vertex with no span here", 1, 1, payload(one, broadcastRecord(6, 4, 1, 0, 0, 0)), "broadcast from vertex 6, which has no neighbour on worker 0"},
		{"broadcast size past the payload", 1, 2, payload(bcast, broadcastRecord(1, 100, 1, 2, 3, 4)), "message claims 100 bytes, 4 remain"},
		{"broadcast size with the flag alone", 1, 2, payload(bcast, broadcastRecord(1, 0x7fffffff, 1, 2, 3, 4)), "record flagged both broadcast and multicast"},
		{"long broadcast", 1, 2, payload(bcast, broadcastRecord(1, 5, 1, 0, 0, 0, 0)), "message decoded 4 of 5 bytes"},
		{"short broadcast", 1, 2, payload(bcast, broadcastRecord(1, 1, 7)), "decode panicked"},
		{"broadcast count mismatch", 1, 1, payload(bcast, broadcastRecord(1, 4, 1, 0, 0, 0)), "2 messages, header says 1"},
		{"both flags", 1, 1, payload(one, record(2, 4|broadcastFlag|multicastFlag, 1, 0, 0, 0)), "record flagged both broadcast and multicast"},
		{"multicast of no vertices", 1, 1, payload(one, multicastRecord(0, 4, []byte{1, 0, 0, 0})), "multicast record lists no vertices"},
		{"multicast list past the payload", 1, 3, payload(one, multicastRecord(3, 4, []byte{1, 0, 0, 0}, 0, 1)), "multicast record lists 3 vertices, 8 bytes remain"},
		{"multicast list of a huge count", 1, 1, payload(one, multicastRecord(0xffffffff, 4, []byte{1, 0, 0, 0}, 0)), "multicast record lists 4294967295 vertices, 4 bytes remain"},
		{"multicast of an index past the partition", 1, 2, payload(bcast, multicastRecord(2, 4, []byte{1, 0, 0, 0}, 0, 3)), "multicast record lists local index 3, worker 0 owns 3 vertices"},
		{"multicast size past the payload", 1, 2, payload(bcast, multicastRecord(2, 100, []byte{1, 0, 0, 0}, 0, 1)), "message claims 100 bytes, 12 remain"},
		{"long multicast", 1, 2, payload(bcast, multicastRecord(2, 5, []byte{1, 0, 0, 0, 0}, 0, 1)), "message decoded 4 of 5 bytes"},
		{"multicast logical size counts the record once", 1, 2, payload(one, multicastRecord(2, 4, []byte{1, 0, 0, 0}, 0, 1)), "logical size 40 is not 24 bytes of records"},
		{"multicast count mismatch", 1, 2, payload(bcast+one-transport.BatchHeaderSize, multicastRecord(3, 4, []byte{1, 0, 0, 0}, 0, 1, 2)), "3 messages, header says 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := bfsSpec(graph.Ring(8), 2, 0)
			spec.Assignment = partition.Assignment{0, 1, 0, 1, 0, 1, 1, 1}
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
			epoch := w.epoch.Load()
			// A valid batch first: a message for 2, then vertex 1's broadcast.
			w.receive(&transport.Batch{From: 1, To: 0, Count: 3, Seq: 1, Epoch: epoch,
				Payload: payload(one+bcast-transport.BatchHeaderSize, record(2, 4, 5, 0, 0, 0), broadcastRecord(1, 4, 6, 0, 0, 0))})
			r := &w.recv[1]
			before := r.pos()
			if before.n != 2 || before.msgs != 3 {
				t.Fatalf("valid batch: run at %+v, want 2 entries and 3 messages", before)
			}
			seq := int32(1) // the first of its sender's stream, unless worker 1 sent it
			if tc.from == 1 {
				seq = 2
			}
			w.receive(&transport.Batch{From: tc.from, To: 0, Count: tc.count, Seq: seq, Epoch: epoch, Payload: tc.payload})
			w.receive(&transport.Batch{From: 1, To: 0, Count: -1, Epoch: epoch}) // worker 1's sentinel
			w.runSuperstep(&stepToken{Superstep: 0})
			lease := w.barrierQ.Get(time.Second)
			if lease == nil {
				t.Fatal("no check-in")
			}
			msg, err := decodeCheckIn(lease.Body, 2)
			if err != nil || !strings.Contains(msg.Err, tc.want) {
				t.Errorf("check-in error %q (decode err %v), want one containing %q", msg.Err, err, tc.want)
			}
			if got := r.pos(); got != before {
				t.Errorf("the rejected batch moved worker 1's run from %+v to %+v", before, got)
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
		e.net.batches = append(e.net.batches, &transport.Batch{Count: b.Count, Epoch: b.Epoch, Payload: bytes.Clone(b.Payload)})
		e.net.mu.Unlock()
	}
	return e.Endpoint.Send(b)
}
