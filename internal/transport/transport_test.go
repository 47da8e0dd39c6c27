package transport

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBatchWireRoundTrip(t *testing.T) {
	b := &Batch{From: 1, To: 2, Superstep: 7, Count: 3, Payload: []byte{9, 8, 7}}
	var buf bytes.Buffer
	if err := writeBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != b.WireSize() {
		t.Errorf("wire size %d != %d", buf.Len(), b.WireSize())
	}
	got, err := readBatch(&buf, make([]byte, BatchHeaderSize))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 1 || got.To != 2 || got.Superstep != 7 || got.Count != 3 {
		t.Errorf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, b.Payload) {
		t.Errorf("payload mismatch")
	}
}

func TestBatchWireProperty(t *testing.T) {
	f := func(from, to, step, count int32, payload []byte) bool {
		b := &Batch{From: from & 0xffff, To: to & 0xffff, Superstep: step & 0xffff,
			Count: count & 0xffff, Payload: payload}
		var buf bytes.Buffer
		if err := writeBatch(&buf, b); err != nil {
			return false
		}
		got, err := readBatch(&buf, make([]byte, BatchHeaderSize))
		if err != nil {
			return false
		}
		return got.From == b.From && got.To == b.To && got.Superstep == b.Superstep &&
			got.Count == b.Count && bytes.Equal(got.Payload, b.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadBatchTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeBatch(&buf, &Batch{Payload: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-2]
	if _, err := readBatch(bytes.NewReader(data), make([]byte, BatchHeaderSize)); err == nil {
		t.Error("expected error on truncated batch")
	}
}

// exerciseNetwork sends batches between all pairs and checks delivery.
func exerciseNetwork(t *testing.T, net Network) {
	t.Helper()
	n := net.NumWorkers()
	var wg sync.WaitGroup
	type recv struct {
		worker int
		batch  *Batch
	}
	received := make(chan recv, n*n)
	// Receivers.
	for w := 0; w < n; w++ {
		ep, err := net.Endpoint(w)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, ep Endpoint) {
			defer wg.Done()
			for i := 0; i < n; i++ { // expect one batch from every worker incl. self? no: n-1 remotes + self-send allowed
				b, err := ep.Recv()
				if err != nil {
					t.Errorf("worker %d recv: %v", w, err)
					return
				}
				received <- recv{w, b}
			}
		}(w, ep)
	}
	// Senders: every worker sends one batch to every worker (incl. itself).
	for w := 0; w < n; w++ {
		ep, _ := net.Endpoint(w)
		for to := 0; to < n; to++ {
			b := &Batch{From: int32(w), To: int32(to), Superstep: 1, Count: 1,
				Payload: []byte(fmt.Sprintf("%d->%d", w, to))}
			if err := ep.Send(b); err != nil {
				t.Fatalf("send %d->%d: %v", w, to, err)
			}
		}
	}
	wg.Wait()
	close(received)
	seen := make(map[string]bool)
	for r := range received {
		if int32(r.worker) != r.batch.To {
			t.Errorf("batch for %d delivered to %d", r.batch.To, r.worker)
		}
		key := string(r.batch.Payload)
		if seen[key] {
			t.Errorf("duplicate %q", key)
		}
		seen[key] = true
	}
	if len(seen) != n*n {
		t.Errorf("delivered %d batches, want %d", len(seen), n*n)
	}
}

func TestChannelNetworkDelivery(t *testing.T) {
	net := NewChannelNetwork(4, 64)
	defer net.Close()
	exerciseNetwork(t, net)
}

func TestTCPNetworkDelivery(t *testing.T) {
	net, err := NewTCPNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	exerciseNetwork(t, net)
}

func TestTCPResetPeersReconnects(t *testing.T) {
	net, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)
	for step := int32(0); step < 3; step++ {
		if err := ep0.Send(&Batch{From: 0, To: 1, Superstep: step, Payload: []byte{byte(step)}}); err != nil {
			t.Fatalf("step %d send: %v", step, err)
		}
		b, err := ep1.Recv()
		if err != nil {
			t.Fatalf("step %d recv: %v", step, err)
		}
		if b.Superstep != step {
			t.Errorf("got superstep %d, want %d", b.Superstep, step)
		}
		// Tear down cached connections as the engine does per superstep.
		if err := ep0.ResetPeers(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEndpointCloseUnblocksRecv(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (Network, error)
	}{
		{"channel", func() (Network, error) { return NewChannelNetwork(2, 4), nil }},
		{"tcp", func() (Network, error) { return NewTCPNetwork(2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			ep, _ := net.Endpoint(0)
			done := make(chan error, 1)
			go func() {
				_, err := ep.Recv()
				done <- err
			}()
			ep.Close()
			if err := <-done; err != io.EOF {
				t.Errorf("Recv after close = %v, want io.EOF", err)
			}
			net.Close()
		})
	}
}

func TestSendToUnknownWorker(t *testing.T) {
	net := NewChannelNetwork(2, 4)
	defer net.Close()
	ep, _ := net.Endpoint(0)
	if err := ep.Send(&Batch{To: 99}); err == nil {
		t.Error("expected error sending to unknown worker")
	}
	if _, err := net.Endpoint(5); err == nil {
		t.Error("expected error for out-of-range endpoint")
	}
}

func TestChannelCloseDrainsPending(t *testing.T) {
	net := NewChannelNetwork(2, 4)
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)
	if err := ep0.Send(&Batch{From: 0, To: 1, Payload: []byte("pending")}); err != nil {
		t.Fatal(err)
	}
	ep1.Close()
	// A batch already queued must still be retrievable after close.
	b, err := ep1.Recv()
	if err != nil || string(b.Payload) != "pending" {
		t.Errorf("drain after close: %v %v", b, err)
	}
	if _, err := ep1.Recv(); err != io.EOF {
		t.Errorf("second recv = %v, want EOF", err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	net, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)
	payload := make([]byte, 8<<20) // 8 MiB batch
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	done := make(chan error, 1)
	go func() {
		done <- ep0.Send(&Batch{From: 0, To: 1, Count: 1, Payload: payload})
	}()
	b, err := ep1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(b.Payload) != len(payload) {
		t.Fatalf("payload length %d, want %d", len(b.Payload), len(payload))
	}
	for i := 0; i < len(payload); i += 1 << 16 {
		if b.Payload[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
	PutBatch(b)
}

func TestTCPConcurrentSendersToOnePeer(t *testing.T) {
	net, err := NewTCPNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	const perSender = 50
	var wg sync.WaitGroup
	for from := 1; from < 4; from++ {
		ep, _ := net.Endpoint(from)
		wg.Add(1)
		go func(from int, ep Endpoint) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				b := &Batch{From: int32(from), To: 0, Superstep: int32(i), Count: 1,
					Payload: []byte{byte(from), byte(i)}}
				if err := ep.Send(b); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(from, ep)
	}
	ep0, _ := net.Endpoint(0)
	got := map[[2]byte]bool{}
	for i := 0; i < 3*perSender; i++ {
		b, err := ep0.Recv()
		if err != nil {
			t.Fatal(err)
		}
		key := [2]byte{b.Payload[0], b.Payload[1]}
		PutBatch(b)
		if got[key] {
			t.Fatalf("duplicate batch %v", key)
		}
		got[key] = true
	}
	wg.Wait()
	if len(got) != 3*perSender {
		t.Errorf("received %d unique batches, want %d", len(got), 3*perSender)
	}
}

func TestChannelNetworkEndpointReuse(t *testing.T) {
	net := NewChannelNetwork(2, 4)
	defer net.Close()
	a1, _ := net.Endpoint(1)
	a2, _ := net.Endpoint(1)
	if a1 != a2 {
		t.Error("Endpoint should be stable per worker")
	}
	if net.NumWorkers() != 2 {
		t.Errorf("NumWorkers = %d", net.NumWorkers())
	}
}

// countObserver tallies Observer callbacks for tests.
type countObserver struct {
	mu      sync.Mutex
	batches int
	msgs    int
	bytes   int64
	redials int
}

func (o *countObserver) BatchSent(from, to, superstep, msgs int, wireBytes int64) {
	o.mu.Lock()
	o.batches++
	o.msgs += msgs
	o.bytes += wireBytes
	o.mu.Unlock()
}

func (o *countObserver) Reconnect(from, to int) {
	o.mu.Lock()
	o.redials++
	o.mu.Unlock()
}

func TestChannelObserverCountsBatches(t *testing.T) {
	net := NewChannelNetwork(2, 4)
	defer net.Close()
	obs := &countObserver{}
	net.SetObserver(obs)
	ep, _ := net.Endpoint(0)
	b := &Batch{From: 0, To: 1, Superstep: 2, Count: 3, Payload: []byte("abc")}
	if err := ep.Send(b); err != nil {
		t.Fatal(err)
	}
	if obs.batches != 1 || obs.msgs != 3 || obs.bytes != b.WireSize() {
		t.Errorf("observer = %+v", obs)
	}
}

func TestChannelObserverSkipsFaultedSends(t *testing.T) {
	net := NewChannelNetwork(2, 4)
	defer net.Close()
	obs := &countObserver{}
	net.SetObserver(obs)
	net.SetSendFault(func(from, to, superstep int) error {
		return &transientSendError{fmt.Errorf("drop")}
	})
	ep, _ := net.Endpoint(0)
	if err := ep.Send(&Batch{From: 0, To: 1}); err == nil {
		t.Fatal("expected injected failure")
	}
	if obs.batches != 0 {
		t.Error("failed send must not count as a delivered batch")
	}
}

func TestTCPObserverCountsReconnect(t *testing.T) {
	net, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	obs := &countObserver{}
	net.SetObserver(obs)
	ep, _ := net.Endpoint(0)
	if err := ep.Send(&Batch{From: 0, To: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// Kill the cached socket from underneath the sender: the next Send must
	// redial mid-superstep, which is exactly one observed Reconnect.
	tep := ep.(*tcpEndpoint)
	tep.mu.Lock()
	for _, c := range tep.conns {
		c.Close()
	}
	tep.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for obs.redials == 0 && time.Now().Before(deadline) {
		if err := ep.Send(&Batch{From: 0, To: 1, Payload: []byte("y")}); err != nil {
			t.Fatal(err)
		}
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.redials == 0 {
		t.Error("mid-superstep redial was not observed")
	}
	if obs.batches < 2 {
		t.Errorf("batches = %d, want >= 2", obs.batches)
	}
}
