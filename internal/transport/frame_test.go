package transport_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// TestReadBatchBoundsClaimedLength: a header claiming a 1 GiB payload that
// never arrives costs the reader less than 1 MiB and ends in an error.
func TestReadBatchBoundsClaimedLength(t *testing.T) {
	hdr := make([]byte, transport.BatchHeaderSize)
	binary.LittleEndian.PutUint32(hdr[24:], 1<<30)
	frame := append(hdr, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := transport.ReadBatch(bytes.NewReader(frame), make([]byte, transport.BatchHeaderSize))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a truncated 1 GiB payload was accepted (%d bytes)", len(b.Payload))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a 1 GiB claim allocated %d bytes", got)
	}
}

// TestReadBatchGrowsAcrossSteps: a payload several read steps long arrives
// whole, through a reader that returns a few bytes at a time.
func TestReadBatchGrowsAcrossSteps(t *testing.T) {
	payload := make([]byte, 3<<20+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := transport.WriteBatch(&buf, &transport.Batch{From: 1, Count: 9, Epoch: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	b, err := transport.ReadBatch(&trickle{r: &buf}, make([]byte, transport.BatchHeaderSize))
	if err != nil {
		t.Fatal(err)
	}
	if b.From != 1 || b.Count != 9 || b.Epoch != 2 || !bytes.Equal(b.Payload, payload) {
		t.Fatalf("read back from %d count %d epoch %d, %d payload bytes (equal %v)", b.From, b.Count, b.Epoch, len(b.Payload), bytes.Equal(b.Payload, payload))
	}
}

// trickle returns at most 4093 bytes per Read.
type trickle struct{ r *bytes.Buffer }

func (t *trickle) Read(p []byte) (int, error) { return t.r.Read(p[:min(len(p), 4093)]) }

// framingNetwork frames a copy of every batch its endpoints send, as the
// TCP transport writes it to the socket.
type framingNetwork struct {
	transport.Network
	mu     sync.Mutex
	frames [][]byte
}

func (n *framingNetwork) Endpoint(id int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(id)
	return &framingEndpoint{Endpoint: ep, net: n}, err
}

type framingEndpoint struct {
	transport.Endpoint
	net *framingNetwork
}

func (e *framingEndpoint) Send(b *transport.Batch) error {
	var buf bytes.Buffer
	if err := transport.WriteBatch(&buf, b); err != nil {
		return err
	}
	e.net.mu.Lock()
	e.net.frames = append(e.net.frames, buf.Bytes())
	e.net.mu.Unlock()
	return e.Endpoint.Send(b)
}

// FuzzTCPFrame feeds arbitrary bytes to the TCP frame reader. Any input must
// end in an error or in one batch whose frame, written back, is exactly the
// bytes it consumed. The seeds are frames of a small BC job over real
// sockets: data batches and sentinels.
func FuzzTCPFrame(f *testing.F) {
	tcp, err := transport.NewTCPNetwork(2)
	if err != nil {
		f.Fatal(err)
	}
	net := &framingNetwork{Network: tcp}
	g := graph.ErdosRenyi(30, 90, 3)
	spec := algorithms.BC(g, 2, core.NewAllAtOnce(algorithms.Sources(g, 3)))
	spec.Network = net
	if _, err := core.Run(spec); err != nil {
		f.Fatal(err)
	}
	net.Close()
	if len(net.frames) == 0 {
		f.Fatal("the seed run sent no frames")
	}
	for _, frame := range net.frames {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := transport.ReadBatch(bytes.NewReader(data), make([]byte, transport.BatchHeaderSize))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := transport.WriteBatch(&buf, b); err != nil {
			t.Fatal(err)
		}
		if n := buf.Len(); n > len(data) || !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatalf("frame %x re-encodes to %x", data[:min(n, len(data))], buf.Bytes())
		}
		transport.PutPayload(b.Payload)
		b.Payload = nil
		transport.PutBatch(b)
	})
}
