// Package transport moves bulk data-message batches between BSP workers.
//
// The paper's data plane uses Azure TCP endpoints between every pair of
// workers, with serialized messages buffered per destination and sent as
// "bulk" transfers by background threads; sockets are re-established each
// superstep to avoid timeouts on long jobs. This package provides that TCP
// transport (over real sockets) plus an in-process channel transport with
// identical semantics for fast deterministic experiments.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Batch is a bulk transfer of serialized vertex messages from one worker to
// another within one superstep. Payload encoding is owned by the engine; the
// transport treats it as opaque bytes.
type Batch struct {
	From      int32 // sending worker
	To        int32 // receiving worker
	Superstep int32
	Count     int32 // number of vertex messages in Payload
	// Epoch is the sender's recovery epoch (incremented on every checkpoint
	// rollback). Receivers drop batches from stale epochs so in-flight data
	// from an aborted execution cannot pollute a replayed superstep.
	Epoch int32
	// Seq is a per-(sender,receiver) monotonic sequence number. Receivers
	// drop batches whose Seq they have already seen, making retried sends
	// (after a transient fault) safe against duplicate delivery.
	Seq     int32
	Payload []byte
}

// WireSize returns the encoded size of the batch in bytes: what it costs on
// the wire.
func (b *Batch) WireSize() int64 {
	return int64(BatchHeaderSize + len(b.Payload))
}

// BatchHeaderSize is a batch's framing on the wire: from, to, superstep,
// count, epoch, seq and payload length.
const BatchHeaderSize = 4 * 7

// ErrClosed is returned by endpoints after Close.
var ErrClosed = fmt.Errorf("transport: endpoint closed")

// FaultFunc inspects an outgoing batch and may return a non-nil error to
// inject a data-plane fault: the batch is NOT delivered and Send returns the
// error. Injected errors should be transient (see transientSendError) so the
// engine's retry policy resends the batch.
type FaultFunc func(from, to, superstep int) error

// FaultInjectable is implemented by networks supporting send-fault injection.
type FaultInjectable interface {
	// SetSendFault installs f on every endpoint (nil removes it). It must be
	// called before traffic starts.
	SetSendFault(f FaultFunc)
}

// Observer receives data-plane telemetry: one BatchSent per successfully
// delivered batch and one Reconnect per mid-superstep redial forced by a
// send failure (the routine per-superstep socket re-establishment after
// ResetPeers is not a Reconnect). Implementations must be safe for
// concurrent use; the engine adapts this onto its tracer and metrics.
type Observer interface {
	BatchSent(from, to, superstep, msgs int, wireBytes int64)
	Reconnect(from, to int)
}

// Observable is implemented by networks supporting telemetry observation.
type Observable interface {
	// SetObserver installs o on every endpoint (nil removes it). It must be
	// called before traffic starts.
	SetObserver(o Observer)
}

// transientSendError classifies socket-level send failures (dial/write to a
// live peer) as retryable without importing the cloud package: it satisfies
// the `Transient() bool` interface that cloud.IsTransient recognizes.
type transientSendError struct{ err error }

func (e *transientSendError) Error() string   { return e.err.Error() }
func (e *transientSendError) Unwrap() error   { return e.err }
func (e *transientSendError) Transient() bool { return true }

// Endpoint is one worker's connection to the data plane.
type Endpoint interface {
	// Send delivers a batch to batch.To. It may block for flow control.
	Send(b *Batch) error
	// Recv returns the next incoming batch, blocking until one arrives.
	// Returns io.EOF after Close.
	Recv() (*Batch, error)
	// ResetPeers tears down cached peer connections; the next Send
	// reconnects. The engine calls this at superstep boundaries, mirroring
	// the paper's per-superstep socket re-establishment.
	ResetPeers() error
	// Close shuts the endpoint down and unblocks Recv.
	Close() error
}

// Network is a data plane connecting a fixed set of workers.
type Network interface {
	NumWorkers() int
	// Endpoint returns worker w's endpoint. Each worker must use only its
	// own endpoint.
	Endpoint(w int) (Endpoint, error)
	// Close shuts down all endpoints.
	Close() error
}

// Payload buffer recycling. Batch payloads are the data plane's dominant
// allocation: every outgoing bulk transfer serializes into one and every
// incoming TCP batch deserializes from one, at up to FlushBytes apiece,
// thousands of times per job. The pool turns that churn into reuse. The
// ownership contract: GetPayload hands the caller an exclusive buffer;
// whoever consumes the batch last (the receiver after decoding, or a sender
// whose endpoint copies payloads to the wire — see SendCopier) returns it
// with PutPayload. Returning a buffer that is still referenced elsewhere is
// a use-after-free-style bug, so only clear owners may recycle.

// maxPooledPayload bounds the buffers the pool retains; anything larger
// (oversized one-off transfers) is left to the garbage collector so a single
// huge batch cannot pin memory for the rest of the process.
const maxPooledPayload = 1 << 20

var payloadPool sync.Pool // holds *[]byte with len 0

// GetPayload returns a payload buffer of length n, reusing pooled capacity
// when available.
func GetPayload(n int) []byte {
	if v := payloadPool.Get(); v != nil {
		p := *(v.(*[]byte))
		invariantPayloadGet(p[:cap(p)])
		if cap(p) >= n {
			return p[:n]
		}
	}
	c := n
	if c < 1024 {
		c = 1024
	}
	return make([]byte, n, c)
}

// PutPayload recycles a buffer obtained from GetPayload (or any buffer the
// caller exclusively owns). The buffer must not be used after the call.
func PutPayload(p []byte) {
	if cap(p) == 0 || cap(p) > maxPooledPayload {
		return
	}
	invariantPayloadPut(p[:cap(p)])
	p = p[:0]
	payloadPool.Put(&p)
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// GetBatch returns a zeroed Batch from the pool. Pair with PutBatch at the
// point the batch is fully consumed (same ownership rules as payloads).
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	invariantBatchGet(b)
	return b
}

// PutBatch recycles a batch. The payload is NOT recycled (it may have been
// handed off separately); callers recycle it with PutPayload when they own it.
func PutBatch(b *Batch) {
	invariantBatchPut(b) // double-put check must precede the zeroing below
	*b = Batch{}
	invariantBatchStamp(b)
	batchPool.Put(b)
}

// SendCopier is implemented by endpoints whose Send copies b.Payload to the
// wire before returning (TCP): after a successful Send the caller still owns
// the buffer and may recycle it with PutPayload. Endpoints without this
// capability (the in-process channel transport) hand the payload off to the
// receiver by reference, so only the receiver may recycle it.
type SendCopier interface {
	SendCopiesPayload() bool
}

// coalesceLimit is the largest payload writeBatch copies into its frame
// buffer to ship header+payload as one Write (one syscall). Larger payloads
// amortize a second write fine and would bloat the frame-buffer pool.
const coalesceLimit = 256 << 10

var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

func putHeader(hdr []byte, b *Batch) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(b.From))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(b.To))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(b.Superstep))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(b.Count))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(b.Epoch))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(b.Seq))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(b.Payload)))
}

// writeBatch frames and writes a batch to w. Header and payload go out as a
// single Write (one syscall on a socket) via a pooled frame buffer; only
// payloads past coalesceLimit fall back to a second Write.
func writeBatch(w io.Writer, b *Batch) error {
	bufp := frameBufPool.Get().(*[]byte)
	buf := (*bufp)[:BatchHeaderSize]
	putHeader(buf, b)
	var err error
	if len(b.Payload) <= coalesceLimit {
		buf = append(buf, b.Payload...)
		_, err = w.Write(buf)
	} else {
		if _, err = w.Write(buf); err == nil {
			_, err = w.Write(b.Payload)
		}
	}
	*bufp = buf[:0]
	frameBufPool.Put(bufp)
	return err
}

// payloadStep is the most readBatch allocates for a payload before the
// bytes to fill it have arrived. A larger payload grows by doubling as it is
// read, so a header's length field alone costs at most this much, whatever
// it claims, while a batch of up to FlushBytes plus one record still reads
// into one buffer.
const payloadStep = 256 << 10

// readBatch reads one framed batch from r into hdr (a caller-owned scratch
// buffer of at least BatchHeaderSize bytes, reused across calls). The
// returned batch's payload comes from the payload pool; the consumer must
// PutPayload it once decoded.
func readBatch(r io.Reader, hdr []byte) (*Batch, error) {
	hdr = hdr[:BatchHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[24:])
	if n > 1<<30 {
		return nil, fmt.Errorf("transport: absurd payload length %d", n)
	}
	var payload []byte
	if n > 0 {
		var err error
		if payload, err = readPayload(r, int(n)); err != nil {
			return nil, err
		}
	}
	b := GetBatch()
	b.From = int32(binary.LittleEndian.Uint32(hdr[0:]))
	b.To = int32(binary.LittleEndian.Uint32(hdr[4:]))
	b.Superstep = int32(binary.LittleEndian.Uint32(hdr[8:]))
	b.Count = int32(binary.LittleEndian.Uint32(hdr[12:]))
	b.Epoch = int32(binary.LittleEndian.Uint32(hdr[16:]))
	b.Seq = int32(binary.LittleEndian.Uint32(hdr[20:]))
	b.Payload = payload
	return b, nil
}

// readPayload reads an n-byte payload into a pooled buffer, payloadStep
// bytes first and then doubling what it has read, never more than n.
func readPayload(r io.Reader, n int) ([]byte, error) {
	p, got := GetPayload(min(n, payloadStep)), 0
	for {
		if _, err := io.ReadFull(r, p[got:]); err != nil {
			PutPayload(p)
			return nil, err
		}
		if got = len(p); got == n {
			return p, nil
		}
		next := GetPayload(min(n, 2*got))
		copy(next, p)
		PutPayload(p)
		p = next
	}
}
