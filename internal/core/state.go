package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
)

// The state blob: what a worker carries across a superstep barrier — halted
// flags, the inbox pending for the next superstep, and the program's
// per-vertex state — in the one layout checkpoints (fault recovery) and
// migration blobs (live resizes, barrier preemption) share. Per owned
// vertex, in local-index order, after a u64 record count:
//
//	u8 halted | u64 msgCount | {u64 len | msg}... | StateCodec.AppendVertex bytes
//
// All integers are little-endian. Records carry no global ID and no state
// length: the reader knows the layout that wrote the blob (the writer's
// owned list), and ReadVertex's return value delimits the state.

// StateCodec is implemented by programs whose per-vertex state can be saved
// and reloaded at a superstep barrier: the capability checkpointing, fault
// recovery, live elastic resizes and barrier preemption all need. It has the
// shape of Codec. AppendVertex appends the state of local vertex li to dst;
// ReadVertex parses one record from the front of src into local vertex li
// (generally another index, in another worker, than the one that wrote it)
// and returns the number of bytes it consumed.
//
// ReadVertex must fully replace whatever state li held before, including
// its share of any StateBytes meter. src is untrusted: every count must be
// checked against len(src) before it sizes an allocation, and a short or
// malformed record is an error, never a panic. src aliases the blob and
// must not be retained.
type StateCodec interface {
	AppendVertex(dst []byte, li int32) []byte
	ReadVertex(li int32, src []byte) (n int, err error)
}

// appendState appends this worker's state blob to dst.
func (w *worker[M]) appendState(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(w.owned)))
	for li := range w.owned {
		var halted byte
		if w.halted[li] {
			halted = 1
		}
		dst = append(dst, halted)
		msgs := w.in.msgs(int32(li))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(msgs)))
		for _, m := range msgs {
			dst = w.appendMsg(dst, m)
		}
		dst = w.state.AppendVertex(dst, int32(li))
	}
	return dst
}

// appendMsg appends m behind its u64 length, encoding it in place.
func (w *worker[M]) appendMsg(dst []byte, m M) []byte {
	at := len(dst)
	dst = w.codec.Append(binary.LittleEndian.AppendUint64(dst, 0), m)
	binary.LittleEndian.PutUint64(dst[at:], uint64(len(dst)-at-8))
	return dst
}

// putState writes the state blob under container/name, retrying transient
// blob faults, and returns its size. One buffer per worker is reused across
// calls: BlobStore.Put copies.
func (w *worker[M]) putState(kind observe.Kind, container, name string, superstep int) (n int64, err error) {
	span := w.tracer.Start(kind, w.id, superstep)
	w.stateBuf = w.appendState(w.stateBuf[:0])
	err = w.retry.Do(func() error {
		return w.ckptStore.Put(container, name, w.stateBuf)
	})
	if err != nil {
		err = fmt.Errorf("storing %s blob %s: %w", container, name, err)
	} else {
		n = int64(len(w.stateBuf))
	}
	if span.Active() {
		if err != nil {
			span.End(observe.Str("err", err.Error()))
		} else {
			span.End(observe.Int("bytes", n), observe.Int("vertices", int64(len(w.owned))))
		}
	}
	return n, err
}

var errShortRecord = errors.New("corrupt state blob: record truncated")

// readState parses a state blob written by a worker that owned exactly
// `owned` and installs each record into the worker route picks for its
// vertex: the halted flag and the program state directly, the pending
// messages into the worker's stateRun, which the caller installs once every
// blob routed to the worker is read (a resize's records arrive in any local
// order). Program state is sliced out of data, never copied. The blob must
// hold exactly len(owned) records and nothing after them.
func readState[M any](data []byte, owned []graph.VertexID, route func(graph.VertexID) (*worker[M], error)) error {
	if len(data) < 8 {
		return errShortRecord
	}
	if count := binary.LittleEndian.Uint64(data); count != uint64(len(owned)) {
		return fmt.Errorf("corrupt state blob: %d records, want %d", count, len(owned))
	}
	data = data[8:]
	for _, gid := range owned {
		w, err := route(gid)
		if err != nil {
			return err
		}
		li, ok := w.local(gid)
		if !ok {
			return fmt.Errorf("vertex %d routed to worker %d, which does not own it", gid, w.id)
		}
		if len(data) < 9 {
			return errShortRecord
		}
		if data[0] > 1 {
			return fmt.Errorf("corrupt state blob: vertex %d halted flag %d", gid, data[0])
		}
		w.halted[li] = data[0] == 1
		msgs := binary.LittleEndian.Uint64(data[1:])
		data = data[9:]
		if msgs > uint64(len(data)/8) || (w.combiner != nil && msgs > 1) {
			return fmt.Errorf("corrupt state blob: vertex %d claims %d messages", gid, msgs)
		}
		for ; msgs > 0; msgs-- {
			if len(data) < 8 {
				return errShortRecord
			}
			size := binary.LittleEndian.Uint64(data)
			data = data[8:]
			if size > uint64(len(data)) {
				return fmt.Errorf("corrupt state blob: vertex %d message claims %d bytes, %d remain", gid, size, len(data))
			}
			m, err := w.decodeChecked(data[:size])
			if err != nil {
				return fmt.Errorf("vertex %d: %w", gid, err)
			}
			data = data[size:]
			w.stateRun.add(li, m, int64(size)+msgWireOverhead)
		}
		n, err := w.state.ReadVertex(li, data)
		if err == nil && (n < 0 || n > len(data)) {
			err = fmt.Errorf("consumed %d of %d bytes", n, len(data))
		}
		if err != nil {
			return fmt.Errorf("vertex %d state: %w", gid, err)
		}
		data = data[n:]
	}
	if len(data) != 0 {
		return fmt.Errorf("corrupt state blob: %d trailing bytes", len(data))
	}
	return nil
}

// decodeChecked decodes one blob message, converting malformed input — a
// short buffer that panics the codec, or trailing garbage — into an error
// instead of silently yielding a zero-valued message.
func (w *worker[M]) decodeChecked(enc []byte) (m M, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("corrupt checkpoint message: decode panicked: %v", r)
		}
	}()
	m, n := w.codec.Decode(enc)
	if n != len(enc) {
		return m, fmt.Errorf("corrupt checkpoint message: decoded %d of %d bytes", n, len(enc))
	}
	return m, nil
}
