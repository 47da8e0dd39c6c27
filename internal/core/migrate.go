package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
)

// Vertex-state migration for live elastic resizes. A resize happens at a
// superstep barrier, where worker state is exactly what a checkpoint for
// the resume superstep would capture: halted flags, the inbox pending for
// the next superstep, and the program's per-vertex state. Unlike a
// checkpoint, though, the blob must be *repartitionable* — the new segment
// has a different worker count and a different assignment — so the format
// is vertex-granular: each record carries its global vertex ID and is
// self-delimiting, letting the new segment route records to their new
// owners one at a time.

// Migratable is implemented by vertex programs that support live elastic
// scaling. SnapshotVertex must capture ALL of one vertex's program state;
// RestoreVertex must invert it on a freshly constructed program instance in
// which the vertex generally has a different local index. Checkpointable is
// embedded because live scaling leans on the same rollback machinery when a
// fault hits mid-resize, and a post-resize segment re-checkpoints under the
// new layout immediately.
type Migratable interface {
	Checkpointable
	SnapshotVertex(local int32, w io.Writer) error
	RestoreVertex(local int32, r io.Reader) error
}

// migrationContainer is the blob-store container for migration blobs.
const migrationContainer = "migrations"

func migrationBlob(superstep, worker int) string {
	return fmt.Sprintf("m%08d-w%04d", superstep, worker)
}

// trafficBlob names a worker's per-vertex traffic sidecar for a resize
// window: the message-delivery counters incremental repartitioning weighs
// vertices by. Telemetry, not state — it is never adopted into worker
// inboxes and is excluded from MigratedBytes.
func trafficBlob(superstep, worker int) string {
	return fmt.Sprintf("t%08d-w%04d", superstep, worker)
}

// writeMigration serializes this worker's whole partition for the resume
// superstep and stores it (with transient-fault retries) in the blob store.
// Layout: u64 vertex count, then per vertex
//
//	u64 globalID | u8 halted | u64 msgCount | {u64 len, bytes}... | u64 stateLen | bytes
//
// where the messages are the inbox pending for the resume superstep and the
// state bytes come from Migratable.SnapshotVertex. All integers are
// little-endian. Returns the blob size for migration-cost accounting.
func (w *worker[M]) writeMigration(store *cloud.BlobStore, resumeStep int) (n int64, err error) {
	mig, ok := w.asMigratable()
	if !ok {
		return 0, fmt.Errorf("program %T does not implement core.Migratable", w.programAny())
	}
	span := w.tracer.Start(observe.KindMigrate, w.id, resumeStep)
	defer func() {
		if !span.Active() {
			return
		}
		if err != nil {
			span.End(observe.Str("err", err.Error()))
		} else {
			span.End(observe.Int("bytes", n), observe.Int("vertices", int64(len(w.owned))))
		}
	}()
	var buf bytes.Buffer
	writeU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	var scratch []byte // one codec buffer reused for every message record
	writeMsg := func(m M) {
		scratch = w.codec.Append(scratch[:0], m)
		writeU64(uint64(len(scratch)))
		buf.Write(scratch)
	}
	writeU64(uint64(len(w.owned)))
	var state bytes.Buffer
	for li, gid := range w.owned {
		writeU64(uint64(gid))
		if w.halted[li] {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		if w.combiner != nil {
			if w.inboxHasCur[li] {
				writeU64(1)
				writeMsg(w.inboxOneCur[li])
			} else {
				writeU64(0)
			}
		} else {
			msgs := w.inboxCur[li]
			writeU64(uint64(len(msgs)))
			for _, m := range msgs {
				writeMsg(m)
			}
		}
		state.Reset()
		if serr := mig.SnapshotVertex(int32(li), &state); serr != nil {
			return 0, fmt.Errorf("vertex %d state snapshot: %w", gid, serr)
		}
		writeU64(uint64(state.Len()))
		buf.Write(state.Bytes())
	}
	name := migrationBlob(resumeStep, w.id)
	if err := w.retry.Do(func() error {
		return store.Put(migrationContainer, name, buf.Bytes())
	}); err != nil {
		return 0, fmt.Errorf("storing migration blob: %w", err)
	}
	w.writeTrafficSidecar(store, resumeStep)
	return int64(buf.Len()), nil
}

// writeTrafficSidecar stores this worker's per-vertex traffic counters as
// (u64 pair count, then u64 globalID | u64 count per non-zero vertex). The
// sidecar is a heuristic signal for the repartitioner, so a store failure
// after retries degrades the next layout to unweighted rather than failing
// the migration.
func (w *worker[M]) writeTrafficSidecar(store *cloud.BlobStore, resumeStep int) {
	var buf bytes.Buffer
	writeU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	pairs := 0
	for _, t := range w.vertexTraffic {
		if t > 0 {
			pairs++
		}
	}
	writeU64(uint64(pairs))
	for li, t := range w.vertexTraffic {
		if t > 0 {
			writeU64(uint64(w.owned[li]))
			writeU64(uint64(t))
		}
	}
	_ = w.retry.Do(func() error {
		return store.Put(migrationContainer, trafficBlob(resumeStep, w.id), buf.Bytes())
	})
}

// loadResizeTraffic reassembles the per-vertex traffic counters from every
// old worker's sidecar. Any missing or malformed sidecar yields nil — the
// repartitioner then runs unweighted, which only costs layout quality.
func loadResizeTraffic(store *cloud.BlobStore, retry cloud.RetryPolicy,
	resumeStep, fromWorkers, n int) []int64 {
	traffic := make([]int64, n)
	for ow := 0; ow < fromWorkers; ow++ {
		var data []byte
		name := trafficBlob(resumeStep, ow)
		if err := retry.Do(func() error {
			var gerr error
			data, gerr = store.Get(migrationContainer, name)
			return gerr
		}); err != nil {
			return nil
		}
		r := bytes.NewReader(data)
		readU64 := func() (uint64, bool) {
			var b [8]byte
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return 0, false
			}
			return binary.LittleEndian.Uint64(b[:]), true
		}
		count, ok := readU64()
		if !ok {
			return nil
		}
		for i := uint64(0); i < count; i++ {
			gid, ok1 := readU64()
			t, ok2 := readU64()
			if !ok1 || !ok2 || gid >= uint64(n) {
				return nil
			}
			traffic[gid] += int64(t)
		}
		if r.Len() != 0 {
			return nil
		}
	}
	return traffic
}

// adoptMigrations loads every old worker's migration blob and routes each
// vertex record to its new owner under the new assignment. It runs between
// segments, before the new workers' goroutines start, so no locking is
// needed on the inboxes or program state it populates.
func adoptMigrations[M any](workers []*worker[M], store *cloud.BlobStore,
	retry cloud.RetryPolicy, resumeStep, fromWorkers int) error {
	for ow := 0; ow < fromWorkers; ow++ {
		var data []byte
		name := migrationBlob(resumeStep, ow)
		if err := retry.Do(func() error {
			var gerr error
			data, gerr = store.Get(migrationContainer, name)
			return gerr
		}); err != nil {
			return fmt.Errorf("loading migration blob %s: %w", name, err)
		}
		if err := adoptMigrationBlob(workers, data); err != nil {
			return fmt.Errorf("migration blob %s: %w", name, err)
		}
	}
	return nil
}

// adoptMigrationBlob parses one old worker's blob and delivers each vertex
// record to the new worker that owns it.
func adoptMigrationBlob[M any](workers []*worker[M], data []byte) error {
	r := bytes.NewReader(data)
	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	readBytes := func(what string) ([]byte, error) {
		size, err := readU64()
		if err != nil {
			return nil, err
		}
		if size > uint64(r.Len()) {
			return nil, fmt.Errorf("corrupt migration blob: %s claims %d bytes, %d remain", what, size, r.Len())
		}
		b := make([]byte, size)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	assign := workers[0].assign
	count, err := readU64()
	if err != nil {
		return fmt.Errorf("corrupt migration blob header: %w", err)
	}
	for i := uint64(0); i < count; i++ {
		gidRaw, err := readU64()
		if err != nil {
			return fmt.Errorf("vertex record %d: %w", i, err)
		}
		if gidRaw >= uint64(len(assign)) {
			return fmt.Errorf("vertex record %d: global ID %d out of range", i, gidRaw)
		}
		gid := graph.VertexID(gidRaw)
		var haltedByte [1]byte
		if _, err := io.ReadFull(r, haltedByte[:]); err != nil {
			return fmt.Errorf("vertex %d halted flag: %w", gid, err)
		}
		msgCount, err := readU64()
		if err != nil {
			return fmt.Errorf("vertex %d message count: %w", gid, err)
		}
		if msgCount > uint64(r.Len()) {
			return fmt.Errorf("corrupt migration blob: vertex %d claims %d messages, %d bytes remain", gid, msgCount, r.Len())
		}
		encMsgs := make([][]byte, 0, msgCount)
		for j := uint64(0); j < msgCount; j++ {
			enc, err := readBytes("message")
			if err != nil {
				return fmt.Errorf("vertex %d message %d: %w", gid, j, err)
			}
			encMsgs = append(encMsgs, enc)
		}
		state, err := readBytes("vertex state")
		if err != nil {
			return fmt.Errorf("vertex %d state: %w", gid, err)
		}
		nw := int(assign[gid])
		if nw < 0 || nw >= len(workers) {
			return fmt.Errorf("vertex %d assigned to worker %d of %d", gid, nw, len(workers))
		}
		if err := workers[nw].adoptVertex(gid, haltedByte[0] == 1, encMsgs, state); err != nil {
			return err
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("corrupt migration blob: %d trailing bytes", r.Len())
	}
	return nil
}

// adoptVertex installs one migrated vertex into this worker's freshly
// constructed state: the halted flag, the pending inbox for the resume
// superstep (combiner-aware, with the same byte accounting deliverLocal
// uses), and the program's per-vertex state. No wake is needed: a fresh
// worker starts with every vertex woken (newWorker).
func (w *worker[M]) adoptVertex(gid graph.VertexID, halted bool, encMsgs [][]byte, state []byte) error {
	li := w.globalToLocal[gid]
	if li < 0 {
		return fmt.Errorf("vertex %d routed to worker %d, which does not own it", gid, w.id)
	}
	w.halted[li] = halted
	for _, enc := range encMsgs {
		m, err := w.decodeChecked(enc)
		if err != nil {
			return fmt.Errorf("vertex %d: %w", gid, err)
		}
		size := int64(len(enc) + msgWireOverhead)
		if w.combiner != nil {
			if w.inboxHasCur[li] {
				w.inboxOneCur[li] = w.combiner.Combine(w.inboxOneCur[li], m)
			} else {
				w.inboxOneCur[li] = m
				w.inboxHasCur[li] = true
				w.inboxCurBytes += size
			}
		} else {
			w.inboxCur[li] = append(w.inboxCur[li], m)
			w.inboxCurBytes += size
		}
	}
	mig, ok := w.asMigratable()
	if !ok {
		return fmt.Errorf("program %T does not implement core.Migratable", w.programAny())
	}
	if err := mig.RestoreVertex(li, bytes.NewReader(state)); err != nil {
		return fmt.Errorf("vertex %d state restore: %w", gid, err)
	}
	return nil
}
