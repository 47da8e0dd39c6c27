package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
)

// Vertex-state migration for live elastic resizes. A resize happens at a
// superstep barrier, where worker state is exactly what a checkpoint for
// the resume superstep would capture, so each old worker writes its state
// blob (state.go) to the migrations container. The blob does not name its
// vertices: the new segment rebuilds every old worker's owned list from the
// old assignment and routes each record to the vertex's new owner.

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
func loadResizeTraffic(store *cloud.BlobStore, resumeStep, fromWorkers, n int) []int64 {
	traffic := make([]int64, n)
	for ow := 0; ow < fromWorkers; ow++ {
		var data []byte
		name := trafficBlob(resumeStep, ow)
		if err := (cloud.RetryPolicy{}).Do(func() error {
			var gerr error
			data, gerr = store.Get(migrationContainer, name)
			return gerr
		}); err != nil {
			return nil
		}
		if !addTraffic(traffic, data) {
			return nil
		}
	}
	return traffic
}

// addTraffic adds one traffic sidecar's counters to traffic, which holds
// one per vertex of the graph, and reports whether the sidecar was well
// formed. The bytes are untrusted: the pair count is checked against their
// length before anything is read, every pair must name a vertex of the
// graph and keep its count in range, and nothing is allocated. A malformed
// sidecar may leave traffic partly added to.
func addTraffic(traffic []int64, data []byte) bool {
	if len(data) < 8 {
		return false
	}
	pairs, data := binary.LittleEndian.Uint64(data), data[8:]
	if uint64(len(data))%16 != 0 || pairs != uint64(len(data))/16 {
		return false
	}
	for ; len(data) > 0; data = data[16:] {
		gid, t := binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint64(data[8:])
		if gid >= uint64(len(traffic)) || t > math.MaxInt64-uint64(traffic[gid]) {
			return false
		}
		traffic[gid] += int64(t)
	}
	return true
}

// adoptMigrations loads every old worker's migration blob, routes each
// vertex record to its new owner under the new assignment and installs the
// adopted messages. from is the layout that wrote the blobs. It runs between
// segments, before the new workers' goroutines start, so no locking is
// needed on the inboxes or program state it populates.
func adoptMigrations[M any](workers []*worker[M], store *cloud.BlobStore,
	resumeStep int, from partition.Assignment, fromWorkers int) error {
	for ow, owned := range ownedLists(from, fromWorkers) {
		var data []byte
		name := migrationBlob(resumeStep, ow)
		if err := (cloud.RetryPolicy{}).Do(func() error {
			var gerr error
			data, gerr = store.Get(migrationContainer, name)
			return gerr
		}); err != nil {
			return fmt.Errorf("loading migration blob %s: %w", name, err)
		}
		if err := adoptState(workers, data, owned); err != nil {
			return fmt.Errorf("migration blob %s: %w", name, err)
		}
	}
	for _, w := range workers {
		w.installState()
	}
	return nil
}

// adoptState reads one old worker's state blob, written while it owned
// exactly `owned`, into the new workers that own those vertices now (their
// messages wait in each worker's stateRun for installState). The new
// workers are freshly constructed, so every vertex starts woken and with an
// empty inbox.
func adoptState[M any](workers []*worker[M], data []byte, owned []graph.VertexID) error {
	lay := workers[0].lay
	return readState(data, owned, func(gid graph.VertexID) (*worker[M], error) {
		nw := int(lay.owner(lay.place[gid]))
		if nw < 0 || nw >= len(workers) {
			return nil, fmt.Errorf("vertex %d assigned to worker %d of %d", gid, nw, len(workers))
		}
		return workers[nw], nil
	})
}
