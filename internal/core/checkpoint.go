package core

import (
	"fmt"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
)

// Checkpointing and fault recovery — the Pregel feature the paper lists as
// an extension its design can support (§III: "our work can easily be
// extended to support ... fault recovery"). Every CheckpointEvery
// supersteps, each worker writes its state blob (state.go) to the blob
// store *before* computing the superstep. When a worker fails (e.g. the
// simulated fabric restarts a thrashing VM, or a test injects a fault),
// the manager rolls every worker back to the last
// checkpoint and replays its recorded swath injections for the re-executed
// supersteps, so scheduler state stays consistent without scheduler
// cooperation. Re-executed supersteps are paid for again in simulated time
// and cost, as they would be on a real cloud.

// checkpointContainer is the blob-store container used for snapshots.
const checkpointContainer = "checkpoints"

func checkpointBlob(superstep, worker int) string {
	return fmt.Sprintf("s%08d-w%04d", superstep, worker)
}

// restore loads the snapshot taken before `superstep` and resets all
// transient state (pending inboxes from the aborted execution are dropped).
// epoch is the manager-assigned recovery generation for this rollback.
func (w *worker[M]) restore(store *cloud.BlobStore, superstep int, epoch int32) (err error) {
	span := w.tracer.Start(observe.KindRestore, w.id, superstep)
	defer func() {
		if !span.Active() {
			return
		}
		if err != nil {
			span.End(observe.Str("err", err.Error()))
		} else {
			span.End(observe.Int("epoch", int64(epoch)))
		}
	}()
	var data []byte
	name := checkpointBlob(superstep, w.id)
	if err := w.retry.Do(func() error {
		var gerr error
		data, gerr = store.Get(checkpointContainer, name)
		return gerr
	}); err != nil {
		return fmt.Errorf("loading checkpoint: %w", err)
	}
	// Quiesce the send pipeline: wait for every outbox's sender to finish (or
	// abandon) the aborted execution's batches and discard any accumulated
	// send error, so a stale failure cannot surface in the first replayed
	// superstep and no sender stamps a pre-rollback batch after the epoch
	// moves below.
	w.drainOutboxes()
	// The message log dies with the VM in the failure model this simulates, so
	// a restored worker rebuilds it from the checkpoint forward. Setting the
	// floor to the restore target also drops any surviving in-memory entries
	// from the aborted execution.
	w.msglog.Reset(superstep)
	// Adopt the manager's recovery epoch FIRST: the receive loop is still
	// running and may hold in-flight batches from the aborted execution; once
	// the epoch moves they are dropped on arrival instead of polluting the
	// state rebuilt below. The epoch comes from the restore token (not a
	// local counter) so every worker lands on the same value even if a
	// duplicated token makes one of them see the rollback twice; restore acks
	// are collected before any replay token is sent, so epochs are in
	// lockstep before new data flows.
	w.epoch.Store(epoch)
	// The receive loop may still be decoding a stale (pre-rollback) batch
	// into its sender's run, but it never writes the inbox, and the merge
	// drops runs filled under another epoch: wiping the inbox and this
	// worker's own staged output needs no lock. New stale arrivals are
	// rejected by the epoch filter bumped above. The staged output is
	// dropped uncounted, whatever the program: vertexTraffic counts only
	// what a merge installs.
	w.in.reset()
	for _, c := range w.slots {
		for dest := range c.stages {
			c.stages[dest].reset()
		}
		c.localRun.reset()
	}
	w.stateRun.reset()
	err = readState(data, w.owned, func(graph.VertexID) (*worker[M], error) { return w, nil })
	if err == nil {
		w.installState()
	}
	// Wake all: the restored flags and inboxes are the frontier now. Wakes
	// the aborted execution left in wakeNext are merely stale.
	w.wakeCur.fill(len(w.owned))
	if err != nil {
		return fmt.Errorf("corrupt checkpoint %s: %w", name, err)
	}
	// Drop sentinel bookkeeping from the aborted execution.
	w.sentinelMu.Lock()
	w.sentinels = make(map[int]int)
	w.sentinelMu.Unlock()
	w.recvMu.Lock()
	w.recvMsgs = make(map[int]int64)
	w.recvBytes = make(map[int]int64)
	w.recvErr = make(map[int]error)
	w.recvMu.Unlock()
	return nil
}
