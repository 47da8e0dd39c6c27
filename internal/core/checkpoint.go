package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"pregelnet/internal/cloud"
	"pregelnet/internal/observe"
)

// Checkpointing and fault recovery — the Pregel feature the paper lists as
// an extension its design can support (§III: "our work can easily be
// extended to support ... fault recovery"). Every CheckpointEvery
// supersteps, each worker snapshots its vertex state, halted flags, and
// pending inbox to the blob store *before* computing the superstep. When a
// worker fails (e.g. the simulated fabric restarts a thrashing VM, or a
// test injects a fault), the manager rolls every worker back to the last
// checkpoint and replays its recorded swath injections for the re-executed
// supersteps, so scheduler state stays consistent without scheduler
// cooperation. Re-executed supersteps are paid for again in simulated time
// and cost, as they would be on a real cloud.

// Checkpointable is implemented by vertex programs that support fault
// recovery. Snapshot must capture all per-vertex state; Restore must
// exactly invert it on a freshly constructed program instance.
type Checkpointable interface {
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

// checkpointContainer is the blob-store container used for snapshots.
const checkpointContainer = "checkpoints"

func checkpointBlob(superstep, worker int) string {
	return fmt.Sprintf("s%08d-w%04d", superstep, worker)
}

// snapshot serializes the worker's restart-relevant state: halted flags and
// the messages pending for the upcoming superstep, plus the program's own
// snapshot.
func (w *worker[M]) snapshot(store *cloud.BlobStore) error {
	ckpt, ok := w.asCheckpointable()
	if !ok {
		return fmt.Errorf("program %T does not implement core.Checkpointable", w.programAny())
	}
	var buf bytes.Buffer
	writeU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	writeU64(uint64(len(w.halted)))
	for _, h := range w.halted {
		if h {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	// Pending inbox: per local vertex, the messages to be processed in the
	// superstep about to run. With a combiner the engine stores one combined
	// slot per vertex; the blob format (count, then messages) is shared. One
	// codec scratch buffer serves every message (no per-message allocation).
	var scratch []byte
	writeMsg := func(m M) {
		scratch = w.codec.Append(scratch[:0], m)
		writeU64(uint64(len(scratch)))
		buf.Write(scratch)
	}
	if w.combiner != nil {
		for li := range w.owned {
			if w.inboxHasCur[li] {
				writeU64(1)
				writeMsg(w.inboxOneCur[li])
			} else {
				writeU64(0)
			}
		}
	} else {
		for li := range w.inboxCur {
			msgs := w.inboxCur[li]
			writeU64(uint64(len(msgs)))
			for _, m := range msgs {
				writeMsg(m)
			}
		}
	}
	writeU64(uint64(w.inboxCurBytes))
	if err := ckpt.Snapshot(&buf); err != nil {
		return fmt.Errorf("program snapshot: %w", err)
	}
	// Blob writes can fail transiently on a real cloud; retry with backoff
	// before declaring the superstep failed.
	span := w.tracer.Start(observe.KindCheckpoint, w.id, w.superstep)
	name := checkpointBlob(w.superstep, w.id)
	if err := w.retry.Do(func() error {
		return store.Put(checkpointContainer, name, buf.Bytes())
	}); err != nil {
		span.End()
		return fmt.Errorf("storing checkpoint: %w", err)
	}
	if span.Active() {
		span.End(observe.Int("bytes", int64(buf.Len())))
	}
	return nil
}

// decodeChecked decodes one snapshot message, converting malformed input —
// a short buffer that panics the codec, or trailing garbage — into an error
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

// restore loads the snapshot taken before `superstep` and resets all
// transient state (pending inboxes from the aborted execution are dropped).
// epoch is the manager-assigned recovery generation for this rollback.
func (w *worker[M]) restore(store *cloud.BlobStore, superstep int, epoch int32) (err error) {
	ckpt, ok := w.asCheckpointable()
	if !ok {
		return fmt.Errorf("program %T does not implement core.Checkpointable", w.programAny())
	}
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
	r := bytes.NewReader(data)
	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	n, err := readU64()
	if err != nil || int(n) != len(w.halted) {
		return fmt.Errorf("corrupt checkpoint header (n=%d err=%v)", n, err)
	}
	flags := make([]byte, n)
	if _, err := io.ReadFull(r, flags); err != nil {
		return err
	}
	for i, f := range flags {
		w.halted[i] = f == 1
	}
	// The receive loop may still be delivering stale (pre-rollback) batches
	// concurrently; hold every inbox stripe lock while resetting so a racing
	// deliverLocal cannot interleave with the wipe. New stale arrivals are
	// rejected by the epoch filter bumped above.
	for i := range w.inboxLocks {
		w.inboxLocks[i].Lock()
	}
	unlockStripes := func() {
		for i := range w.inboxLocks {
			w.inboxLocks[i].Unlock()
		}
	}
	var scratch []byte // reused decode buffer: one allocation per high-water message, not per message
	readMsg := func() (M, error) {
		var zero M
		size, err := readU64()
		if err != nil {
			return zero, err
		}
		if size > uint64(r.Len()) {
			return zero, fmt.Errorf("corrupt checkpoint: message claims %d bytes, %d remain", size, r.Len())
		}
		if uint64(cap(scratch)) < size {
			scratch = make([]byte, size)
		}
		enc := scratch[:size]
		if _, err := io.ReadFull(r, enc); err != nil {
			return zero, err
		}
		return w.decodeChecked(enc)
	}
	for li := range w.owned {
		count, err := readU64()
		if err != nil {
			unlockStripes()
			return err
		}
		if w.combiner != nil {
			// Combined mode holds at most one slot per vertex; a multi-message
			// record (from a blob written without a combiner) is re-combined.
			w.inboxHasCur[li] = false
			var zero M
			w.inboxOneCur[li] = zero
			w.inboxOneNext[li] = zero
			w.inboxHasNext[li] = false
			for j := uint64(0); j < count; j++ {
				m, derr := readMsg()
				if derr != nil {
					unlockStripes()
					return derr
				}
				if w.inboxHasCur[li] {
					w.inboxOneCur[li] = w.combiner.Combine(w.inboxOneCur[li], m)
				} else {
					w.inboxOneCur[li] = m
					w.inboxHasCur[li] = true
				}
			}
			continue
		}
		msgs := make([]M, 0, count)
		for j := uint64(0); j < count; j++ {
			m, derr := readMsg()
			if derr != nil {
				unlockStripes()
				return derr
			}
			msgs = append(msgs, m)
		}
		w.inboxCur[li] = msgs
		w.inboxNext[li] = nil
	}
	curBytes, err := readU64()
	if err != nil {
		unlockStripes()
		return err
	}
	w.inboxCurBytes = int64(curBytes)
	w.inboxNextByts.Store(0)
	// Wake all: the restored flags and inboxes are the frontier now. Wakes
	// the aborted execution left in wakeNext are merely stale.
	w.wakeCur.fill(len(w.owned))
	unlockStripes()
	// Drop sentinel bookkeeping from the aborted execution.
	w.sentinelMu.Lock()
	w.sentinels = make(map[int]int)
	w.sentinelMu.Unlock()
	w.recvMu.Lock()
	w.recvMsgs = make(map[int]int64)
	w.recvBytes = make(map[int]int64)
	w.recvMu.Unlock()
	if err := ckpt.Restore(r); err != nil {
		return fmt.Errorf("program restore: %w", err)
	}
	return nil
}
