package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
)

// manager coordinates supersteps: it posts step tokens to per-worker step
// queues, waits for all workers to check in at the barrier queue, reduces
// aggregators, asks the swath scheduler what to inject next, prices the
// superstep with the cost model, and decides when to halt (paper §III).
type manager[M any] struct {
	spec     *JobSpec[M]
	stepQs   []*cloud.Queue
	barrierQ *cloud.Queue
	fabric   *cloud.Fabric
	ins      *jobInstruments
}

// runError marks an error that aborts the whole job; the manager still
// shuts workers down cleanly.
type runError struct {
	Superstep int
	Err       error
}

func (e *runError) Error() string {
	return fmt.Sprintf("core: superstep %d: %v", e.Superstep, e.Err)
}

func (e *runError) Unwrap() error { return e.Err }

// run drives the job forward from js until completion, a fatal error, or a
// live resize decision. On resize it returns the request; Run migrates
// state, rebuilds the worker set, and re-enters run (through a fresh
// manager) with the same jobState. The returned timeline lives in js.steps
// and may include re-executed supersteps after recoveries.
func (m *manager[M]) run(js *jobState) (*resizeRequest, error) {
	if m.ins == nil {
		m.ins = newJobInstruments(nil, nil)
	}
	tracer := m.ins.tracer
	for {
		superstep := js.superstep
		if superstep >= m.spec.MaxSupersteps {
			m.halt()
			return nil, &runError{superstep, fmt.Errorf("exceeded MaxSupersteps=%d", m.spec.MaxSupersteps)}
		}
		// Ask the scheduler what to inject before this superstep — unless
		// this superstep is a post-recovery replay, which reuses the log.
		var injections []graph.VertexID
		if superstep <= js.scheduledThrough {
			injections = js.injectionLog[superstep]
			js.prevAggs = js.aggLog[superstep]
		} else {
			if m.spec.Scheduler != nil {
				injections = m.spec.Scheduler.NextSources(js.prev)
				tracer.Emit(observe.KindSwath, observe.ManagerWorker, superstep,
					observe.Int("injected", int64(len(injections))))
			}
			js.injectionLog[superstep] = injections
			js.aggLog[superstep] = js.prevAggs
			js.scheduledThrough = superstep
		}
		// Halt detection: nothing active, nothing in flight, nothing left to
		// inject. At superstep 0 there must be some source of activation.
		if superstep == 0 {
			if !m.spec.ActivateAll && len(injections) == 0 && m.spec.Scheduler == nil {
				m.halt()
				return nil, &runError{0, fmt.Errorf("no initial activation: set ActivateAll or a Scheduler")}
			}
		} else if len(injections) == 0 && m.halting(js.prev) {
			m.halt()
			return nil, nil
		}

		checkpoint := m.spec.CheckpointEvery > 0 &&
			(superstep%m.spec.CheckpointEvery == 0 || js.forceCheckpoint)
		if checkpoint {
			m.noteCkptAttempt(js, superstep)
		}

		m.ins.supersteps.Inc()
		stepSpan := tracer.Start(observe.KindSuperstep, observe.ManagerWorker, superstep)

		// Route injections to their owning workers and send step tokens.
		perWorker := make([][]graph.VertexID, m.spec.NumWorkers)
		for _, v := range injections {
			wID := m.spec.Assignment[v]
			perWorker[wID] = append(perWorker[wID], v)
		}
		for w := 0; w < m.spec.NumWorkers; w++ {
			tok := stepToken{Superstep: superstep, Injections: perWorker[w],
				Aggregates: js.prevAggs, Checkpoint: checkpoint,
				LastCkpt: js.lastCheckpoint}
			body, merr := json.Marshal(tok)
			if merr != nil {
				m.halt()
				return nil, &runError{superstep, merr}
			}
			m.stepQs[w].Put(body)
		}

		// Collect one barrier check-in per worker. Worker failures (chaos
		// injection or anything the worker reports) trigger recovery:
		// confined when only the failed workers need rewinding, a global
		// rollback otherwise. A successful confined recovery leaves `stats`
		// holding the superstep's merged statistics, so execution falls
		// through to commit the barrier as if it had never failed.
		stats, cerr := m.collectBarrier(superstep, js.epoch)
		if cerr != nil {
			if !m.confinedRecover(js, superstep, checkpoint, &stats, cerr) {
				if stepSpan.Active() {
					stepSpan.End(observe.Str("err", cerr.Error()))
				}
				if rerr := m.rollback(js, superstep, stats.failedWorkers, cerr); rerr != nil {
					m.halt()
					return nil, &runError{superstep, rerr}
				}
				continue
			}
		}
		if checkpoint {
			m.gcCheckpoints(js, superstep)
			js.lastCheckpoint = superstep
			js.forceCheckpoint = false
		}
		stats.Injected = len(injections)

		// Price the superstep and advance the pay-per-use meter. A memory
		// blowout here is the fabric restarting a thrashing VM — also
		// recoverable when checkpoints exist.
		usages := make([]cloud.WorkerStepUsage, m.spec.NumWorkers)
		for w := 0; w < m.spec.NumWorkers; w++ {
			usages[w] = cloud.WorkerStepUsage{
				ComputeOps:      stats.ComputeOpsPerWorker[w],
				LocalMessages:   0,
				RemoteBytesOut:  stats.BytesOutPerWorker[w],
				RemoteBytesIn:   stats.BytesInPerWorker[w],
				PeakMemoryBytes: stats.WorkerMemory[w],
				Peers:           stats.PeersPerWorker[w],
			}
		}
		simTotal, perWorkerSec, serr := m.spec.CostModel.SuperstepSeconds(usages)
		if serr != nil {
			if stepSpan.Active() {
				stepSpan.End(observe.Str("err", serr.Error()))
			}
			if rerr := m.rollback(js, superstep, nil, serr); rerr != nil {
				m.halt()
				return nil, &runError{superstep, rerr}
			}
			continue
		}
		stats.SimSeconds = simTotal
		stats.WorkerSimSeconds = perWorkerSec
		stats.BarrierSimSeconds = m.spec.CostModel.BarrierSeconds(m.spec.NumWorkers)
		m.fabric.Advance(simTotal)
		m.accrueOpenRecoveries(js, superstep, simTotal, usages)
		if stepSpan.Active() {
			stepSpan.End(
				observe.Int("active", stats.ActiveVertices),
				observe.Int("sent", stats.TotalSent()),
				observe.Int("injected", int64(stats.Injected)),
				observe.Int("retries", stats.Retries),
				observe.Float("sim_seconds", simTotal))
		}

		stats.Aggregates = stats.aggPartial
		js.prevAggs = stats.aggPartial
		if js.prevAggs == nil {
			js.prevAggs = map[string]float64{}
		}
		// GPS-style master compute: global logic over the reduced
		// aggregators, optionally mutating what gets broadcast.
		if m.spec.MasterCompute != nil {
			if hookErr := m.spec.MasterCompute(superstep, js.prevAggs); hookErr != nil {
				js.steps = append(js.steps, stats.StepStats)
				m.halt()
				if errors.Is(hookErr, ErrHaltJob) {
					return nil, nil
				}
				return nil, &runError{superstep, hookErr}
			}
		}
		js.steps = append(js.steps, stats.StepStats)
		js.statsBySuperstep[superstep] = stats.StepStats
		js.prev = &js.steps[len(js.steps)-1]
		js.superstep = superstep + 1
		if m.spec.OnStep != nil {
			m.spec.OnStep(stats.StepStats)
		}

		// Live elastic consult, then preemption consult, at the same
		// consistent BSP cut: with the barrier complete and the superstep
		// priced, a resize or a suspension ends this segment. (A barrier that
		// resized starts the next segment; the preemption hook is asked again
		// at that segment's first barrier.)
		req, terr := m.maybeResize(js)
		if terr == nil && req == nil {
			req, terr = m.maybeSuspend(js)
		}
		if terr != nil {
			m.halt()
			return nil, &runError{superstep, terr}
		}
		if req != nil {
			return req, nil
		}
	}
}

// halting reports whether the job would halt before running the superstep
// after prev (given no injections): nothing active, nothing in flight,
// nothing left to schedule. A nil prev (a rollback to superstep 0) never
// halts.
func (m *manager[M]) halting(prev *StepStats) bool {
	return prev != nil && prev.ActiveAfter == 0 && prev.TotalSent() == 0 &&
		(m.spec.Scheduler == nil || m.spec.Scheduler.Done())
}

// rollback rolls every worker back to the last checkpoint and rewinds the
// jobState cursor for replay — the global recovery path, used when confined
// recovery is disabled, inapplicable (too many failures, no live survivor
// state to replay from), or failed partway. failed names the workers whose
// failure triggered it (nil when the cause is not worker-attributable, e.g.
// a pricing error). Returns the (possibly wrapped) cause when recovery is
// impossible or fails.
func (m *manager[M]) rollback(js *jobState, superstep int, failed []int, cause error) error {
	if m.spec.CheckpointEvery <= 0 || js.lastCheckpoint < 0 {
		return cause
	}
	if js.recoveries >= maxRecoveries {
		return fmt.Errorf("giving up after %d recoveries: %w", js.recoveries, cause)
	}
	ev, span := m.beginRecovery(js, superstep, failed, false)
	target := ev.Checkpoint
	defer func() {
		if span.Active() {
			span.End(observe.Str("mode", "global"),
				observe.Int("target", int64(target)),
				observe.Int("recovery", int64(js.recoveries)),
				observe.Str("cause", cause.Error()))
		}
	}()
	if aerr := m.restoreWorkers(js, nil, target); aerr != nil {
		return fmt.Errorf("recovery to superstep %d failed: %w (original: %v)", target, aerr, cause)
	}
	// Record the recovery and leave it open: the main loop accrues each
	// re-executed superstep's duplicated cost into the event until the
	// cursor passes the failure point again.
	js.recoveryEvents = append(js.recoveryEvents, ev)
	js.openRecoveries = append(js.openRecoveries, len(js.recoveryEvents)-1)
	js.superstep = target
	js.prev = restorePrev(js.statsBySuperstep, target)
	return nil
}

// beginRecovery opens a recovery of the failed barrier at superstep from
// the last checkpoint: it bumps the job-wide data-plane epoch (shared with
// live resizes, so it is strictly monotonic across rollbacks and rebuilds
// alike) — workers adopt it for outgoing batches and use it to drop
// duplicate deliveries of the restore token — and starts the rollback span.
func (m *manager[M]) beginRecovery(js *jobState, superstep int, failed []int, confined bool) (RecoveryEvent, observe.Span) {
	js.recoveries++
	js.epoch++
	m.ins.rollbacks.Inc()
	ev := RecoveryEvent{AtSuperstep: superstep, Checkpoint: js.lastCheckpoint, Confined: confined,
		FailedWorkers: append([]int(nil), failed...)}
	return ev, m.ins.tracer.Start(observe.KindRollback, observe.ManagerWorker, superstep)
}

// confinedRecover attempts Pregel-style confined recovery for a failed
// barrier at superstep: only the workers in stats.failedWorkers restore
// from the last checkpoint and re-execute the lost supersteps; every
// survivor keeps its live state and replays its logged outbound messages
// into the failed set. Returns true when the recovery completed — stats
// then holds the superstep's merged statistics (survivors' originals plus
// the failed workers' re-executions) and the caller commits the barrier as
// if it had succeeded. Returns false when confined recovery is not
// applicable or failed partway; falling back to a global rollback is safe
// at any point because the fallback restores everyone under a fresh epoch.
func (m *manager[M]) confinedRecover(js *jobState, superstep int, ckpt bool, stats *collected, cause error) bool {
	failed := stats.failedWorkers
	if m.spec.RecoveryMode != RecoverConfined ||
		m.spec.CheckpointEvery <= 0 || js.lastCheckpoint < 0 ||
		len(failed) == 0 || len(failed) > max(1, m.spec.NumWorkers/2) ||
		len(failed) >= m.spec.NumWorkers ||
		js.recoveries >= maxRecoveries {
		return false
	}
	m.ins.confined.Inc()
	ev, span := m.beginRecovery(js, superstep, failed, true)
	target := ev.Checkpoint
	err := m.runConfined(js, superstep, ckpt, stats, &ev)
	if span.Active() {
		attrs := []observe.Attr{
			observe.Str("mode", "confined"),
			observe.Int("target", int64(target)),
			observe.Int("recovery", int64(js.recoveries)),
			observe.Int("failed", int64(len(failed))),
			observe.Str("cause", cause.Error()),
		}
		if err != nil {
			attrs = append(attrs, observe.Str("err", err.Error()))
		}
		span.End(attrs...)
	}
	if err != nil {
		return false
	}
	// Replay rounds span [checkpoint, failure] inclusive: the failed workers
	// re-executed every one of them.
	ev.ReplaySupersteps = superstep - target + 1
	js.recoveryEvents = append(js.recoveryEvents, ev)
	return true
}

// runConfined drives the confined-recovery protocol: restore tokens to the
// failed workers only, then one replay round per lost superstep in which
// the failed workers re-execute (suppressing deliveries to survivors, whose
// inboxes already hold this traffic) and the survivors re-send their logged
// outbound batches into the failed set. Replay rounds before the failure
// superstep are priced and advance the fabric clock (wall-clock the job
// would not have spent without the failure); the final round overlaps the
// failed barrier the caller re-commits, so only its duplicated work accrues
// to the event. Any error aborts the attempt — survivors were never rolled
// back, so the caller's global fallback remains sound.
func (m *manager[M]) runConfined(js *jobState, superstep int, ckpt bool, stats *collected, ev *RecoveryEvent) error {
	target := ev.Checkpoint
	failedSet := make([]bool, m.spec.NumWorkers)
	for _, w := range ev.FailedWorkers {
		failedSet[w] = true
	}
	if err := m.restoreWorkers(js, failedSet, target); err != nil {
		return err
	}
	for s := target; s <= superstep; s++ {
		m.ins.supersteps.Inc()
		replaySpan := m.ins.tracer.Start(observe.KindSuperstep, observe.ManagerWorker, s)
		rec, err := m.replayRound(js, s, superstep, ckpt, failedSet, stats, ev)
		if replaySpan.Active() {
			if err != nil {
				replaySpan.End(observe.Str("mode", "replay"), observe.Str("err", err.Error()))
			} else {
				replaySpan.End(observe.Str("mode", "replay"),
					observe.Int("replayed_msgs", ev.ReplayedMsgs),
					observe.Float("recovery_seconds", rec))
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replayRound runs confined-recovery replay round s of a failure at
// superstep and returns the duplicated work it billed. Failed workers
// re-execute s and check in with full statistics; survivors ack with the
// replayed message/byte counts. The round's usage is the failed workers'
// full usage plus survivors' replay traffic; the final round (s ==
// superstep) also merges the failed workers' fresh statistics into stats.
func (m *manager[M]) replayRound(js *jobState, s, superstep int, ckpt bool, failedSet []bool,
	stats *collected, ev *RecoveryEvent) (float64, error) {
	n := m.spec.NumWorkers
	// Re-route the recorded scheduler decisions for the failed workers;
	// survivors already consumed theirs in the original execution.
	perWorker := make([][]graph.VertexID, n)
	for _, v := range js.injectionLog[s] {
		if wID := m.spec.Assignment[v]; failedSet[wID] {
			perWorker[wID] = append(perWorker[wID], v)
		}
	}
	for w := 0; w < n; w++ {
		tok := stepToken{
			Kind: kindReplay, Superstep: s, Failed: ev.FailedWorkers,
			Epoch: js.epoch, LastCkpt: ev.Checkpoint,
			// Only the failure superstep's checkpoint needs rewriting (a
			// snapshot at the target already exists, and no checkpoint
			// committed in between — the target would have moved); survivors'
			// snapshots for it were written before they checked in cleanly.
			Checkpoint: ckpt && s == superstep && failedSet[w],
		}
		if failedSet[w] {
			tok.Injections = perWorker[w]
			tok.Aggregates = js.aggLog[s]
		}
		body, err := json.Marshal(tok)
		if err != nil {
			return 0, err
		}
		m.stepQs[w].Put(body)
	}
	usages := make([]cloud.WorkerStepUsage, n)
	dropped, _, err := m.collect("replay check-ins", s, js.epoch, nil,
		func(w int) kind {
			if failedSet[w] {
				return kindStep
			}
			return kindReplay
		},
		func(msg barrierMsg) error {
			if err := msg.err(); err != nil {
				return err
			}
			w := msg.Worker
			if !failedSet[w] {
				ev.ReplayedMsgs += msg.SentRemote
				ev.ReplayedBytes += msg.BytesOut
				if msg.BytesOut > 0 {
					usages[w] = cloud.WorkerStepUsage{RemoteBytesOut: msg.BytesOut, Peers: len(ev.FailedWorkers)}
				}
				return nil
			}
			usages[w] = cloud.WorkerStepUsage{
				ComputeOps:      msg.ComputeOps,
				RemoteBytesOut:  msg.BytesOut,
				RemoteBytesIn:   msg.BytesIn,
				PeakMemoryBytes: msg.PeakMemory,
				Peers:           msg.Peers,
			}
			if s == superstep {
				stats.Retries += msg.Retries
				m.mergeCheckIn(stats, msg)
			}
			return nil
		})
	js.dupsDropped += dropped
	if err != nil {
		return 0, err
	}
	rec, err := m.spec.CostModel.RecoverySeconds(usages)
	if err != nil {
		return 0, err
	}
	ev.RecoverySeconds += rec
	if s < superstep {
		total, _, err := m.spec.CostModel.SuperstepSeconds(usages)
		if err != nil {
			return 0, err
		}
		m.fabric.Advance(total)
		ev.SimSeconds += total
	}
	return rec, nil
}

// accrueOpenRecoveries charges a re-executed superstep to every global
// recovery still replaying past its failure point. Confined recoveries
// never appear here — their replay rounds are priced inside runConfined —
// but a global rollback re-runs everything through the main loop, so its
// duplicated cost is collected as the cursor passes back over
// [checkpoint, failure].
func (m *manager[M]) accrueOpenRecoveries(js *jobState, superstep int, simTotal float64, usages []cloud.WorkerStepUsage) {
	if len(js.openRecoveries) == 0 {
		return
	}
	rec, err := m.spec.CostModel.RecoverySeconds(usages)
	if err != nil {
		rec = 0 // unreachable: SuperstepSeconds already priced these usages
	}
	kept := js.openRecoveries[:0]
	for _, idx := range js.openRecoveries {
		ev := &js.recoveryEvents[idx]
		if superstep <= ev.AtSuperstep {
			ev.RecoverySeconds += rec
			ev.SimSeconds += simTotal
			ev.ReplaySupersteps++
		}
		if superstep < ev.AtSuperstep {
			kept = append(kept, idx)
		}
	}
	js.openRecoveries = kept
}

// noteCkptAttempt records that checkpoint blobs for superstep may now exist
// under the current worker count, so a later commit can garbage-collect
// them if they end up superseded (e.g. the attempt's barrier fails and the
// job recovers past it, orphaning partial snapshots).
func (m *manager[M]) noteCkptAttempt(js *jobState, superstep int) {
	for _, g := range js.ckptGens {
		if g.step == superstep && g.workers == m.spec.NumWorkers {
			return
		}
	}
	js.ckptGens = append(js.ckptGens, ckptGen{step: superstep, workers: m.spec.NumWorkers})
}

// gcCheckpoints deletes every checkpoint generation superseded by the one
// just committed at superstep: once that barrier has succeeded, older
// snapshots (and orphaned partial attempts) can never be restored again.
// GC runs only at commit time, so a torn write of the NEW checkpoint can
// never strand the job — the previous complete generation survives until
// its successor is fully durable.
func (m *manager[M]) gcCheckpoints(js *jobState, superstep int) {
	if m.spec.CheckpointStore != nil {
		for _, g := range js.ckptGens {
			if g.step == superstep && g.workers == m.spec.NumWorkers {
				continue
			}
			for w := 0; w < g.workers; w++ {
				// Best-effort: a missing blob (torn write, never attempted by a
				// failed worker) is already gone.
				_ = m.spec.CheckpointStore.Delete(checkpointContainer, checkpointBlob(g.step, w))
			}
		}
	}
	js.ckptGens = js.ckptGens[:0]
	js.ckptGens = append(js.ckptGens, ckptGen{step: superstep, workers: m.spec.NumWorkers})
}

// maybeResize consults the elastic controller with the just-completed
// superstep's stats and, when the (clamped) target differs from the current
// worker count, writes the state out for the new count (see migrateOut).
func (m *manager[M]) maybeResize(js *jobState) (*resizeRequest, error) {
	// Don't resize a job that is about to halt: the next loop iteration would
	// stop before running a superstep at the new count, paying migration for
	// nothing.
	if m.spec.ElasticController == nil || m.halting(js.prev) {
		return nil, nil
	}
	target := clampWorkerTarget(
		m.spec.ElasticController.Workers(js.prev, m.spec.NumWorkers),
		m.spec.Graph.NumVertices())
	switch {
	case target > m.spec.NumWorkers:
		return m.migrateOut(js, observe.KindScaleOut, m.ins.scaleOuts, target, false)
	case target < m.spec.NumWorkers:
		return m.migrateOut(js, observe.KindScaleIn, m.ins.scaleIns, target, false)
	}
	return nil, nil
}

// migrateOut is the state write-out shared by live resize and barrier
// preemption: a migrate token to every worker, one migration ack each
// (carrying the blob size movedStateBytes prices the cross-owner share
// from), then the segment halts and Run gets the request. A failed
// write-out (e.g. a VM restart scripted mid-migration) is absorbed by
// ordinary checkpoint rollback — the segment continues unchanged and the
// trigger is consulted again at the next barrier.
func (m *manager[M]) migrateOut(js *jobState, spanKind observe.Kind, counter *observe.Counter,
	target int, suspend bool) (*resizeRequest, error) {
	resume := js.superstep
	span := m.ins.tracer.Start(spanKind, observe.ManagerWorker, resume)
	perWorker := make([]int64, m.spec.NumWorkers)
	var migrated int64
	err := m.post(stepToken{Kind: kindMigrate, Superstep: resume}, nil)
	if err == nil {
		var dropped int64
		dropped, _, err = m.collect("migration acks", resume, js.epoch, nil,
			func(int) kind { return kindMigrate },
			func(msg barrierMsg) error {
				perWorker[msg.Worker] = msg.MigratedBytes
				migrated += msg.MigratedBytes
				return msg.err()
			})
		js.dupsDropped += dropped
	}
	if err != nil {
		if span.Active() {
			span.End(observe.Str("err", err.Error()))
		}
		return nil, m.rollback(js, resume, nil, err)
	}
	counter.Inc()
	if span.Active() {
		span.End(observe.Int("from", int64(m.spec.NumWorkers)),
			observe.Int("to", int64(target)),
			observe.Int("bytes", migrated))
	}
	// Every worker's state is safely in the blob store; end the segment.
	m.halt()
	return &resizeRequest{
		fromWorkers:       m.spec.NumWorkers,
		fromAssign:        m.spec.Assignment,
		toWorkers:         target,
		resumeStep:        resume,
		migratedBytes:     migrated,
		migratedPerWorker: perWorker,
		suspend:           suspend,
	}, nil
}

// restorePrev returns the stats preceding the checkpointed superstep, for
// halt checks during replay (nil when rolling back to superstep 0).
func restorePrev(bySuper map[int]StepStats, checkpoint int) *StepStats {
	if checkpoint <= 0 {
		return nil
	}
	if s, ok := bySuper[checkpoint-1]; ok {
		return &s
	}
	return nil
}

// restoreWorkers rolls the wanted workers (nil = all) back to the checkpoint
// taken before target under the job's current epoch, and waits for their
// acks. Only a failed restore or the deadline fails it.
func (m *manager[M]) restoreWorkers(js *jobState, want []bool, target int) error {
	if err := m.post(stepToken{Kind: kindRestore, Superstep: target, Epoch: js.epoch}, want); err != nil {
		return err
	}
	dropped, _, err := m.collect("restore acks", target, js.epoch, want,
		func(int) kind { return kindRestore }, barrierMsg.err)
	js.dupsDropped += dropped
	return err
}

// collect drains the barrier queue until every wanted worker (nil = all)
// has checked in once for (superstep, epoch) with the kind expect names for
// it, handing each such check-in to on; a non-nil error from on aborts the
// collection. It is the one consumer of the barrier queue. The control
// plane is at-least-once, so duplicates, stale check-ins from an aborted
// execution or epoch, and acks of other kinds (late restore/replay acks,
// migration acks from a resize that was rolled back) are expected: they are
// deleted, counted in dropped, and otherwise ignored. The whole collection
// must finish within BarrierTimeout; on timeout, missing lists the silent
// workers (straggler detection) and the error names them.
func (m *manager[M]) collect(what string, superstep, epoch int, want []bool,
	expect func(w int) kind, on func(barrierMsg) error) (dropped int64, missing []int, err error) {
	n := m.spec.NumWorkers
	need := n
	if want != nil {
		need = 0
		for _, ok := range want {
			if ok {
				need++
			}
		}
	}
	seen := make([]bool, n)
	deadline := time.Now().Add(m.spec.BarrierTimeout)
	for got := 0; got < need; {
		var lease *cloud.QueueMessage
		if remaining := time.Until(deadline); remaining > 0 {
			waitStart := time.Now()
			lease = m.barrierQ.GetWait(queueVisibility, remaining)
			m.ins.barrier.Observe(time.Since(waitStart).Seconds())
		}
		if lease == nil {
			for w := range seen {
				if (want == nil || want[w]) && !seen[w] {
					missing = append(missing, w)
				}
			}
			return dropped, missing, fmt.Errorf("timeout waiting for %s at superstep %d (%d/%d): missing workers %v",
				what, superstep, got, need, missing)
		}
		msg, derr := decodeCheckIn(lease.Body, n)
		_ = m.barrierQ.Delete(lease.ID)
		if derr != nil {
			return dropped, nil, fmt.Errorf("%s: %w", what, derr)
		}
		w := msg.Worker
		if msg.Kind != expect(w) || msg.Superstep != superstep || msg.Epoch != epoch ||
			(want != nil && !want[w]) || seen[w] {
			dropped++
			continue
		}
		seen[w] = true
		got++
		if err := on(msg); err != nil {
			return dropped, nil, err
		}
	}
	return dropped, nil, nil
}

// collected extends StepStats with manager-internal per-worker columns.
type collected struct {
	StepStats
	ComputeOpsPerWorker []int64
	BytesOutPerWorker   []int64
	BytesInPerWorker    []int64
	PeersPerWorker      []int
	aggPartial          map[string]float64
	// failedWorkers lists the workers that reported an error or never
	// checked in before the barrier deadline, ascending — the candidate set
	// for confined recovery.
	failedWorkers []int
}

// collectBarrier collects one step check-in per worker. A worker reporting
// an error is recorded as failed and the collection keeps draining, so the
// queue is clean for a recovery attempt; a worker missing the deadline is
// failed too.
func (m *manager[M]) collectBarrier(superstep, epoch int) (collected, error) {
	span := m.ins.tracer.Start(observe.KindBarrierCollect, observe.ManagerWorker, superstep)
	defer span.End()
	n := m.spec.NumWorkers
	c := collected{
		StepStats: StepStats{
			Superstep:    superstep,
			Workers:      n,
			WorkerSent:   make([]int64, n),
			WorkerMemory: make([]int64, n),
			WorkerActive: make([]int64, n),
		},
		ComputeOpsPerWorker: make([]int64, n),
		BytesOutPerWorker:   make([]int64, n),
		BytesInPerWorker:    make([]int64, n),
		PeersPerWorker:      make([]int, n),
	}
	var workerErr error
	dropped, missing, err := m.collect("barrier check-ins", superstep, epoch, nil,
		func(int) kind { return kindStep },
		func(msg barrierMsg) error {
			c.Retries += msg.Retries
			if werr := msg.err(); werr != nil {
				if workerErr == nil {
					workerErr = werr
				}
				c.failedWorkers = append(c.failedWorkers, msg.Worker)
			} else {
				m.mergeCheckIn(&c, msg)
			}
			return nil
		})
	c.DuplicatesDropped = dropped
	c.failedWorkers = append(c.failedWorkers, missing...)
	sort.Ints(c.failedWorkers)
	if err != nil {
		return c, err
	}
	return c, workerErr
}

// mergeCheckIn folds one clean worker check-in into the collected superstep
// statistics. Used at normal barriers and again during confined recovery,
// when a recovered worker's re-executed check-in stands in for the failed
// original (re-execution is deterministic, so the merged totals match what
// a failure-free superstep would have produced).
func (m *manager[M]) mergeCheckIn(c *collected, msg barrierMsg) {
	w := msg.Worker
	c.ActiveVertices += msg.Active
	c.ActiveAfter += msg.ActiveAfter
	c.SentLocal += msg.SentLocal
	c.SentRemote += msg.SentRemote
	c.RemoteBytes += msg.BytesOut
	c.ComputeOps += msg.ComputeOps
	c.WorkerSent[w] = msg.SentLocal + msg.SentRemote
	c.WorkerMemory[w] = msg.PeakMemory
	c.WorkerActive[w] = msg.Active
	if msg.PeakMemory > c.PeakMemoryBytes {
		c.PeakMemoryBytes = msg.PeakMemory
	}
	c.ComputeOpsPerWorker[w] = msg.ComputeOps
	c.BytesOutPerWorker[w] = msg.BytesOut
	c.BytesInPerWorker[w] = msg.BytesIn
	c.PeersPerWorker[w] = msg.Peers
	for name, v := range msg.Aggregates {
		if c.aggPartial == nil {
			c.aggPartial = make(map[string]float64)
		}
		if prevV, ok := c.aggPartial[name]; ok {
			c.aggPartial[name] = prevV + v
		} else {
			c.aggPartial[name] = v
		}
	}
}

// post sends tok to the wanted workers' step queues (nil = all).
func (m *manager[M]) post(tok stepToken, want []bool) error {
	body, err := json.Marshal(tok)
	if err != nil {
		return err
	}
	for w, q := range m.stepQs {
		if want == nil || want[w] {
			q.Put(body)
		}
	}
	return nil
}

// halt sends halt tokens so every worker exits cleanly.
func (m *manager[M]) halt() {
	_ = m.post(stepToken{Kind: kindHalt}, nil)
}
