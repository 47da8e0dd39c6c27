package core

import (
	"fmt"
	"sync"
	"time"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// Run executes a BSP job to completion: it allocates worker VMs from a
// fabric, wires the control plane (queues) and data plane (network), runs
// one goroutine per partition worker plus the manager, and returns the
// per-superstep statistics, simulated runtime, and simulated cost.
//
// With JobSpec.ElasticController set the job may span several *segments*,
// each a stretch of supersteps at one worker count: when the controller
// asks for a different count at a barrier, the current segment halts after
// writing vertex-granular migration blobs, Run re-bills the fabric
// (acquiring or releasing VMs and charging the provisioning + migration
// window), repartitions the graph, rebuilds the workers and data plane
// under a fresh epoch, adopts the migrated state, and resumes.
func Run[M any](spec JobSpec[M]) (*JobResult[M], error) {
	s, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}

	// Resumed run: adopt the suspension's manager state and layout before
	// anything observes the spec. The suspended worker count and assignment
	// override the caller's (the job may have been elastically resized
	// before it was preempted), the blob store holding the migration blobs
	// replaces any store withDefaults allocated, and the segment and epoch
	// advance exactly as they do across a live resize so stale control
	// tokens and data batches from pre-suspension segments can never reach
	// the resumed job. Prior billing totals carry over so the final result
	// reports whole-job numbers.
	js := newJobState()
	var (
		priorWall, priorCost, priorVMSec float64
		priorRestarts                    int
		pending                          *resizeRequest // migrated state to adopt into the next segment
	)
	if s.Resume != nil {
		susp := s.Resume
		js = susp.js
		s.NumWorkers = susp.workers
		s.Assignment = susp.assignment
		s.CheckpointStore = susp.store
		s.segment = susp.segment + 1
		js.epoch++
		js.lastCheckpoint = -1
		js.forceCheckpoint = s.CheckpointEvery > 0
		priorWall, priorCost, priorVMSec = susp.wallSeconds, susp.costDollars, susp.vmSeconds
		priorRestarts = susp.vmRestarts
		pending = &resizeRequest{fromWorkers: susp.workers, fromAssign: susp.assignment,
			toWorkers: susp.workers, resumeStep: susp.resumeStep, migratedBytes: susp.migratedBytes}
	}

	fabric := cloud.NewFabric()
	vms := fabric.Acquire(s.CostModel.Spec, s.NumWorkers)
	if pending != nil {
		// Bill the resume's read-in phase: the re-acquired VMs stream the
		// suspended state back in before the first superstep runs.
		readSec := s.CostModel.MigrationSeconds(pending.migratedBytes, s.NumWorkers)
		fabric.Advance(readSec)
		js.preemptSeconds += readSec
	}

	// Observability wiring: one instrument bundle per run and the chaos
	// observer turning injected faults into trace events. The per-network
	// transport observer is wired per segment (the network is rebuilt at
	// every resize). All of it degrades to (near) no-ops when Tracer and
	// Metrics are both nil.
	ins := newJobInstruments(s.Tracer, s.Metrics)
	if s.Tracer.Enabled() || s.Metrics.Enabled() {
		s.Chaos.SetObserver(chaosObserver(ins))
	}

	// Chaos wiring: the fault plan reaches every substrate layer — queues
	// (duplicates, early lease expiry), blob store (transient errors),
	// transport (dropped connections, wired per segment), and the VM fabric
	// (scripted restarts, folded into the failure-injector path so they
	// trigger checkpoint rollback exactly like a real fabric restart). The
	// injector closure reads the vms variable, which Run re-points at each
	// resize while no workers are running.
	if s.Chaos != nil {
		s.Queues.SetChaos(s.Chaos)
		if s.CheckpointStore != nil {
			s.CheckpointStore.SetChaos(s.Chaos)
		}
		chaos := s.Chaos
		userInjector := s.FailureInjector
		s.FailureInjector = func(worker, superstep int) error {
			if err := chaos.VMRestartAt(worker, superstep); err != nil {
				if worker >= 0 && worker < len(vms) {
					fabric.RecordRestart(vms[worker])
				}
				return err
			}
			if userInjector != nil {
				return userInjector(worker, superstep)
			}
			return nil
		}
	}
	// Trace every VM loss the engine acts on (chaos-scripted or a test's own
	// injector) as a vm_restart event on the failed worker's track.
	if s.Tracer.Enabled() && s.FailureInjector != nil {
		injector := s.FailureInjector
		tracer := s.Tracer
		s.FailureInjector = func(worker, superstep int) error {
			err := injector(worker, superstep)
			if err != nil {
				tracer.Emit(observe.KindVMRestart, worker, superstep,
					observe.Str("err", err.Error()))
			}
			return err
		}
	}

	start := time.Now()
	jobSpan := s.Tracer.Start(observe.KindJob, observe.ManagerWorker, -1)

	var (
		workers   []*worker[M]
		runErr    error
		suspended *Suspension
	)
	for {
		var resize *resizeRequest
		resize, workers, runErr = runSegment(&s, js, fabric, ins, pending)
		if runErr != nil || resize == nil {
			break
		}
		if resize.suspend {
			// Barrier preemption: the migration blobs are written and the
			// segment is halted. Bill the write-out, release the VMs (below,
			// shared with the normal exit), and package everything a later
			// Run needs to adopt the blobs and continue.
			writeSec := s.CostModel.MigrationSeconds(resize.migratedBytes, resize.fromWorkers)
			fabric.Advance(writeSec)
			js.preemptions++
			js.preemptSeconds += writeSec
			suspended = &Suspension{
				js:            js,
				segment:       s.segment,
				workers:       s.NumWorkers,
				assignment:    s.Assignment,
				resumeStep:    resize.resumeStep,
				migratedBytes: resize.migratedBytes,
				store:         s.CheckpointStore,
			}
			break
		}
		// New layout for the next segment, computed up front so the
		// transition window can be priced on the state that actually
		// changes owners. The previous assignment seeds an incremental
		// repartitioner (retained vertices keep their owner); controllers
		// implementing ReshuffleDecider can force a from-scratch layout
		// for any given event instead.
		resize.traffic = loadResizeTraffic(s.CheckpointStore, s.Retry,
			resize.resumeStep, resize.fromWorkers, s.Graph.NumVertices())
		newAssign, strategy := nextAssignment(&s, js, resize)
		if err := newAssign.Validate(resize.toWorkers); err != nil {
			runErr = fmt.Errorf("core: repartition (%s) for %d workers: %w", strategy, resize.toWorkers, err)
			break
		}
		// Bill the transition window in its two phases: the old layout's
		// VMs pay through the state write-out (overlapped with
		// provisioning on scale-out — the new instances boot while the
		// old workers write, and only bill once ready); the new layout's
		// VMs pay through the read-in. On scale-in the surplus instances
		// release right after writing their state out. Only the state
		// whose owner changes crosses the network: retained partitions
		// stay in their worker's memory (the full blob write is the
		// simulator's migration artifact, not billed traffic).
		moved := movedStateBytes(resize.migratedBytes, resize.migratedPerWorker, s.Assignment, newAssign)
		writeSec, readSec := s.CostModel.ResizePhases(resize.fromWorkers, resize.toWorkers, moved)
		overhead := writeSec + readSec
		fabric.Advance(writeSec)
		if resize.toWorkers > resize.fromWorkers {
			vms = append(vms, fabric.Acquire(s.CostModel.Spec, resize.toWorkers-resize.fromWorkers)...)
		} else {
			for _, vm := range vms[resize.toWorkers:] {
				_ = fabric.Release(vm)
			}
			vms = vms[:resize.toWorkers]
		}
		fabric.Advance(readSec)
		ev := ScaleEvent{
			Superstep:     resize.resumeStep,
			FromWorkers:   resize.fromWorkers,
			ToWorkers:     resize.toWorkers,
			MigratedBytes: moved,
			SimSeconds:    overhead,
			Strategy:      strategy,
			MovedVertices: partition.MovedVertices(s.Assignment, newAssign),
			CutBefore:     partition.CutFraction(s.Graph, s.Assignment),
			CutAfter:      partition.CutFraction(s.Graph, newAssign),
		}
		js.scaleEvents = append(js.scaleEvents, ev)
		ins.movedBytes.Add(moved)
		if s.Tracer.Enabled() {
			s.Tracer.Emit(observe.KindRepartition, observe.ManagerWorker, resize.resumeStep,
				observe.Str("strategy", strategy),
				observe.Int("moved_vertices", int64(ev.MovedVertices)),
				observe.Int("moved_bytes", moved))
		}
		// Switch to the new layout: advance the segment (fresh control
		// queues) and the data-plane epoch (the rebuilt network's streams
		// must never be confusable with the old segment's), and force a
		// fresh checkpoint — the old layout's checkpoints cannot restore
		// into the new partitioning.
		s.NumWorkers = resize.toWorkers
		s.Assignment = newAssign
		s.segment++
		js.epoch++
		js.lastCheckpoint = -1
		js.forceCheckpoint = s.CheckpointEvery > 0
		pending = resize
	}
	for _, vm := range vms {
		_ = fabric.Release(vm)
	}
	if workers == nil {
		return nil, runErr
	}

	result := &JobResult[M]{
		Programs:          make([]VertexProgram[M], len(workers)),
		PartitionPrograms: make([]PartitionProgram[M], len(workers)),
		Owned:             make([][]graph.VertexID, len(workers)),
		Steps:             js.steps,
		WallSeconds:       priorWall + time.Since(start).Seconds(),
		CostDollars:       priorCost + fabric.CostDollars(),
		VMSeconds:         priorVMSec + fabric.VMSeconds(),
		Supersteps:        len(js.steps),
		Recoveries:        js.recoveries,
		ScaleEvents:       js.scaleEvents,
		RecoveryEvents:    js.recoveryEvents,
		Preemptions:       js.preemptions,
		PreemptSeconds:    js.preemptSeconds,
		DuplicatesDropped: js.dupsDropped,
	}
	if suspended != nil {
		// Stamp the cumulative totals at suspension time so the resumed run
		// reports whole-job numbers.
		suspended.wallSeconds = result.WallSeconds
		suspended.costDollars = result.CostDollars
		suspended.vmSeconds = result.VMSeconds
		suspended.vmRestarts = priorRestarts + fabric.Restarts()
		result.Suspended = suspended
	}
	for w := range workers {
		result.Programs[w] = workers[w].program
		result.PartitionPrograms[w] = workers[w].partProg
		if ad, ok := workers[w].partProg.(*vertexAdapter[M]); ok {
			// Adapted vertex programs surface through Programs so the vertex
			// model's result extractors work unchanged under -model subgraph.
			result.Programs[w] = ad.inner
		}
		result.Owned[w] = workers[w].owned
	}
	for i := range js.steps {
		result.SimSeconds += js.steps[i].SimSeconds
		result.Retries += js.steps[i].Retries
		result.DuplicatesDropped += js.steps[i].DuplicatesDropped
	}
	for i := range js.scaleEvents {
		result.SimSeconds += js.scaleEvents[i].SimSeconds
	}
	// Confined recoveries run their replay rounds outside the main superstep
	// loop, so their wall-clock and superstep executions are added here; a
	// global rollback's re-executed supersteps already appear in js.steps.
	for i := range js.recoveryEvents {
		if js.recoveryEvents[i].Confined {
			result.SimSeconds += js.recoveryEvents[i].SimSeconds
			result.Supersteps += js.recoveryEvents[i].ReplaySupersteps
		}
	}
	result.VMRestarts = priorRestarts + fabric.Restarts()
	result.QueueStats = s.Queues.Stats()
	if s.Chaos != nil {
		fs := s.Chaos.Stats()
		result.Faults = &fs
	}
	if jobSpan.Active() {
		jobEnd := []observe.Attr{
			observe.Int("supersteps", int64(result.Supersteps)),
			observe.Int("recoveries", int64(result.Recoveries)),
			observe.Int("retries", result.Retries),
			observe.Int("scale_events", int64(len(result.ScaleEvents))),
			observe.Int("preemptions", int64(result.Preemptions)),
		}
		if suspended != nil {
			jobEnd = append(jobEnd, observe.Str("state", "suspended"))
		}
		if runErr != nil {
			jobEnd = append(jobEnd, observe.Str("err", runErr.Error()))
		}
		jobSpan.End(jobEnd...)
	}
	if runErr != nil {
		return result, runErr
	}
	return result, nil
}

// nextAssignment chooses the layout for a resize's new worker count. With a
// RepartitionerFrom (the default), the previous assignment is adapted in
// place — a delta migration — unless the controller's ReshuffleDecider asks
// for a full reshuffle of this event. The returned strategy name lands in
// the ScaleEvent: "<name>(full)" marks a from-scratch layout.
func nextAssignment[M any](s *JobSpec[M], js *jobState, resize *resizeRequest) (partition.Assignment, string) {
	rf, incremental := s.Repartitioner.(partition.RepartitionerFrom)
	if incremental && len(s.Assignment) == s.Graph.NumVertices() {
		if dec, ok := s.ElasticController.(ReshuffleDecider); !ok ||
			!dec.FullReshuffle(resize.fromWorkers, resize.toWorkers, len(js.scaleEvents)) {
			if a, err := rf.PartitionFrom(s.Graph, s.Assignment, resize.toWorkers, resize.traffic); err == nil {
				return a, rf.Name()
			}
			// A previous-assignment mismatch falls through to a full
			// reshuffle rather than failing a running job.
		}
	}
	return s.Repartitioner.Partition(s.Graph, resize.toWorkers), s.Repartitioner.Name() + "(full)"
}

// runSegment builds the worker set for the spec's current segment
// (assignment, worker count, queue names), optionally adopts migrated
// vertex state from the previous segment, and drives the manager until the
// job ends or the elastic controller requests another resize. It joins all
// worker goroutines before returning; on the job-ending paths it closes the
// control-plane queues first so stuck workers unblock.
func runSegment[M any](s *JobSpec[M], js *jobState, fabric *cloud.Fabric,
	ins *jobInstruments, adopt *resizeRequest) (*resizeRequest, []*worker[M], error) {
	n := s.Graph.NumVertices()
	lay := newLayout(s.Assignment, s.NumWorkers)

	// The data plane: the caller's Network for the initial segment if one
	// was supplied, otherwise (and for every post-resize segment) a fresh
	// build from the factory, owned and closed by this segment.
	network := s.Network
	ownNetwork := false
	if network == nil || s.segment > 0 {
		var err error
		network, err = s.NetworkFactory(s.NumWorkers)
		if err != nil {
			return nil, nil, fmt.Errorf("core: building network for %d workers: %w", s.NumWorkers, err)
		}
		ownNetwork = true
	}
	closeNet := func() {
		if ownNetwork {
			network.Close()
		}
	}
	if network.NumWorkers() < s.NumWorkers {
		closeNet()
		return nil, nil, fmt.Errorf("core: network has %d endpoints, need %d", network.NumWorkers(), s.NumWorkers)
	}
	if s.Tracer.Enabled() || s.Metrics.Enabled() {
		if ob, ok := network.(transport.Observable); ok {
			ob.SetObserver(&transportObserver{ins: ins})
		}
	}
	if s.Chaos != nil {
		if fi, ok := network.(transport.FaultInjectable); ok {
			fi.SetSendFault(s.Chaos.SendFault)
		}
	}
	ins.workersGauge.Set(float64(s.NumWorkers))

	workers := make([]*worker[M], s.NumWorkers)
	for w := 0; w < s.NumWorkers; w++ {
		ep, err := network.Endpoint(w)
		if err != nil {
			closeNet()
			return nil, nil, err
		}
		workers[w] = newWorker(s, w, lay, ep, s.AggregatorOps, ins)
	}
	if (s.CheckpointEvery > 0 || s.ElasticController != nil || s.BarrierPreempt != nil || adopt != nil) &&
		workers[0].state == nil {
		closeNet()
		return nil, nil, fmt.Errorf("core: checkpointing, live resizes and preemption need a program implementing StateCodec; %T does not", workers[0].programAny())
	}
	if adopt != nil {
		// Resumed segment: stamp the new epoch on every worker BEFORE any
		// goroutine can send (receivers drop old-generation batches, and the
		// resumed superstep's tokens must not look like duplicates), then
		// install the migrated state under the new assignment.
		for _, w := range workers {
			w.epoch.Store(int32(js.epoch))
			w.doneThrough = adopt.resumeStep - 1
		}
		if err := adoptMigrations(workers, s.CheckpointStore, s.Retry, adopt.resumeStep, adopt.fromAssign, adopt.fromWorkers); err != nil {
			closeNet()
			return nil, nil, fmt.Errorf("core: adopting migrated state: %w", err)
		}
		// Carry the traffic counters across the resize so the affinity
		// signal accumulates over the whole job instead of restarting from
		// zero in every segment.
		if len(adopt.traffic) == n {
			for _, w := range workers {
				for li, gid := range w.owned {
					w.vertexTraffic[li] = adopt.traffic[gid]
				}
			}
		}
	}

	mgr := &manager[M]{
		spec:     s,
		stepQs:   make([]*cloud.Queue, s.NumWorkers),
		barrierQ: s.Queues.Queue(barrierQueueName(s.segment)),
		fabric:   fabric,
		aggOps:   s.AggregatorOps,
		ins:      ins,
	}
	for w := 0; w < s.NumWorkers; w++ {
		mgr.stepQs[w] = s.Queues.Queue(stepQueueName(s.segment, w))
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker[M]) {
			defer wg.Done()
			w.run()
		}(w)
	}
	resize, runErr := mgr.run(js)
	if resize == nil {
		// Job over (completed or failed): unblock any worker stuck waiting
		// for tokens, then join. On the resize path the manager has already
		// halted every worker and the queues stay open for the next segment.
		s.Queues.CloseAll()
	}
	wg.Wait()
	closeNet()
	return resize, workers, runErr
}

// layout is a segment's vertex placement, shared read-only by all of its
// workers: each worker's owned vertices in ascending global order (the
// local-index order of every per-worker array and of every state blob the
// worker writes) and, for every vertex, its owner and its index in the
// owner's list, side by side so that one lookup touches one cache line.
type layout struct {
	owned [][]graph.VertexID
	place []place
}

type place struct{ worker, li int32 }

func newLayout(a partition.Assignment, workers int) *layout {
	l := &layout{owned: ownedLists(a, workers), place: make([]place, len(a))}
	for w, owned := range l.owned {
		for li, v := range owned {
			l.place[v] = place{int32(w), int32(li)}
		}
	}
	return l
}

// ownedLists splits an assignment into each worker's owned vertices in
// ascending global order.
func ownedLists(a partition.Assignment, workers int) [][]graph.VertexID {
	sizes := make([]int, workers)
	for _, w := range a {
		sizes[w]++
	}
	owned := make([][]graph.VertexID, workers)
	for w := range owned {
		owned[w] = make([]graph.VertexID, 0, sizes[w])
	}
	for v, w := range a {
		owned[w] = append(owned[w], graph.VertexID(v))
	}
	return owned
}
