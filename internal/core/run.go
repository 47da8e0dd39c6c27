package core

import (
	"fmt"
	"math"
	"math/bits"
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
		// repartitioner (retained vertices keep their owner).
		resize.traffic = loadResizeTraffic(s.CheckpointStore, resize.resumeStep,
			resize.fromWorkers, s.Graph.NumVertices())
		newAssign, strategy := nextAssignment(&s, resize)
		err := newAssign.Validate(resize.toWorkers)
		if err == nil {
			err = fitLayout(newAssign, resize.toWorkers)
		}
		if err != nil {
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
		Programs:          make([]any, len(workers)),
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
		result.Programs[w] = workers[w].programAny()
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
// place — a delta migration. The returned strategy name lands in the
// ScaleEvent: "<name>(full)" marks a from-scratch layout.
func nextAssignment[M any](s *JobSpec[M], resize *resizeRequest) (partition.Assignment, string) {
	rf, incremental := s.Repartitioner.(partition.RepartitionerFrom)
	if incremental && len(s.Assignment) == s.Graph.NumVertices() {
		if a, err := rf.PartitionFrom(s.Graph, s.Assignment, resize.toWorkers, resize.traffic); err == nil {
			return a, rf.Name()
		}
		// A previous-assignment mismatch falls through to a full reshuffle
		// rather than failing a running job.
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
	lay := specLayout(s)

	// The data plane: a fresh build from the factory, owned and closed by
	// this segment.
	network, err := s.NetworkFactory(s.NumWorkers)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building network for %d workers: %w", s.NumWorkers, err)
	}
	defer network.Close()
	if network.NumWorkers() < s.NumWorkers {
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
			return nil, nil, err
		}
		workers[w] = newWorker(s, w, lay, ep, ins)
	}
	if (s.CheckpointEvery > 0 || s.ElasticController != nil || s.BarrierPreempt != nil || adopt != nil) &&
		workers[0].state == nil {
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
		if err := adoptMigrations(workers, s.CheckpointStore, adopt.resumeStep, adopt.fromAssign, adopt.fromWorkers); err != nil {
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
	return resize, workers, runErr
}

// layout is a segment's vertex placement, shared read-only by all of its
// workers: each worker's owned vertices in ascending global order (the
// local-index order of every per-worker array and of every state blob the
// worker writes) and, for every vertex, its owner and its index in the
// owner's list packed into one 4-byte place, so the table the send kernel
// scatters through is half the size of an (owner, index) pair per vertex.
// A job without a combiner also gets the mirror spans SendToNeighbors
// sends through (see mirror).
type layout struct {
	owned [][]graph.VertexID
	place []place
	// mirrors[r][s] holds the spans of the vertices worker s owns on
	// worker r; nil with a combiner.
	mirrors [][]mirror
	packing
}

// mirror is the spans of one sender's vertices on one receiver: the span of
// the sender's vertex li is lis[off[li]:off[li+1]], the receiver-local
// indices of the vertex's out-neighbours the receiver owns, in adjacency
// order, duplicates kept. One SendToNeighbors call becomes one span entry
// per worker its vertex has neighbours on, which that worker's merge
// expands into exactly the messages the per-edge sends would have left:
// 4 bytes per arc plus 4 per vertex per worker.
type mirror struct {
	off []int32
	lis []int32
}

// span returns the span of the sender's vertex li.
func (m *mirror) span(li int32) []int32 { return m.lis[m.off[li]:m.off[li+1]] }

// span returns the span of sender send's vertex li on worker recv.
func (l *layout) span(recv, send int, li int32) []int32 { return l.mirrors[recv][send].span(li) }

// place is a vertex's owner and local index, li<<shift | owner. Read it
// only through packing's owner and index.
type place uint32

// packing is a layout's split of a place: the low shift bits hold the
// owner, the rest the local index. The shift is the fewest bits that hold
// every worker id, so a layout indexes partitions of up to 1<<(32-shift)
// vertices, and of no more than 1<<31 (local indices are int32); fitLayout
// rejects any assignment with a larger one.
type packing struct{ shift uint8 }

func packingFor(workers int) packing { return packing{uint8(bits.Len(uint(workers - 1)))} }

func (k packing) owner(p place) int32 { return int32(p & (1<<k.shift - 1)) }

func (k packing) index(p place) int32 { return int32(p >> k.shift) }

// maxPartition is the most vertices one partition of the layout can hold.
func (k packing) maxPartition() int { return 1 << min(32-k.shift, 31) }

// fitLayout reports an error naming the first partition of a that holds
// more vertices than a workers-wide layout can index.
func fitLayout(a partition.Assignment, workers int) error {
	limit := packingFor(workers).maxPartition()
	if len(a) <= limit {
		return nil
	}
	sizes := make([]int, workers)
	for _, w := range a {
		if sizes[w]++; sizes[w] > limit {
			return fmt.Errorf("core: partition %d has more than %d vertices, the most a %d-worker layout can index",
				w, limit, workers)
		}
	}
	return nil
}

// specLayout is the layout of a spec's current segment: mirror spans are
// built for a job without a combiner, over graphs whose arcs an int32
// offset can index and whose vertices leave math.MinInt32 free for a run's
// list entries (listEntry). A job past that sends each SendToNeighbors
// message as Send does.
func specLayout[M any](s *JobSpec[M]) *layout {
	var g *graph.Graph
	if s.Combiner == nil && s.Graph.NumEdges() <= math.MaxInt32 && s.Graph.NumVertices() <= math.MaxInt32 {
		g = s.Graph
	}
	return newLayout(s.Assignment, s.NumWorkers, g)
}

// newLayout places a's vertices on workers workers and, when g is not nil,
// builds g's mirror spans.
func newLayout(a partition.Assignment, workers int, g *graph.Graph) *layout {
	l := &layout{owned: ownedLists(a, workers), place: make([]place, len(a)), packing: packingFor(workers)}
	for w, owned := range l.owned {
		for li, v := range owned {
			l.place[v] = place(li)<<l.shift | place(w)
		}
	}
	if g != nil {
		l.buildMirrors(g)
	}
	return l
}

// buildMirrors fills every (receiver, sender) pair's spans in two passes
// over the arcs: one sizes each pair's index array, one appends each
// vertex's span in local order, adjacency order within it.
func (l *layout) buildMirrors(g *graph.Graph) {
	workers := len(l.owned)
	arcs := make([]int, workers*workers) // [sender*workers + receiver]
	for s, owned := range l.owned {
		for _, u := range owned {
			for _, v := range g.Neighbors(u) {
				arcs[s*workers+int(l.owner(l.place[v]))]++
			}
		}
	}
	l.mirrors = make([][]mirror, workers)
	for r := range l.mirrors {
		l.mirrors[r] = make([]mirror, workers)
		for s := range l.mirrors[r] {
			l.mirrors[r][s] = mirror{off: make([]int32, len(l.owned[s])+1), lis: make([]int32, 0, arcs[s*workers+r])}
		}
	}
	for s, owned := range l.owned {
		for li, u := range owned {
			for _, v := range g.Neighbors(u) {
				p := l.place[v]
				m := &l.mirrors[l.owner(p)][s]
				m.lis = append(m.lis, l.index(p))
			}
			for r := range l.mirrors {
				m := &l.mirrors[r][s]
				m.off[li+1] = int32(len(m.lis))
			}
		}
	}
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
