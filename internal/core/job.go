package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// A data batch's payload is its logical size (4 bytes), then records. A
// record is an 8-byte header — 4 bytes vertex, 4 bytes body length, whose
// top two bits flag the record's kind — and the encoded message. A plain
// record is one message to its vertex. A broadcast record, flagged by bit
// 31, is one message from its vertex, a vertex of the sender, to every
// vertex of that vertex's mirror span on the receiver (layout.mirrors). A
// multicast record, flagged by bit 30, is one message to each of a list of
// the receiver's vertices: its vertex field holds the list's length k (1 to
// maxMulticast, as the sender writes it), and the body is followed by the k
// receiver-local indices, 4 bytes each. A body is under 1 GiB.
//
// The logical size is what the cost model bills for the batch: its records'
// bytes as one plain record per message, plus a batch header for every
// batch those records would have opened (staging.bill). It is the measured
// wire for a batch of plain records and, for the batches a slot sends one
// destination in a superstep, sums to what per-message records would have
// put on the wire.
const (
	msgWireOverhead = 8
	logicalSizeLen  = 4
	broadcastFlag   = 1 << 31
	multicastFlag   = 1 << 30
	recordFlags     = broadcastFlag | multicastFlag
	// listIndexLen is the bytes of one receiver-local index a multicast
	// record lists.
	listIndexLen = 4
	// maxMulticast is the most indices one multicast record lists: a longer
	// list travels as several records, so a record and the staging buffer
	// it lands in stay a few KiB past flushBytes (growStaging).
	maxMulticast = 1000
	// maxLogicalSize is the largest logical size the field holds.
	maxLogicalSize = math.MaxUint32
)

func putMsgHeader(hdr []byte, vertex, size uint32) {
	_ = hdr[msgWireOverhead-1]
	binary.LittleEndian.PutUint32(hdr[0:], vertex)
	binary.LittleEndian.PutUint32(hdr[4:], size)
}

func readMsgHeader(data []byte) (vertex graph.VertexID, size int) {
	return graph.VertexID(binary.LittleEndian.Uint32(data[0:])),
		int(binary.LittleEndian.Uint32(data[4:]))
}

// logicalSize reads a data batch payload's logical size.
func logicalSize(payload []byte) int64 {
	return int64(binary.LittleEndian.Uint32(payload))
}

// JobSpec configures a BSP job.
type JobSpec[M any] struct {
	// Graph is the input graph, shared read-only by all workers (each worker
	// loads it from the blob store in the real deployment; here they share
	// the in-memory CSR structure and own disjoint vertex partitions).
	Graph *graph.Graph
	// Assignment maps vertices to workers. Defaults to hash partitioning.
	Assignment partition.Assignment
	// NumWorkers is the number of partition workers.
	NumWorkers int
	// NewProgram creates worker-local vertex-centric program instances.
	// Exactly one of NewProgram and NewPartitionProgram must be set.
	NewProgram func(workerID int, g *graph.Graph, owned []graph.VertexID) VertexProgram[M]
	// NewPartitionProgram creates worker-local subgraph-centric program
	// instances (see PartitionProgram): each worker runs a sequential
	// algorithm over its whole partition to a local fixpoint between
	// barriers, exchanging only boundary messages. Exactly one of NewProgram
	// and NewPartitionProgram must be set.
	NewPartitionProgram func(workerID int, g *graph.Graph, owned []graph.VertexID) PartitionProgram[M]
	// Codec serializes messages.
	Codec Codec[M]
	// Combiner, if non-nil, merges messages addressed to the same vertex
	// (sender side and on delivery).
	Combiner Combiner[M]
	// Scheduler injects swaths of source vertices over time. Nil means no
	// injections (use ActivateAll for algorithms like PageRank).
	Scheduler SwathScheduler
	// ActivateAll starts every vertex active in superstep 0.
	ActivateAll bool
	// CostModel prices resource usage into simulated time. Zero value means
	// cloud.DefaultCostModel(cloud.LargeVM()).
	CostModel cloud.CostModel
	// Queues is the control plane namespace; nil allocates a private one.
	Queues *cloud.QueueService
	// MaxSupersteps aborts runaway jobs (default 100000).
	MaxSupersteps int
	// FlushBytes is the bulk-transfer buffer threshold (default 64 KiB).
	FlushBytes int
	// OutboxDepth bounds each per-destination sender queue, in batches
	// (default 32). Compute goroutines enqueue encoded batches onto these
	// queues and background senders ship them, overlapping compute with
	// communication (the paper's background send threads); a full queue
	// applies backpressure by blocking the enqueueing compute goroutine.
	OutboxDepth int
	// ComputeParallelism overrides the number of compute goroutines per
	// worker (default: the cost model's VM core count).
	ComputeParallelism int
	// CheckpointEvery enables fault recovery: every Nth superstep each
	// worker snapshots its state to the checkpoint store before computing.
	// Requires the program to implement StateCodec. 0 disables. A job fails
	// for good when a fourth recovery would be needed.
	CheckpointEvery int
	// CheckpointStore holds snapshots (nil allocates a private store).
	CheckpointStore *cloud.BlobStore
	// RecoveryMode selects the rollback strategy after a worker failure.
	// RecoverConfined (the default) restores only the failed workers from the
	// last checkpoint and re-executes the lost supersteps while survivors
	// keep their live state and replay logged outbound traffic; RecoverGlobal
	// forces the classic whole-job rollback. Confined recovery falls back to
	// global automatically when it cannot apply (more than half the workers
	// failed, minimum 1; no checkpoint; a survivor's log window insufficient;
	// or a failure during the replay itself).
	RecoveryMode RecoveryMode
	// FailureInjector is a test/chaos hook: if non-nil it is consulted once
	// per worker per superstep (after the superstep's work completes); a
	// non-nil error simulates that worker's VM failing, triggering recovery.
	FailureInjector func(worker, superstep int) error
	// Chaos, when non-nil, injects seeded faults into the whole substrate:
	// transient blob errors, duplicate queue deliveries, early lease
	// expiries, dropped data-plane connections, and scripted VM restarts
	// (see cloud.FaultPlan). The engine's retry and rollback machinery must
	// absorb them all; results are identical to a failure-free run.
	Chaos *cloud.Chaos
	// BarrierTimeout bounds every manager collection of worker check-ins —
	// superstep barriers, restore acks, replay rounds, and migration acks —
	// and how long a worker waits for peer sentinels (default 60s). A worker
	// that misses a barrier deadline is treated as failed (straggler
	// detection) and triggers checkpoint rollback instead of hanging the job;
	// a missed transition deadline fails that transition.
	BarrierTimeout time.Duration
	// Tracer, when non-nil, receives structured trace events from every layer
	// of the run: superstep and barrier spans, swath decisions, checkpoint and
	// restore spans, retries, injected faults, VM restarts, and transport
	// flushes. Attach a flight recorder (observe.NewTraceRecorder) for a
	// bounded always-on black box, or a streaming sink for full traces. Nil
	// disables tracing at (near) zero cost.
	Tracer *observe.Tracer
	// Metrics, when non-nil, receives live counters and histograms (retries,
	// queue wait latency, batches/bytes sent, injected faults) suitable for
	// Prometheus exposition while the job runs. Nil disables collection.
	Metrics *observe.Metrics
	// MasterCompute, if non-nil, runs on the manager after every superstep
	// with the reduced aggregator values (GPS-style global computation). It
	// may mutate the map (values are broadcast to vertices next superstep).
	// Returning ErrHaltJob stops the job cleanly; any other error aborts it.
	MasterCompute func(superstep int, aggs map[string]float64) error
	// ElasticController, when non-nil, enables live elastic scaling: the
	// manager consults it after every superstep barrier with the completed
	// superstep's stats, and a different worker count triggers a resize —
	// vertex state is migrated through the blob store to a re-partitioned
	// layout, the data plane is rebuilt for the new count under a fresh
	// epoch, and the job resumes, with provisioning latency and migration
	// bytes charged to the simulated bill. Requires the program to
	// implement StateCodec. Use elastic.NewLiveController (or the pregel
	// facade) to adapt a scaling policy.
	ElasticController ElasticController
	// NetworkFactory builds the data plane for a given worker count: once
	// per run segment (the initial one, and again after every live resize
	// or resume). The engine owns every network it builds and closes it
	// when the segment ends. Nil defaults to fresh in-process channel
	// networks.
	NetworkFactory func(numWorkers int) (transport.Network, error)
	// Repartitioner chooses vertex placement for the new worker count at
	// each live resize (default partition.NewIncremental()).
	Repartitioner partition.Partitioner
	// BarrierPreempt, when non-nil, makes the job preemptible: the manager
	// consults it after every completed superstep barrier (after the elastic
	// consult) with the superstep the job would execute next. Returning true
	// suspends the job at that BSP cut: every worker writes a state blob to
	// the migrations container (the live-resize protocol), the segment halts,
	// the VMs are released, and Run returns with JobResult.Suspended set.
	// Requires the program to implement StateCodec. The hook is called from the
	// manager goroutine and must not block.
	BarrierPreempt func(nextSuperstep int) bool
	// Resume continues a previously suspended job: pass the Suspension from
	// the prior Run's JobResult, keeping every other field of the spec (the
	// same Scheduler and ElasticController instances in particular) intact.
	// The resumed run re-acquires VMs, adopts the migrated state under a
	// fresh epoch and fresh control queues, and continues at the suspended
	// superstep; computed results are bit-identical to an uninterrupted run.
	Resume *Suspension
	// OnStep, when non-nil, is invoked by the manager after each superstep's
	// barrier commits, with the completed superstep's statistics — the live
	// progress feed the job server streams to clients over SSE. Called from
	// the manager goroutine in superstep order; re-executed supersteps after
	// a global rollback are reported again as they re-commit. Must not block
	// for long (it is on the barrier path).
	OnStep func(stats StepStats)

	// segment is the zero-based resize generation, advanced by Run at each
	// live resize. Each segment gets fresh control queues (see
	// stepQueueName/barrierQueueName) so stale or duplicated tokens from a
	// torn-down segment cannot reach its successor.
	segment int
}

// ErrHaltJob is returned by a MasterCompute hook to stop the job cleanly
// (e.g. a convergence test), mirroring GPS's master-driven termination.
var ErrHaltJob = errors.New("core: job halted by master compute")

// RecoveryMode selects the rollback strategy (see JobSpec.RecoveryMode).
type RecoveryMode string

const (
	// RecoverConfined restores only the failed workers; survivors replay
	// logged traffic (Pregel's confined recovery).
	RecoverConfined RecoveryMode = "confined"
	// RecoverGlobal rolls every worker back to the last checkpoint.
	RecoverGlobal RecoveryMode = "global"
)

// RecoveryEvent records one checkpoint recovery performed during a job.
type RecoveryEvent struct {
	// AtSuperstep is the superstep whose barrier failed.
	AtSuperstep int `json:"atSuperstep"`
	// Checkpoint is the superstep restored from.
	Checkpoint int `json:"checkpoint"`
	// Confined reports whether only the failed workers were restored (true)
	// or the whole job rolled back (false).
	Confined bool `json:"confined"`
	// FailedWorkers lists the workers that were restored (nil when a global
	// rollback had no attributable failed set, e.g. a pricing blowout).
	FailedWorkers []int `json:"failedWorkers,omitempty"`
	// ReplaySupersteps is the number of supersteps re-executed before the
	// failed superstep itself completed (Checkpoint..AtSuperstep-1).
	ReplaySupersteps int `json:"replaySupersteps"`
	// ReplayedMsgs / ReplayedBytes count logged messages survivors re-sent
	// into the recovering workers (confined recovery only).
	ReplayedMsgs  int64 `json:"replayedMsgs"`
	ReplayedBytes int64 `json:"replayedBytes"`
	// SimSeconds is the simulated wall-clock the recovery added to the job.
	SimSeconds float64 `json:"simSeconds"`
	// RecoverySeconds is the duplicated work the recovery billed: the SUM of
	// participating workers' active seconds over the re-executed supersteps
	// (cloud.CostModel.RecoverySeconds). Confined recovery charges only the
	// failed partitions' compute plus replay traffic; a global rollback
	// charges every worker's re-execution — the gap the EXPERIMENTS.md
	// confined-recovery figure measures.
	RecoverySeconds float64 `json:"recoverySeconds"`
}

func (s *JobSpec[M]) withDefaults() (JobSpec[M], error) {
	spec := *s
	if spec.Graph == nil {
		return spec, fmt.Errorf("core: JobSpec.Graph is required")
	}
	if spec.NumWorkers <= 0 {
		return spec, fmt.Errorf("core: NumWorkers must be positive, got %d", spec.NumWorkers)
	}
	if spec.NewProgram == nil && spec.NewPartitionProgram == nil {
		return spec, fmt.Errorf("core: one of JobSpec.NewProgram or JobSpec.NewPartitionProgram is required")
	}
	if spec.NewProgram != nil && spec.NewPartitionProgram != nil {
		return spec, fmt.Errorf("core: JobSpec.NewProgram and NewPartitionProgram are mutually exclusive")
	}
	if spec.Codec == nil {
		return spec, fmt.Errorf("core: JobSpec.Codec is required")
	}
	if spec.Assignment == nil {
		spec.Assignment = partition.Hash{}.Partition(spec.Graph, spec.NumWorkers)
	}
	if len(spec.Assignment) != spec.Graph.NumVertices() {
		return spec, fmt.Errorf("core: assignment covers %d vertices, graph has %d",
			len(spec.Assignment), spec.Graph.NumVertices())
	}
	if err := spec.Assignment.Validate(spec.NumWorkers); err != nil {
		return spec, err
	}
	if err := fitLayout(spec.Assignment, spec.NumWorkers); err != nil {
		return spec, err
	}
	if spec.CostModel.Spec.Cores == 0 {
		spec.CostModel = cloud.DefaultCostModel(cloud.LargeVM())
	}
	if spec.MaxSupersteps <= 0 {
		spec.MaxSupersteps = 100000
	}
	if spec.FlushBytes <= 0 {
		spec.FlushBytes = 64 << 10
	}
	if spec.OutboxDepth <= 0 {
		spec.OutboxDepth = 32
	}
	if spec.ComputeParallelism <= 0 {
		spec.ComputeParallelism = spec.CostModel.Spec.Cores
	}
	if spec.Queues == nil {
		spec.Queues = cloud.NewQueueService()
	}
	if spec.BarrierTimeout <= 0 {
		spec.BarrierTimeout = 60 * time.Second
	}
	// Checkpoints and the migration blobs of resizes and suspensions live in
	// the checkpoint store; a resumed run overrides it with the store its
	// blobs were written to.
	if spec.CheckpointStore == nil && (spec.CheckpointEvery > 0 || spec.ElasticController != nil ||
		spec.BarrierPreempt != nil || spec.Resume != nil) {
		spec.CheckpointStore = cloud.NewBlobStore()
	}
	switch spec.RecoveryMode {
	case "":
		spec.RecoveryMode = RecoverConfined
	case RecoverConfined, RecoverGlobal:
	default:
		return spec, fmt.Errorf("core: unknown RecoveryMode %q (want %q or %q)",
			spec.RecoveryMode, RecoverConfined, RecoverGlobal)
	}
	if spec.ElasticController != nil {
		if spec.Repartitioner == nil {
			// Incremental by default: a resize adapts the current assignment
			// (whatever produced it — METIS, LDG, a caller-supplied layout)
			// and moves only what balance requires. Defaulting to Hash here
			// silently hash-shuffled structure-aware layouts at the first
			// scale event, cutting ≈(k-1)/k of the edges.
			spec.Repartitioner = partition.NewIncremental()
		}
	}
	if spec.NetworkFactory == nil {
		spec.NetworkFactory = func(n int) (transport.Network, error) {
			return transport.NewChannelNetwork(n, 1024), nil
		}
	}
	return spec, nil
}

// StepStats summarizes one completed superstep, combining the barrier
// check-ins of all workers. These are the quantities the paper plots in
// Figs 3, 5, 7, 9-15.
type StepStats struct {
	Superstep int
	// Workers is the worker count that executed this superstep; it changes
	// mid-job under live elastic scaling (JobSpec.ElasticController).
	Workers int
	// ActiveVertices is the number of vertices computed this superstep.
	ActiveVertices int64
	// ActiveAfter is the number of vertices that had not voted to halt by
	// the end of the superstep (used for halt detection; a halted vertex is
	// still recomputed if a message arrives).
	ActiveAfter int64
	// Injected is the number of swath sources injected this superstep.
	Injected int
	// SentLocal/SentRemote count data messages emitted this superstep.
	SentLocal  int64
	SentRemote int64
	// RemoteBytes is the serialized bulk-transfer volume the cost model
	// bills: the batches' logical sizes, what one record per message would
	// have put on the wire.
	RemoteBytes int64
	// PeakMemoryBytes is the largest per-worker memory footprint (message
	// buffers + program state).
	PeakMemoryBytes int64
	// ComputeOps is the total abstract compute operations.
	ComputeOps int64
	// Per-worker breakdowns (index = worker id).
	WorkerSent   []int64 // messages emitted per worker (Figs 10-14)
	WorkerMemory []int64 // peak memory per worker
	WorkerActive []int64 // vertices computed per worker
	// Simulated-time results from the cost model.
	SimSeconds        float64   // full superstep duration (max worker + barrier)
	WorkerSimSeconds  []float64 // each worker's active compute+I/O seconds
	BarrierSimSeconds float64   // barrier overhead component
	// Aggregates holds the reduced aggregator values contributed this step.
	Aggregates map[string]float64
	// Retries counts transient-fault retries (blob, queue, transport)
	// workers performed during this superstep — re-executed work the cloud
	// bills for even though the logical result is unchanged.
	Retries int64
	// DuplicatesDropped counts duplicate or stale control-plane messages
	// (redelivered or late check-ins and acks of any kind) the manager
	// tolerated while collecting this superstep's barrier.
	DuplicatesDropped int64
}

// TotalSent returns local + remote messages emitted in the superstep.
func (s *StepStats) TotalSent() int64 { return s.SentLocal + s.SentRemote }

// Utilization returns the mean fraction of superstep time workers spent
// actively computing/communicating rather than waiting at the barrier
// (the "VM utilization %" of Figs 9 and 12).
func (s *StepStats) Utilization() float64 {
	if s.SimSeconds <= 0 || len(s.WorkerSimSeconds) == 0 {
		return 0
	}
	var sum float64
	for _, w := range s.WorkerSimSeconds {
		sum += w / s.SimSeconds
	}
	return sum / float64(len(s.WorkerSimSeconds))
}

// JobResult is the outcome of a completed job.
type JobResult[M any] struct {
	// Programs are the per-worker vertex-centric program instances, for
	// result extraction. Under the subgraph model it is populated only when
	// the job ran an adapted vertex program (AdaptVertexProgram), in which
	// case it holds the unwrapped inner programs so vertex-centric result
	// extractors keep working unchanged.
	Programs []VertexProgram[M]
	// PartitionPrograms are the per-worker subgraph-centric program
	// instances, aligned with Owned; nil entries under the vertex model.
	PartitionPrograms []PartitionProgram[M]
	// Owned lists each worker's vertices, aligned with Programs.
	Owned [][]graph.VertexID
	// Steps are the per-superstep statistics in order.
	Steps []StepStats
	// SimSeconds is the total simulated runtime (Σ step SimSeconds).
	SimSeconds float64
	// WallSeconds is the real elapsed time of the run.
	WallSeconds float64
	// CostDollars and VMSeconds are the simulated bill for the worker VMs.
	CostDollars float64
	VMSeconds   float64
	// Supersteps is the number of superstep executions, including any
	// re-executed after recoveries.
	Supersteps int
	// Recoveries counts checkpoint recoveries performed (confined or global).
	Recoveries int
	// RecoveryEvents details each recovery in order: whether it was confined
	// to the failed workers or a global rollback, what was replayed, and what
	// it cost. Empty on failure-free runs.
	RecoveryEvents []RecoveryEvent
	// ScaleEvents records live elastic resizes in order (empty without an
	// ElasticController). Their SimSeconds are included in the job's
	// SimSeconds total.
	ScaleEvents []ScaleEvent
	// Suspended is non-nil when the run ended in a barrier preemption
	// (JobSpec.BarrierPreempt) rather than completion: the job's resumable
	// state, to be passed back via JobSpec.Resume. Steps, billing, and
	// timing cover everything executed so far.
	Suspended *Suspension
	// Preemptions counts barrier preemptions across the job's run segments
	// (suspensions survived so far, including the one ending this run).
	Preemptions int
	// PreemptSeconds is the simulated platform overhead of those
	// preemptions: migration write-out at suspend plus read-in at resume.
	// Reported separately from SimSeconds, which stays bit-identical to an
	// uninterrupted run.
	PreemptSeconds float64
	// Retries is the total transient-fault retries across all supersteps.
	Retries int64
	// DuplicatesDropped is the total duplicate/stale control-plane messages
	// tolerated by the manager: every barrier's StepStats.DuplicatesDropped
	// plus those dropped while collecting restore, replay, and migration
	// acks.
	DuplicatesDropped int64
	// VMRestarts counts fabric-initiated VM restarts during the job.
	VMRestarts int
	// Faults reports the faults injected by JobSpec.Chaos, if set.
	Faults *cloud.FaultStats
	// QueueStats snapshots every control-plane queue (depth, lifetime puts
	// and gets, visibility-timeout redeliveries) at job completion, keyed by
	// queue name.
	QueueStats map[string]cloud.QueueStats
}

// TotalMessages returns the total data messages exchanged over the job.
func (r *JobResult[M]) TotalMessages() int64 {
	var t int64
	for i := range r.Steps {
		t += r.Steps[i].TotalSent()
	}
	return t
}

// PeakMemory returns the largest per-worker memory footprint seen in any
// superstep.
func (r *JobResult[M]) PeakMemory() int64 {
	var peak int64
	for i := range r.Steps {
		if r.Steps[i].PeakMemoryBytes > peak {
			peak = r.Steps[i].PeakMemoryBytes
		}
	}
	return peak
}
