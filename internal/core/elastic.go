package core

import (
	"fmt"

	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
)

// Live elastic scaling (paper §VIII made operational). The offline analysis
// in internal/elastic extrapolates scaling policies over recorded profiles;
// the machinery here lets a policy act while the job runs: at each barrier
// the manager consults an ElasticController with the just-completed
// superstep's stats, and when the controller asks for a different worker
// count the engine migrates vertex state through the blob store, rebuilds
// the data plane for the new count under a fresh epoch, and resumes the
// job exactly where it left off. Each stretch of supersteps executed at one
// worker count is a "segment"; segments get their own control queues so
// stale (possibly duplicated) tokens from a torn-down segment can never
// reach its successor.

// ElasticController decides the worker count for the next superstep. It is
// consulted by the manager after every completed barrier — never while a
// superstep is in flight, so a resize always happens at a consistent BSP
// cut. Returning the current count (or any value the engine clamps back to
// it) keeps the deployment unchanged. Implementations may keep state; the
// manager calls Workers from a single goroutine.
//
// Live scaling requires the program to implement StateCodec.
type ElasticController interface {
	Workers(prev *StepStats, current int) int
}

// ElasticControllerFunc adapts a function to the ElasticController
// interface.
type ElasticControllerFunc func(prev *StepStats, current int) int

// Workers implements ElasticController.
func (f ElasticControllerFunc) Workers(prev *StepStats, current int) int {
	return f(prev, current)
}

// ScaleEvent records one live resize performed at a superstep barrier.
type ScaleEvent struct {
	// Superstep is the first superstep executed at the new worker count.
	Superstep   int `json:"superstep"`
	FromWorkers int `json:"fromWorkers"`
	ToWorkers   int `json:"toWorkers"`
	// MigratedBytes is the vertex-state volume that changed owners in the
	// resize — the share of the snapshot that crossed the network rather
	// than restoring from a surviving worker's memory.
	MigratedBytes int64 `json:"migratedBytes"`
	// SimSeconds is the simulated resize overhead added to the job's wall
	// clock: state write-out (overlapped with provisioning latency on
	// scale-out) plus read-in on the new layout.
	SimSeconds float64 `json:"simSeconds"`
	// Strategy names the repartitioner that produced the new layout
	// ("incremental", or "<name>(full)" for a from-scratch reshuffle), so a
	// silent fallback to a structure-blind layout is visible in summaries.
	Strategy string `json:"strategy,omitempty"`
	// MovedVertices counts the vertices whose owner changed.
	MovedVertices int `json:"movedVertices,omitempty"`
	// CutBefore / CutAfter are the edge-cut fractions of the old and new
	// assignments — the partition-quality cost (or recovery) of this resize.
	CutBefore float64 `json:"cutBefore,omitempty"`
	CutAfter  float64 `json:"cutAfter,omitempty"`
}

// resizeRequest is the manager's instruction to Run: the migration blobs
// for resumeStep are written, the old workers have been halted, tear the
// segment down and start the next one at toWorkers.
type resizeRequest struct {
	fromWorkers int
	// fromAssign is the layout that wrote the migration blobs: each old
	// worker's blob holds its owned vertices in ascending global order.
	fromAssign    partition.Assignment
	toWorkers     int
	resumeStep    int
	migratedBytes int64
	// migratedPerWorker holds each old worker's migration-blob size, so the
	// billed cross-owner share can be priced per partition instead of
	// assuming uniform per-vertex state size.
	migratedPerWorker []int64
	// traffic is the per-vertex received-message counts loaded from the old
	// segment's traffic blobs: the affinity signal for incremental
	// repartitioning, and the seed for the next segment's counters.
	traffic []int64
	// suspend marks a barrier preemption rather than a resize: the migration
	// blobs are written and the segment is halted, but instead of rebuilding
	// the workers Run releases the VMs and returns a Suspension for a later
	// resume (JobSpec.BarrierPreempt / JobSpec.Resume).
	suspend bool
}

// jobState is the manager state that survives segment boundaries: the
// superstep cursor, the scheduler replay logs, checkpoint bookkeeping, and
// the accumulated timeline. One jobState spans the whole job; each segment
// gets a fresh manager (new queues, new worker count) that resumes from it.
type jobState struct {
	steps []StepStats
	// recoveries counts checkpoint rollbacks (bounded by maxRecoveries).
	recoveries int
	// dupsDropped counts at-least-once leftovers the restore, migration and
	// replay collections dropped; barrier drops live in StepStats.
	dupsDropped int64
	// epoch is the data-plane generation stamped on outgoing batches. It is
	// bumped by every rollback AND every live resize, so receivers in the
	// new generation drop anything stamped in an old one. Strictly
	// monotonic; never reused.
	epoch int
	// superstep is the next superstep to execute.
	superstep int
	prev      *StepStats
	prevAggs  map[string]float64
	// Scheduler replay logs: the scheduler is consulted exactly once per
	// superstep number; rollback replay and post-resize segments reuse the
	// recorded decisions so scheduler state stays consistent.
	injectionLog     map[int][]graph.VertexID
	aggLog           map[int]map[string]float64
	statsBySuperstep map[int]StepStats
	scheduledThrough int
	lastCheckpoint   int
	// forceCheckpoint makes the next superstep checkpoint regardless of the
	// CheckpointEvery phase. Set after a resize: checkpoints taken under the
	// old partition layout are useless to the new workers, so the resumed
	// segment must establish a fresh recovery point immediately.
	forceCheckpoint bool
	scaleEvents     []ScaleEvent
	// recoveryEvents records every recovery (confined or global) in order.
	// Indices in openRecoveries mark global rollbacks still re-executing:
	// the main loop accrues each re-executed superstep's cost into them
	// until the superstep cursor passes the failure point again.
	recoveryEvents []RecoveryEvent
	openRecoveries []int
	// preemptions / preemptSeconds account barrier preemptions across the
	// job's run segments: how many times it was suspended and the simulated
	// state write-out + read-in overhead the platform charged for them. The
	// overhead is reported separately from the job's own SimSeconds so a
	// preempted job's per-superstep timeline stays bit-identical to an
	// uninterrupted run.
	preemptions    int
	preemptSeconds float64
	// ckptGens tracks checkpoint generations whose blobs may exist in the
	// store (committed or attempted); committing a new generation deletes
	// every superseded one. A generation is (superstep, worker count) — the
	// count can differ across elastic segments.
	ckptGens []ckptGen
}

// ckptGen identifies one checkpoint generation's blob set.
type ckptGen struct {
	step    int
	workers int
}

func newJobState() *jobState {
	return &jobState{
		prevAggs:         map[string]float64{},
		injectionLog:     make(map[int][]graph.VertexID),
		aggLog:           make(map[int]map[string]float64),
		statsBySuperstep: make(map[int]StepStats),
		scheduledThrough: -1,
		lastCheckpoint:   -1,
	}
}

// stepQueueName names worker w's control queue in the given segment.
// Segment 0 keeps the historical name so single-segment jobs (no elastic
// controller) are wire-compatible with earlier releases and their tests.
func stepQueueName(segment, worker int) string {
	if segment == 0 {
		return fmt.Sprintf("step-%d", worker)
	}
	return fmt.Sprintf("step-g%d-%d", segment, worker)
}

// barrierQueueName names the barrier queue in the given segment. Fresh
// per segment so straggler check-ins, duplicated halt-era acks, and other
// at-least-once leftovers from a torn-down segment cannot poison the next
// one's barrier accounting.
func barrierQueueName(segment int) string {
	if segment == 0 {
		return "barrier"
	}
	return fmt.Sprintf("barrier-g%d", segment)
}

// clampWorkerTarget bounds a controller's output to a usable deployment:
// at least one worker, and never more workers than vertices.
func clampWorkerTarget(target, numVertices int) int {
	if target < 1 {
		target = 1
	}
	if numVertices > 0 && target > numVertices {
		target = numVertices
	}
	return target
}

// movedStateBytes computes the share of a resize's migrated vertex state
// that actually changes owners between the old and new assignments.
// Vertices retained by a surviving worker restore from its local memory;
// only the cross-owner share streams over the network and is billed.
//
// perWorker holds each old worker's actual migration-blob size from the
// resize window: partition w's moved share is priced at its own measured
// per-vertex rate perWorker[w]/|w|, so a partition holding heavyweight state
// (long adjacency-derived snapshots, deep per-root maps) bills more per moved
// vertex than a lightweight one. With no usable per-worker sizes the job-wide
// uniform estimate total·moved/n is used instead.
func movedStateBytes(total int64, perWorker []int64, oldA, newA partition.Assignment) int64 {
	n := len(oldA)
	if n == 0 || len(newA) != n {
		return total
	}
	moved := 0
	for v := 0; v < n; v++ {
		if oldA[v] != newA[v] {
			moved++
		}
	}
	k := len(perWorker)
	if k > 0 {
		counts := make([]int64, k)
		movedIn := make([]int64, k)
		usable := true
		for v := 0; v < n; v++ {
			w := int(oldA[v])
			if w < 0 || w >= k {
				usable = false
				break
			}
			counts[w]++
			if oldA[v] != newA[v] {
				movedIn[w]++
			}
		}
		if usable {
			var bytes int64
			for w := 0; w < k; w++ {
				if counts[w] > 0 {
					bytes += perWorker[w] * movedIn[w] / counts[w]
				}
			}
			return bytes
		}
	}
	return total * int64(moved) / int64(n)
}
