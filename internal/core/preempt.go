package core

import (
	"pregelnet/internal/cloud"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
)

// Barrier preemption (the multi-tenant job server's scheduling primitive,
// built on the live-resize machinery of the elastic runtime). A preemptible
// job consults JobSpec.BarrierPreempt after every completed superstep
// barrier — the same consistent BSP cut the elastic controller uses — and
// when the hook fires the engine runs the migrate protocol unchanged: every
// worker writes a vertex-granular migration blob of the state it would
// carry into the next superstep, the segment halts, the VMs are released,
// and Run returns a JobResult whose Suspended field holds everything needed
// to continue. Passing that Suspension back via JobSpec.Resume re-acquires
// VMs, adopts the migrated state under a fresh epoch and fresh control
// queues, and resumes at exactly the suspended superstep, so a preempted
// job's computed results are bit-identical to an uninterrupted run.

// Suspension is the opaque resumable state of a preempted job: the manager
// state that survives segment boundaries plus the layout and blob-store
// handle needed to adopt the migration blobs. It is produced by Run when
// JobSpec.BarrierPreempt fires and consumed by a later Run via
// JobSpec.Resume. A Suspension is single-use and not safe for concurrent
// resumes; the caller that keeps the job's JobSpec (same Scheduler,
// ElasticController, and Queues instances) must hand the SAME spec back
// with Resume set.
type Suspension struct {
	js            *jobState
	segment       int
	workers       int
	assignment    partition.Assignment
	resumeStep    int
	migratedBytes int64
	store         *cloud.BlobStore
	// Cumulative billing and timing through the suspension, carried so the
	// final JobResult reports whole-job totals across every run segment.
	wallSeconds float64
	costDollars float64
	vmSeconds   float64
	vmRestarts  int
}

// ResumeSuperstep is the superstep the job will execute next when resumed.
func (s *Suspension) ResumeSuperstep() int { return s.resumeStep }

// Workers is the worker count the job was suspended at (and resumes at).
func (s *Suspension) Workers() int { return s.workers }

// MigratedBytes is the vertex-state volume written out at suspension.
func (s *Suspension) MigratedBytes() int64 { return s.migratedBytes }

// CompletedSupersteps is the number of supersteps committed before the
// suspension.
func (s *Suspension) CompletedSupersteps() int { return len(s.js.steps) }

// maybeSuspend consults the preemption hook with the superstep the job
// would execute next. When the hook fires it writes the state out exactly
// as a live resize does (migrateOut) at the current worker count and hands
// Run a suspend request.
func (m *manager[M]) maybeSuspend(js *jobState) (*resizeRequest, error) {
	// Don't suspend a job that is about to halt: the next loop iteration
	// would finish it for free, and a suspension would strand a completed
	// job in the preempted state.
	if m.spec.BarrierPreempt == nil || m.halting(js.prev) || !m.spec.BarrierPreempt(js.superstep) {
		return nil, nil
	}
	return m.migrateOut(js, observe.KindPreempt, m.ins.preempts, m.spec.NumWorkers, true)
}
