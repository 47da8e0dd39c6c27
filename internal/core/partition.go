package core

import (
	"math/bits"

	"pregelnet/internal/graph"
)

// Subgraph-centric (partition-centric) programming model. Instead of one
// Compute call per active vertex per superstep, a PartitionProgram receives
// the worker's whole partition view once per superstep and runs a sequential
// algorithm over it to a local fixpoint before the barrier — the
// GoFFish/Giraph++ model. Only messages addressed to vertices on *other*
// workers cross the data plane, so traversal algorithms (BFS, SSSP, WCC, the
// BC sweeps) converge in roughly the partition-hop diameter of the graph
// instead of its vertex-hop diameter: order-of-magnitude superstep and
// message reductions on well-clustered (multilevel) partitions.
//
// Both models run behind the same engine: the data plane, combiners,
// aggregators, halt detection, checkpointing, confined recovery, elastic
// migration, and barrier preemption are shared. A JobSpec selects the model
// by setting exactly one of NewProgram (vertex-centric) or
// NewPartitionProgram (subgraph-centric).

// PartitionProgram is the subgraph-centric user algorithm. One instance is
// created per worker (via JobSpec.NewPartitionProgram); ComputePartition is
// called exactly once per superstep, single-threaded, with the partition
// view. The engine does not interpose between local vertices: the program
// reads inbound boundary messages, updates its own per-vertex state to a
// local fixpoint, and emits messages (normally only to remote vertices)
// through the context.
//
// Halt contract: per-vertex halted flags persist across supersteps and are
// mutated only through VoteToHalt/Activate/VoteAllToHalt. A vertex with
// pending messages or a scheduler injection is computed (listed in Active)
// regardless of its flag, exactly as in the vertex-centric model. The job
// halts when no vertex is active anywhere and no messages are in flight.
//
// Recovery contract: a PartitionProgram must keep NO mutable partition-level
// state that spans supersteps outside its per-vertex records — control state
// such as a phase machine must be derived each superstep from aggregator
// values (Agg), which the manager logs and replays on rollback, resume, and
// preemption. Per-vertex state is saved and reloaded through StateCodec
// exactly as in the vertex model, so suspended partition-local state
// checkpoints and restores bit-identically.
type PartitionProgram[M any] interface {
	ComputePartition(pc *PartitionContext[M])
}

// PartitionContext is the engine-facing API available to ComputePartition.
// It is owned by the worker and reused across supersteps; programs must not
// retain it (or any Messages slice) after ComputePartition returns.
type PartitionContext[M any] struct {
	w      *worker[M]
	ctx    *Context[M] // slot-0 context: send staging, counters, aggregators
	active []int32
}

// Superstep returns the current superstep number (0-based).
func (pc *PartitionContext[M]) Superstep() int { return pc.ctx.superstep }

// WorkerID returns the executing worker's id.
func (pc *PartitionContext[M]) WorkerID() int { return pc.w.id }

// NumWorkers returns the number of partition workers in the job.
func (pc *PartitionContext[M]) NumWorkers() int { return pc.w.numWorkers }

// NumVertices returns the number of vertices in the whole graph.
func (pc *PartitionContext[M]) NumVertices() int { return pc.w.g.NumVertices() }

// NumLocal returns the number of vertices this worker owns.
func (pc *PartitionContext[M]) NumLocal() int { return len(pc.w.owned) }

// VertexAt returns the global id of the local vertex at dense index li.
func (pc *PartitionContext[M]) VertexAt(li int32) graph.VertexID { return pc.w.owned[li] }

// LocalIndex returns v's dense index within this worker's owned-vertex list,
// or -1 when v belongs to another partition.
func (pc *PartitionContext[M]) LocalIndex(v graph.VertexID) int32 {
	lay := pc.w.lay
	if p := lay.place[v]; int(lay.owner(p)) == pc.w.id {
		return lay.index(p)
	}
	return -1
}

// IsLocal reports whether v belongs to this worker's partition.
func (pc *PartitionContext[M]) IsLocal(v graph.VertexID) bool { return pc.Owner(v) == pc.w.id }

// Owner returns the worker that owns v under the current assignment.
func (pc *PartitionContext[M]) Owner(v graph.VertexID) int {
	lay := pc.w.lay
	return int(lay.owner(lay.place[v]))
}

// Neighbors returns the out-neighbors of v (local or remote). The slice
// aliases graph storage and must not be modified.
func (pc *PartitionContext[M]) Neighbors(v graph.VertexID) []graph.VertexID {
	return pc.w.g.Neighbors(v)
}

// OutDegree returns the out-degree of v.
func (pc *PartitionContext[M]) OutDegree(v graph.VertexID) int { return pc.w.g.OutDegree(v) }

// Active returns the local indices computed this superstep: vertices with
// pending messages, vertices that have not voted to halt, and scheduler
// injections. The slice is engine-owned and valid only during the call.
func (pc *PartitionContext[M]) Active() []int32 { return pc.active }

// Injected reports whether the local vertex li was activated by the swath
// scheduler in this superstep.
func (pc *PartitionContext[M]) Injected(li int32) bool { return pc.w.injectedThisStep(li) }

// Messages returns the inbound boundary messages delivered to local vertex
// li for this superstep (nil when none; with a combiner, at most one merged
// message). The slice is engine-owned: the barrier merge reuses it after
// ComputePartition returns, so it must not be retained.
func (pc *PartitionContext[M]) Messages(li int32) []M { return pc.w.in.msgs(li) }

// Send delivers m to vertex `to` at the beginning of the next superstep,
// routed exactly as in the vertex model: remote destinations are combined
// (when a Combiner is configured), serialized, and batched onto the async
// data plane; a local destination lands in the vertex's own next-superstep
// inbox (rarely useful — partition programs normally update local state
// directly inside their fixpoint loop instead).
func (pc *PartitionContext[M]) Send(to graph.VertexID, m M) { pc.ctx.Send(to, m) }

// VoteToHalt marks local vertex li inactive. It will not be computed again
// until a message arrives or the scheduler injects it.
func (pc *PartitionContext[M]) VoteToHalt(li int32) { pc.w.halted[li] = true }

// Activate marks local vertex li active for the next superstep even without
// inbound messages — how a partition program keeps a sentinel vertex alive
// across message-free phase-transition supersteps (e.g. BC waiting on a
// global convergence aggregate).
func (pc *PartitionContext[M]) Activate(li int32) {
	pc.w.halted[li] = false
	pc.w.wakeNext.set(li)
}

// VoteAllToHalt marks every local vertex inactive: the normal epilogue of a
// subgraph superstep, after which only inbound messages (or injections)
// reactivate the partition.
func (pc *PartitionContext[M]) VoteAllToHalt() {
	// A vertex not halted now was either active this superstep (every
	// !halted vertex is) or Activated during it, which woke it.
	halted := pc.w.halted
	for _, li := range pc.active {
		halted[li] = true
	}
	pc.w.wakeNext.eachWord(func(wi int, x uint64) {
		for ; x != 0; x &= x - 1 {
			halted[wi<<6+bits.TrailingZeros64(x)] = true
		}
	})
}

// AddComputeOps adds n abstract compute operations to the superstep's count,
// the unit the cost model prices. Partition programs call it with their
// local-fixpoint work (edge relaxations, contribution updates); the engine
// itself accounts one op per active vertex plus one per inbound message.
func (pc *PartitionContext[M]) AddComputeOps(n int64) { pc.ctx.computeOps += n }

// Aggregate contributes a value to the named aggregator. The reduced global
// value is visible to all workers in the *next* superstep via Agg.
func (pc *PartitionContext[M]) Aggregate(name string, v float64) { pc.ctx.Aggregate(name, v) }

// Agg returns the globally reduced value of the named aggregator from the
// previous superstep, and whether any worker contributed to it. The manager
// logs and replays these values across rollbacks, live resizes, and
// suspensions, which is what lets a partition program derive its control
// state (phase machines and the like) from aggregates instead of keeping
// partition-level mutable state that a restore would lose.
func (pc *PartitionContext[M]) Agg(name string) (float64, bool) { return pc.ctx.Agg(name) }

// vertexAdapter runs an unmodified VertexProgram under the partition-centric
// execution path: one sequential sweep over the active set per superstep,
// with identical Compute semantics (messages, injection, halt votes). It
// exists so every vertex-centric algorithm can run under -model subgraph
// unchanged — proving both models share one engine — at the cost of the
// vertex model's parallelism, not its results.
type vertexAdapter[M any] struct {
	inner VertexProgram[M]
}

// AdaptVertexProgram wraps a vertex-centric program for the subgraph-centric
// execution path. Results are identical to running the program under
// JobSpec.NewProgram; checkpointing, migration, and state reporting are
// served by the wrapped program directly.
func AdaptVertexProgram[M any](inner VertexProgram[M]) PartitionProgram[M] {
	return &vertexAdapter[M]{inner: inner}
}

// ComputePartition implements PartitionProgram.
func (a *vertexAdapter[M]) ComputePartition(pc *PartitionContext[M]) {
	ctx, w := pc.ctx, pc.w
	for _, li := range pc.active {
		msgs := pc.Messages(li)
		ctx.vertex = w.owned[li]
		ctx.local = li
		ctx.injected = w.injectedThisStep(li)
		ctx.halted = false
		ctx.computeOps += int64(len(msgs))
		a.inner.Compute(ctx, msgs)
		w.halted[li] = ctx.halted
	}
}

// UseVertexAdapter rewrites a vertex-centric spec in place to run its
// program under the subgraph-centric execution path via AdaptVertexProgram.
// The job's results are unchanged; only the execution model differs.
func UseVertexAdapter[M any](spec *JobSpec[M]) {
	newProgram := spec.NewProgram
	if newProgram == nil {
		return
	}
	spec.NewProgram = nil
	spec.NewPartitionProgram = func(workerID int, g *graph.Graph, owned []graph.VertexID) PartitionProgram[M] {
		return AdaptVertexProgram(newProgram(workerID, g, owned))
	}
}

// computePartition is the subgraph-centric compute phase: one single-threaded
// ComputePartition call over the whole partition, then the same flush/merge
// epilogue as the per-slot vertex path. The engine accounts one compute op
// per active vertex; the program adds its own fixpoint work.
func (w *worker[M]) computePartition(active []int32) {
	ctx := w.slotContext(0)
	pc := &PartitionContext[M]{w: w, ctx: ctx, active: active}
	ctx.computeOps += int64(len(active))
	w.partProg.ComputePartition(pc)
	// Active vertices the program left running wake for the next superstep;
	// the rest of the partition was halted coming in and only Activate,
	// which wakes, can change that.
	for _, li := range active {
		if !w.halted[li] {
			w.wakeNext.set(li)
		}
	}
	w.finishSlot(ctx)
}

// programAny returns the user program powering this worker under either
// model, unwrapping the vertex adapter so capability checks and result
// extraction see the real program.
func (w *worker[M]) programAny() any {
	if w.partProg != nil {
		if ad, ok := w.partProg.(*vertexAdapter[M]); ok {
			return ad.inner
		}
		return w.partProg
	}
	return w.program
}

// programStateBytes returns the program's reported state footprint for
// memory accounting, under either model.
func (w *worker[M]) programStateBytes() int64 {
	if sr, ok := w.programAny().(StateReporter); ok {
		return sr.StateBytes()
	}
	return 0
}
