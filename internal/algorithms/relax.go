package algorithms

import (
	"encoding/binary"
	"math"
	"unsafe"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// Min-label relaxation: hop-count SSSP, weakly connected components and
// weighted SSSP are one algorithm. Every vertex starts unreached, lowers its
// value to the least of its seed and the offers it receives, and when that
// improves it offers value + cost to every out-neighbor. The three jobs vary
// only in the value (uint32 with MaxUint32 unreached, or float64 with +Inf),
// the arc cost (1 per hop, 0 for a label, or the arc's weight) and the seed
// (0 at the injected source, or each vertex's own id at superstep 0).
//
// One relaxProgram runs all three under both models. Compute is the vertex
// step; ComputePartition runs the relaxation to a FIFO fixpoint over the
// partition's own arcs, then offers each improved vertex's value across its
// boundary arcs. The fixpoint of a min relaxation does not depend on the
// order of relaxation (integer sums, or per-path left-associated float sums
// reduced by exact min), so both models give the same bits.

// relaxProgram is the min-relaxation program under either model.
type relaxProgram[T uint32 | float64] struct {
	wg      *graph.Weighted // arc weights; nil when every arc costs step
	step    T
	ownID   bool    // seed each vertex's own id at superstep 0, not 0 at the injected source
	val     []T     // per local vertex
	queue   []int32 // subgraph worklist scratch, reused across supersteps
	changed sparseMark
}

// relaxJob builds the job that runs the relaxation on g under the vertex
// model, or the subgraph model when subgraph is set. Arcs cost wg's weights,
// or step without wg. With src the job injects src and seeds it 0; without,
// every vertex starts active and seeds its own id.
func relaxJob[T uint32 | float64](g *graph.Graph, workers int, wg *graph.Weighted, step T, src []graph.VertexID, subgraph bool) core.JobSpec[T] {
	spec := core.JobSpec[T]{Graph: g, NumWorkers: workers, ActivateAll: src == nil}
	if src != nil {
		spec.Scheduler = core.NewAllAtOnce(src)
	}
	switch s := any(&spec).(type) {
	case *core.JobSpec[uint32]:
		s.Codec, s.Combiner = core.Uint32Codec{}, core.MinUint32Combiner{}
	case *core.JobSpec[float64]:
		s.Codec, s.Combiner = WSSSPCodec{}, MinFloat64Combiner{}
	}
	ownID := src == nil
	if subgraph {
		spec.NewPartitionProgram = func(_ int, _ *graph.Graph, owned []graph.VertexID) core.PartitionProgram[T] {
			p := newRelax(wg, step, ownID, len(owned))
			p.changed.init(len(owned))
			return p
		}
	} else {
		spec.NewProgram = func(_ int, _ *graph.Graph, owned []graph.VertexID) core.VertexProgram[T] {
			return newRelax(wg, step, ownID, len(owned))
		}
	}
	return spec
}

// newRelax returns a program for n local vertices, every one unreached:
// MaxUint32, or +Inf.
func newRelax[T uint32 | float64](wg *graph.Weighted, step T, ownID bool, n int) *relaxProgram[T] {
	unreached := T(math.MaxUint32)
	if _, ok := any(step).(float64); ok {
		unreached = T(math.Inf(1))
	}
	p := &relaxProgram[T]{wg: wg, step: step, ownID: ownID, val: make([]T, n)}
	for i := range p.val {
		p.val[i] = unreached
	}
	return p
}

// SSSP builds a single-source shortest-path job from src (unweighted,
// hop-count distances) using a min combiner.
func SSSP(g *graph.Graph, workers int, src graph.VertexID) core.JobSpec[uint32] {
	return relaxJob[uint32](g, workers, nil, 1, []graph.VertexID{src}, false)
}

// SSSPSubgraph builds the subgraph-centric single-source shortest-path job
// from src. Results are bit-identical to SSSP.
func SSSPSubgraph(g *graph.Graph, workers int, src graph.VertexID) core.JobSpec[uint32] {
	return relaxJob[uint32](g, workers, nil, 1, []graph.VertexID{src}, true)
}

// WCC builds a weakly-connected-components job: every vertex floods the
// minimum vertex id it has seen; at convergence each component is labeled by
// its smallest member.
func WCC(g *graph.Graph, workers int) core.JobSpec[uint32] {
	return relaxJob[uint32](g, workers, nil, 0, nil, false)
}

// WCCSubgraph builds the subgraph-centric connected-components job. Results
// are bit-identical to WCC (labels propagate along out-edges in both).
func WCCSubgraph(g *graph.Graph, workers int) core.JobSpec[uint32] {
	return relaxJob[uint32](g, workers, nil, 0, nil, true)
}

// WeightedSSSP builds the weighted shortest-path job from src: Bellman-Ford
// in BSP form, the canonical Pregel example program.
func WeightedSSSP(wg *graph.Weighted, workers int, src graph.VertexID) core.JobSpec[float64] {
	return relaxJob[float64](wg.Graph, workers, wg, 0, []graph.VertexID{src}, false)
}

// WeightedSSSPSubgraph builds the subgraph-centric weighted shortest-path
// job from src. Results are bit-identical to WeightedSSSP.
func WeightedSSSPSubgraph(wg *graph.Weighted, workers int, src graph.VertexID) core.JobSpec[float64] {
	return relaxJob[float64](wg.Graph, workers, wg, 0, []graph.VertexID{src}, true)
}

// seed lowers best to vertex v's seed, if it has one this superstep.
func (p *relaxProgram[T]) seed(best T, superstep int, injected bool, v graph.VertexID) T {
	if p.ownID {
		if superstep == 0 {
			return min(best, T(v))
		}
	} else if injected {
		return 0
	}
	return best
}

// Compute implements core.VertexProgram.
func (p *relaxProgram[T]) Compute(ctx *core.Context[T], msgs []T) {
	li := ctx.LocalIndex()
	best := p.seed(p.val[li], ctx.Superstep(), ctx.IsInjected(), ctx.Vertex())
	for _, m := range msgs {
		if m < best {
			best = m
		}
	}
	if best < p.val[li] {
		p.val[li] = best
		if p.wg == nil {
			ctx.SendToNeighbors(best + p.step)
		} else {
			wts := p.wg.EdgeWeights(ctx.Vertex())
			for i, u := range ctx.Neighbors() {
				ctx.Send(u, best+T(wts[i]))
			}
		}
	}
	ctx.VoteToHalt()
}

// ComputePartition implements core.PartitionProgram. The arc kind is
// chosen once per vertex, outside the per-arc loops.
func (p *relaxProgram[T]) ComputePartition(pc *core.PartitionContext[T]) {
	work := p.queue[:0]
	p.changed.reset()
	for _, li := range pc.Active() {
		best := p.seed(p.val[li], pc.Superstep(), pc.Injected(li), pc.VertexAt(li))
		for _, m := range pc.Messages(li) {
			if m < best {
				best = m
			}
		}
		work = p.lower(work, li, best)
	}
	// Local fixpoint over the partition's own arcs. FIFO consumption keeps
	// hop counts in level order (LIFO re-settles vertices many times on
	// large connected partitions).
	var ops int64
	for head := 0; head < len(work); head++ {
		li := work[head]
		v := pc.VertexAt(li)
		nbrs := pc.Neighbors(v)
		ops += int64(len(nbrs))
		if p.wg == nil {
			d := p.val[li] + p.step
			for _, u := range nbrs {
				if lu := pc.LocalIndex(u); lu >= 0 {
					work = p.lower(work, lu, d)
				}
			}
		} else {
			d, wts := p.val[li], p.wg.EdgeWeights(v)
			for i, u := range nbrs {
				if lu := pc.LocalIndex(u); lu >= 0 {
					work = p.lower(work, lu, d+T(wts[i]))
				}
			}
		}
	}
	// Boundary push: every improved vertex offers its converged value to its
	// remote out-neighbors; the min combiner collapses per destination.
	for _, li := range p.changed.list {
		v := pc.VertexAt(li)
		nbrs := pc.Neighbors(v)
		if p.wg == nil {
			d := p.val[li] + p.step
			for _, u := range nbrs {
				if !pc.IsLocal(u) {
					pc.Send(u, d)
				}
			}
		} else {
			d, wts := p.val[li], p.wg.EdgeWeights(v)
			for i, u := range nbrs {
				if !pc.IsLocal(u) {
					pc.Send(u, d+T(wts[i]))
				}
			}
		}
	}
	p.queue = work
	pc.AddComputeOps(ops)
	pc.VoteAllToHalt()
}

// lower sets local vertex li to d when d improves it, and queues li.
func (p *relaxProgram[T]) lower(work []int32, li int32, d T) []int32 {
	if d < p.val[li] {
		p.val[li] = d
		p.changed.mark(li)
		work = append(work, li)
	}
	return work
}

// StateBytes implements core.StateReporter.
func (p *relaxProgram[T]) StateBytes() int64 { return int64(unsafe.Sizeof(p.step)) * int64(len(p.val)) }

// AppendVertex implements core.StateCodec: the value in one u64 slot, a
// uint32 widened (unreached writes 0xFFFFFFFF) and a float64 by its bits.
func (p *relaxProgram[T]) AppendVertex(dst []byte, li int32) []byte {
	if val, ok := any(p.val).([]float64); ok {
		return appendF64(dst, val[li])
	}
	return appendU64(dst, uint64(p.val[li]))
}

// ReadVertex implements core.StateCodec.
func (p *relaxProgram[T]) ReadVertex(li int32, src []byte) (int, error) {
	if val, ok := any(p.val).([]float64); ok {
		return readField(&val[li], src, (*stateReader).f64)
	}
	return readField(&any(p.val).([]uint32)[li], src, (*stateReader).u32)
}

// relaxValues is the gatherer column of a relaxation job.
func relaxValues[T uint32 | float64](p *relaxProgram[T]) []T { return p.val }

// SSSPDistances extracts hop distances (-1 = unreachable) under either model.
func SSSPDistances(res *core.JobResult[uint32], n int) []int32 {
	return gather[int32](res, n, relaxValues[uint32])
}

// WCCLabels extracts component labels (the minimum vertex id per component)
// under either model.
func WCCLabels(res *core.JobResult[uint32], n int) []int32 {
	return gather[int32](res, n, relaxValues[uint32])
}

// WCCSubgraphLabels is WCCLabels, kept under this name for the repository
// benchmark, which calls it.
func WCCSubgraphLabels(res *core.JobResult[uint32], n int) []int32 { return WCCLabels(res, n) }

// WeightedDistances extracts the final distances (+Inf = unreachable) under
// either model.
func WeightedDistances(res *core.JobResult[float64], n int) []float64 {
	return gather[float64](res, n, relaxValues[float64])
}

// WSSSPCodec encodes float64 tentative distances.
type WSSSPCodec struct{}

// Append implements core.Codec.
func (WSSSPCodec) Append(buf []byte, m float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(m))
	return append(buf, b[:]...)
}

// Decode implements core.Codec.
func (WSSSPCodec) Decode(data []byte) (float64, int) {
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), 8
}

// Size implements core.Codec.
func (WSSSPCodec) Size(float64) int { return 8 }

// MinFloat64Combiner keeps the smallest tentative distance per destination.
type MinFloat64Combiner struct{}

// Combine implements core.Combiner.
func (MinFloat64Combiner) Combine(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
