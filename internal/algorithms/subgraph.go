package algorithms

import (
	"math"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// Subgraph-centric (partition-centric) ports of the traversal algorithms.
// Each program runs a sequential worklist fixpoint over its whole partition
// between barriers — the GoFFish/Giraph++ model — so supersteps scale with
// the partition-hop diameter of the graph instead of its vertex-hop
// diameter, and only boundary edges generate network messages.
//
// Result contracts vs the vertex-centric programs:
//
//   - SSSP, WCC, weighted SSSP: bit-identical. Their state is the unique
//     fixpoint of a min relaxation (integer hop counts, integer labels, and
//     per-path left-associated float sums reduced by exact min), which is
//     independent of relaxation order.
//   - BC: deterministic across runs and transports (all float accumulation
//     iterates contribution lists kept sorted by vertex id), but only
//     ULP-equal to the vertex-centric implementation, whose per-superstep
//     sums follow the engine's delivery order.

// ssspSubgraph is the partition-centric unweighted SSSP/BFS program: each
// superstep seeds a worklist from boundary messages (and the injected
// source) and runs hop-count relaxation to local convergence.
type ssspSubgraph struct {
	dist    []int32
	queue   []int32 // worklist scratch, reused across supersteps
	changed sparseMark
}

// SSSPSubgraph builds the subgraph-centric single-source shortest-path job
// from src. Results are bit-identical to SSSP.
func SSSPSubgraph(g *graph.Graph, workers int, src graph.VertexID) core.JobSpec[uint32] {
	return core.JobSpec[uint32]{
		Graph:      g,
		NumWorkers: workers,
		Codec:      core.Uint32Codec{},
		Combiner:   core.MinUint32Combiner{},
		Scheduler:  core.NewAllAtOnce([]graph.VertexID{src}),
		NewPartitionProgram: func(_ int, _ *graph.Graph, owned []graph.VertexID) core.PartitionProgram[uint32] {
			p := &ssspSubgraph{dist: make([]int32, len(owned))}
			for i := range p.dist {
				p.dist[i] = -1
			}
			p.changed.init(len(owned))
			return p
		},
	}
}

// ComputePartition implements core.PartitionProgram.
func (p *ssspSubgraph) ComputePartition(pc *core.PartitionContext[uint32]) {
	work := p.queue[:0]
	p.changed.reset()
	for _, li := range pc.Active() {
		best := int32(-1)
		if pc.Injected(li) {
			best = 0
		}
		for _, m := range pc.Messages(li) {
			if best < 0 || int32(m) < best {
				best = int32(m)
			}
		}
		if best >= 0 && (p.dist[li] < 0 || best < p.dist[li]) {
			p.dist[li] = best
			work = append(work, li)
			p.changed.mark(li)
		}
	}
	// Local fixpoint: hop-count relaxation over the partition's own edges.
	// FIFO consumption keeps the relaxation in level order (LIFO re-settles
	// vertices many times on large connected partitions).
	var ops int64
	for head := 0; head < len(work); head++ {
		li := work[head]
		nd := p.dist[li] + 1
		for _, u := range pc.Neighbors(pc.VertexAt(li)) {
			ops++
			lu := pc.LocalIndex(u)
			if lu < 0 {
				continue
			}
			if p.dist[lu] < 0 || nd < p.dist[lu] {
				p.dist[lu] = nd
				work = append(work, lu)
				p.changed.mark(lu)
			}
		}
	}
	// Boundary push: every improved vertex offers its converged distance to
	// its remote out-neighbors; the min combiner collapses per destination.
	for _, li := range p.changed.list {
		d := uint32(p.dist[li]) + 1
		for _, u := range pc.Neighbors(pc.VertexAt(li)) {
			if !pc.IsLocal(u) {
				pc.Send(u, d)
			}
		}
	}
	p.queue = work
	pc.AddComputeOps(ops)
	pc.VoteAllToHalt()
}

// StateBytes implements core.StateReporter.
func (p *ssspSubgraph) StateBytes() int64 { return int64(4 * len(p.dist)) }

// SSSPSubgraphDistances extracts hop distances (-1 = unreachable).
func SSSPSubgraphDistances(res *core.JobResult[uint32], n int) []int32 {
	return mergeSubInt32(res, n, func(prog core.PartitionProgram[uint32]) []int32 {
		return prog.(*ssspSubgraph).dist
	})
}

// wccSubgraph is the partition-centric weakly-connected-components program:
// min-label flooding run to local convergence each superstep.
type wccSubgraph struct {
	label   []int32
	queue   []int32
	changed sparseMark
}

// WCCSubgraph builds the subgraph-centric connected-components job. Results
// are bit-identical to WCC (labels propagate along out-edges in both).
func WCCSubgraph(g *graph.Graph, workers int) core.JobSpec[uint32] {
	return core.JobSpec[uint32]{
		Graph:       g,
		NumWorkers:  workers,
		Codec:       core.Uint32Codec{},
		Combiner:    core.MinUint32Combiner{},
		ActivateAll: true,
		NewPartitionProgram: func(_ int, _ *graph.Graph, owned []graph.VertexID) core.PartitionProgram[uint32] {
			p := &wccSubgraph{label: make([]int32, len(owned))}
			for i := range p.label {
				p.label[i] = -1
			}
			p.changed.init(len(owned))
			return p
		},
	}
}

// ComputePartition implements core.PartitionProgram.
func (p *wccSubgraph) ComputePartition(pc *core.PartitionContext[uint32]) {
	work := p.queue[:0]
	p.changed.reset()
	if pc.Superstep() == 0 {
		for _, li := range pc.Active() {
			p.label[li] = int32(pc.VertexAt(li))
			work = append(work, li)
			p.changed.mark(li)
		}
	} else {
		for _, li := range pc.Active() {
			best := p.label[li]
			for _, m := range pc.Messages(li) {
				if int32(m) < best {
					best = int32(m)
				}
			}
			if best != p.label[li] {
				p.label[li] = best
				work = append(work, li)
				p.changed.mark(li)
			}
		}
	}
	var ops int64
	for head := 0; head < len(work); head++ { // FIFO: see ssspSubgraph
		li := work[head]
		l := p.label[li]
		for _, u := range pc.Neighbors(pc.VertexAt(li)) {
			ops++
			lu := pc.LocalIndex(u)
			if lu < 0 {
				continue
			}
			if l < p.label[lu] {
				p.label[lu] = l
				work = append(work, lu)
				p.changed.mark(lu)
			}
		}
	}
	for _, li := range p.changed.list {
		l := uint32(p.label[li])
		for _, u := range pc.Neighbors(pc.VertexAt(li)) {
			if !pc.IsLocal(u) {
				pc.Send(u, l)
			}
		}
	}
	p.queue = work
	pc.AddComputeOps(ops)
	pc.VoteAllToHalt()
}

// StateBytes implements core.StateReporter.
func (p *wccSubgraph) StateBytes() int64 { return int64(4 * len(p.label)) }

// WCCSubgraphLabels extracts component labels.
func WCCSubgraphLabels(res *core.JobResult[uint32], n int) []int32 {
	return mergeSubInt32(res, n, func(prog core.PartitionProgram[uint32]) []int32 {
		return prog.(*wccSubgraph).label
	})
}

// wssspSubgraph is the partition-centric weighted SSSP: Dijkstra-flavored
// worklist relaxation to local convergence (plain worklist, no heap — the
// fixpoint is the same and the engine re-relaxes across supersteps anyway).
type wssspSubgraph struct {
	wg      *graph.Weighted
	dist    []float64
	queue   []int32
	changed sparseMark
}

// WeightedSSSPSubgraph builds the subgraph-centric weighted shortest-path
// job from src. Results are bit-identical to WeightedSSSP: every candidate
// distance is the left-associated sum along one path, and exact min
// reduction over that candidate set is order-independent.
func WeightedSSSPSubgraph(wg *graph.Weighted, workers int, src graph.VertexID) core.JobSpec[float64] {
	return core.JobSpec[float64]{
		Graph:      wg.Graph,
		NumWorkers: workers,
		Codec:      WSSSPCodec{},
		Combiner:   MinFloat64Combiner{},
		Scheduler:  core.NewAllAtOnce([]graph.VertexID{src}),
		NewPartitionProgram: func(_ int, _ *graph.Graph, owned []graph.VertexID) core.PartitionProgram[float64] {
			p := &wssspSubgraph{wg: wg, dist: make([]float64, len(owned))}
			for i := range p.dist {
				p.dist[i] = math.Inf(1)
			}
			p.changed.init(len(owned))
			return p
		},
	}
}

// ComputePartition implements core.PartitionProgram.
func (p *wssspSubgraph) ComputePartition(pc *core.PartitionContext[float64]) {
	work := p.queue[:0]
	p.changed.reset()
	for _, li := range pc.Active() {
		best := math.Inf(1)
		if pc.Injected(li) {
			best = 0
		}
		for _, m := range pc.Messages(li) {
			if m < best {
				best = m
			}
		}
		if best < p.dist[li] {
			p.dist[li] = best
			work = append(work, li)
			p.changed.mark(li)
		}
	}
	var ops int64
	for head := 0; head < len(work); head++ { // FIFO: see ssspSubgraph
		li := work[head]
		d := p.dist[li]
		v := pc.VertexAt(li)
		nbrs := pc.Neighbors(v)
		wts := p.wg.EdgeWeights(v)
		for i, u := range nbrs {
			ops++
			lu := pc.LocalIndex(u)
			if lu < 0 {
				continue
			}
			if nd := d + float64(wts[i]); nd < p.dist[lu] {
				p.dist[lu] = nd
				work = append(work, lu)
				p.changed.mark(lu)
			}
		}
	}
	for _, li := range p.changed.list {
		d := p.dist[li]
		v := pc.VertexAt(li)
		nbrs := pc.Neighbors(v)
		wts := p.wg.EdgeWeights(v)
		for i, u := range nbrs {
			if !pc.IsLocal(u) {
				pc.Send(u, d+float64(wts[i]))
			}
		}
	}
	p.queue = work
	pc.AddComputeOps(ops)
	pc.VoteAllToHalt()
}

// StateBytes implements core.StateReporter.
func (p *wssspSubgraph) StateBytes() int64 { return int64(8 * len(p.dist)) }

// WeightedSubgraphDistances extracts final distances (+Inf = unreachable).
func WeightedSubgraphDistances(res *core.JobResult[float64], n int) []float64 {
	return mergeSubFloat64(res, n, func(prog core.PartitionProgram[float64]) []float64 {
		return prog.(*wssspSubgraph).dist
	})
}

// sparseMark is a dedup set over local vertex indices: O(1) mark with a
// reusable membership slice plus an iteration list in mark order.
type sparseMark struct {
	in   []bool
	list []int32
}

func (s *sparseMark) init(n int) { s.in = make([]bool, n) }

func (s *sparseMark) reset() {
	for _, li := range s.list {
		s.in[li] = false
	}
	s.list = s.list[:0]
}

func (s *sparseMark) mark(li int32) {
	if !s.in[li] {
		s.in[li] = true
		s.list = append(s.list, li)
	}
}

// mergeSubInt32 gathers a per-local-vertex int32 column from every worker's
// partition program into one global array.
func mergeSubInt32[M any](res *core.JobResult[M], n int, column func(core.PartitionProgram[M]) []int32) []int32 {
	out := make([]int32, n)
	for w, prog := range res.PartitionPrograms {
		col := column(prog)
		for li, v := range res.Owned[w] {
			out[v] = col[li]
		}
	}
	return out
}

// mergeSubFloat64 is mergeSubInt32 for float64 columns.
func mergeSubFloat64[M any](res *core.JobResult[M], n int, column func(core.PartitionProgram[M]) []float64) []float64 {
	out := make([]float64, n)
	for w, prog := range res.PartitionPrograms {
		col := column(prog)
		for li, v := range res.Owned[w] {
			out[v] = col[li]
		}
	}
	return out
}
