package algorithms

import (
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// PageRank is the paper's uniform-communication baseline: every superstep,
// every vertex passes one message along every out-edge, giving the flat
// message profile of Fig 3 and predictable resource usage.
type PageRank struct {
	// Iterations is the number of rank-update rounds (the paper runs 30).
	Iterations int
	// Damping is the damping factor (0.85 standard).
	Damping float64
}

// DefaultPageRank returns the paper's configuration: 30 iterations, 0.85.
func DefaultPageRank() PageRank {
	return PageRank{Iterations: 30, Damping: 0.85}
}

type pageRankProgram struct {
	cfg   PageRank
	ranks []float64
	n     float64
}

// Spec builds the BSP job for PageRank on g with the given worker count.
// Callers may override Assignment, CostModel, etc. before running.
func (pr PageRank) Spec(g *graph.Graph, workers int) core.JobSpec[float64] {
	return core.JobSpec[float64]{
		Graph:      g,
		NumWorkers: workers,
		Codec:      core.Float64Codec{},
		Combiner:   core.SumCombiner{},
		NewProgram: func(_ int, gg *graph.Graph, owned []graph.VertexID) core.VertexProgram[float64] {
			return &pageRankProgram{cfg: pr, ranks: make([]float64, len(owned)), n: float64(gg.NumVertices())}
		},
		ActivateAll: true,
	}
}

// Compute implements core.VertexProgram.
func (p *pageRankProgram) Compute(ctx *core.Context[float64], msgs []float64) {
	li := ctx.LocalIndex()
	if ctx.Superstep() == 0 {
		p.ranks[li] = 1 / p.n
	} else {
		var sum float64
		for _, m := range msgs {
			sum += m
		}
		p.ranks[li] = (1-p.cfg.Damping)/p.n + p.cfg.Damping*sum
	}
	if ctx.Superstep() < p.cfg.Iterations {
		if d := ctx.Degree(); d > 0 {
			ctx.SendToNeighbors(p.ranks[li] / float64(d))
		}
	} else {
		ctx.VoteToHalt()
	}
}

// StateBytes implements core.StateReporter.
func (p *pageRankProgram) StateBytes() int64 { return int64(8 * len(p.ranks)) }

// Ranks extracts the final global rank vector.
func Ranks(res *core.JobResult[float64], n int) []float64 {
	return gather[float64](res, n, func(p *pageRankProgram) []float64 { return p.ranks })
}

// PageRankSequential is the single-machine reference implementation used to
// validate the BSP version.
func PageRankSequential(g *graph.Graph, iterations int, damping float64) []float64 {
	n := g.NumVertices()
	ranks := make([]float64, n)
	next := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		base := (1 - damping) / float64(n)
		for i := range next {
			next[i] = base
		}
		for v := 0; v < n; v++ {
			d := g.OutDegree(graph.VertexID(v))
			if d == 0 {
				continue
			}
			share := damping * ranks[v] / float64(d)
			for _, u := range g.Neighbors(graph.VertexID(v)) {
				next[u] += share
			}
		}
		ranks, next = next, ranks
	}
	return ranks
}
