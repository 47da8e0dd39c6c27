package algorithms

import (
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// Label-propagation community detection: the paper names community
// detection alongside BC and APSP as the high-complexity class.

type lpaProgram struct {
	rounds int
	label  []int32
}

// LPA builds a label-propagation community-detection job: each vertex
// repeatedly adopts the most frequent label among its neighbors (ties break
// toward the smaller label, making the run deterministic), for a fixed
// number of rounds.
func LPA(g *graph.Graph, workers, rounds int) core.JobSpec[uint32] {
	return core.JobSpec[uint32]{
		Graph:       g,
		NumWorkers:  workers,
		Codec:       core.Uint32Codec{},
		ActivateAll: true,
		NewProgram: func(_ int, _ *graph.Graph, owned []graph.VertexID) core.VertexProgram[uint32] {
			return &lpaProgram{rounds: rounds, label: make([]int32, len(owned))}
		},
	}
}

// Compute implements core.VertexProgram.
func (p *lpaProgram) Compute(ctx *core.Context[uint32], msgs []uint32) {
	li := ctx.LocalIndex()
	if ctx.Superstep() == 0 {
		p.label[li] = int32(ctx.Vertex())
	} else {
		counts := make(map[uint32]int, len(msgs))
		for _, m := range msgs {
			counts[m]++
		}
		best, bestCount := uint32(p.label[li]), 0
		for label, c := range counts {
			if c > bestCount || (c == bestCount && label < best) {
				best, bestCount = label, c
			}
		}
		p.label[li] = int32(best)
	}
	if ctx.Superstep() < p.rounds {
		ctx.SendToNeighbors(uint32(p.label[li]))
	} else {
		ctx.VoteToHalt()
	}
}

// StateBytes implements core.StateReporter.
func (p *lpaProgram) StateBytes() int64 { return int64(4 * len(p.label)) }

// LPALabels extracts community labels.
func LPALabels(res *core.JobResult[uint32], n int) []int32 {
	return gather[int32](res, n, func(p *lpaProgram) []int32 { return p.label })
}
