// Package algorithms provides the programs evaluated in the paper —
// PageRank (the uniform-message baseline), betweenness centrality (the
// message-intensive stress case, Brandes' algorithm) and all-pairs shortest
// paths — plus label propagation (the "CD" class the paper names) and one
// min-relaxation program (relax.go) behind SSSP, WCC and weighted SSSP.
//
// Each algorithm exposes a builder returning a core.JobSpec and a result
// extractor that gathers per-worker program state into global arrays; the
// relaxation extractors read a job run under either programming model.
package algorithms

import (
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// gather collects a per-local-vertex column from every worker's program
// into one global array, converting each value to V as it goes.
func gather[V, T int32 | uint32 | float64, P any, M any](res *core.JobResult[M], n int, column func(P) []T) []V {
	out := make([]V, n)
	for w, prog := range res.Programs {
		col := column(prog.(P))
		for li, v := range res.Owned[w] {
			out[v] = V(col[li])
		}
	}
	return out
}

// Sources returns the n lowest-ID vertices, the conventional root subset for
// sampled BC/APSP experiments (the paper samples 50-75 roots per graph).
func Sources(g *graph.Graph, n int) []graph.VertexID {
	return core.FirstNSources(g, n)
}
