package core_test

import (
	"testing"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// TestRestoreMatchesAdopt checks that the two readers of a state blob —
// checkpoint restore and migration adopt — install identical state, across
// a combiner program, a multi-message program, a subgraph program and a
// vertex program run through the subgraph adapter.
func TestRestoreMatchesAdopt(t *testing.T) {
	g := graph.ErdosRenyi(160, 640, 9)
	adapted := algorithms.SSSP(g, 3, 0)
	core.UseVertexAdapter(&adapted)
	t.Run("pagerank", func(t *testing.T) {
		core.CheckRestoreMatchesAdopt(t, algorithms.PageRank{Iterations: 10, Damping: 0.85}.Spec(g, 3), 4)
	})
	t.Run("bc", func(t *testing.T) {
		core.CheckRestoreMatchesAdopt(t, algorithms.BC(g, 3, core.NewAllAtOnce(algorithms.Sources(g, 4))), 3)
	})
	t.Run("sssp-subgraph", func(t *testing.T) {
		core.CheckRestoreMatchesAdopt(t, algorithms.SSSPSubgraph(g, 3, 0), 2)
	})
	t.Run("sssp-adapter", func(t *testing.T) {
		core.CheckRestoreMatchesAdopt(t, adapted, 2)
	})
}
