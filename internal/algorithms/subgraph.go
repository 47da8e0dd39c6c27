package algorithms

// Subgraph-centric (partition-centric) programs run a sequential worklist
// fixpoint over their whole partition between barriers — the
// GoFFish/Giraph++ model — so supersteps scale with the partition-hop
// diameter of the graph instead of its vertex-hop diameter, and only
// boundary edges generate network messages. The relaxation family
// (relax.go) is the only native port and gives the same bits as its vertex
// programs; every other algorithm, BC included, runs its vertex program
// under core.UseVertexAdapter.

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
