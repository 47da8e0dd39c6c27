// Package graph provides the in-memory graph representation used by the BSP
// engine, along with loaders, synthetic generators, and structural metrics.
//
// Graphs are stored in compressed sparse row (CSR) form: a single offsets
// array and a single adjacency array. This matches the access pattern of
// vertex-centric processing (iterate a vertex's out-edges) and keeps memory
// within a small constant factor of the edge count.
package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// VertexID identifies a vertex. IDs are dense: a graph with N vertices uses
// IDs 0..N-1.
type VertexID uint32

// Graph is an immutable directed graph in CSR form. Undirected graphs are
// represented by storing each edge in both directions (see Builder.AddUndirected
// and Symmetrize).
type Graph struct {
	name    string
	offsets []int64    // len = NumVertices()+1
	adj     []VertexID // len = NumEdges()
}

// Name returns the human-readable dataset name ("" if unset).
func (g *Graph) Name() string { return g.name }

// SetName sets the dataset name used in reports.
func (g *Graph) SetName(name string) { g.name = name }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of directed edges (an undirected edge stored in
// both directions counts twice).
func (g *Graph) NumEdges() int { return len(g.adj) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// ForEachEdge calls fn for every directed edge (u, v). Iteration is in
// vertex order, then adjacency order.
func (g *Graph) ForEachEdge(fn func(u, v VertexID)) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			fn(VertexID(u), v)
		}
	}
}

// HasEdge reports whether the directed edge (u, v) exists. The adjacency list
// of u must be sorted, which holds for graphs produced by Builder.
func (g *Graph) HasEdge(u, v VertexID) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// MaxDegree returns the largest out-degree in the graph (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VertexID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}

// Transpose returns the graph with every edge reversed.
func (g *Graph) Transpose() *Graph {
	n := g.NumVertices()
	inDeg := make([]int64, n+1)
	for _, v := range g.adj {
		inDeg[v+1]++
	}
	offsets := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = offsets[i-1] + inDeg[i]
	}
	adj := make([]VertexID, len(g.adj))
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	g.ForEachEdge(func(u, v VertexID) {
		adj[cursor[v]] = u
		cursor[v]++
	})
	t := &Graph{name: g.name + "-transpose", offsets: offsets, adj: adj}
	t.sortAdjacency()
	return t
}

// Symmetrize returns the undirected version of the graph: for every edge
// (u,v) both (u,v) and (v,u) are present exactly once, and self-loops are
// dropped. This mirrors the paper's treatment of the SNAP datasets as
// unweighted, undirected graphs for BC.
func (g *Graph) Symmetrize() *Graph {
	b := NewBuilder(g.NumVertices())
	g.ForEachEdge(func(u, v VertexID) {
		if u != v {
			b.AddUndirected(u, v)
		}
	})
	s := b.Build()
	s.name = g.name
	return s
}

// ShuffleIDs returns a copy of the graph with vertex IDs permuted by the
// seeded permutation. Generator IDs often carry spatial locality (e.g. a
// Watts–Strogatz ring is laid out consecutively); real-world dataset IDs do
// not, so dataset analogs are shuffled to avoid giving ID-order-based
// partitioners an unrealistic advantage.
func (g *Graph) ShuffleIDs(seed int64) *Graph {
	n := g.NumVertices()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	b := NewBuilder(n)
	g.ForEachEdge(func(u, v VertexID) {
		b.Add(VertexID(perm[u]), VertexID(perm[v]))
	})
	s := b.Build()
	s.name = g.name
	return s
}

func (g *Graph) sortAdjacency() {
	for v := 0; v < g.NumVertices(); v++ {
		slices.Sort(g.adj[g.offsets[v]:g.offsets[v+1]])
	}
}

// Validate checks structural invariants and returns an error describing the
// first violation found, or nil.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) == 0 || g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets must start at 0")
	}
	for i := 1; i <= n; i++ {
		if g.offsets[i] < g.offsets[i-1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", i-1)
		}
	}
	if g.offsets[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: final offset %d != adjacency length %d", g.offsets[n], len(g.adj))
	}
	for _, v := range g.adj {
		if int(v) >= n {
			return fmt.Errorf("graph: edge target %d out of range (n=%d)", v, n)
		}
	}
	return nil
}

// Builder accumulates edges and produces a CSR Graph. Duplicate edges are
// merged. The zero value is not usable; call NewBuilder.
type Builder struct {
	n     int
	edges []edge
}

type edge struct{ u, v VertexID }

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Add records the directed edge (u, v). Panics if either endpoint is out of
// range, since that is always a programming error in a generator or loader.
func (b *Builder) Add(u, v VertexID) {
	if int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", u, v, b.n))
	}
	b.edges = append(b.edges, edge{u, v})
}

// AddUndirected records the edge in both directions.
func (b *Builder) AddUndirected(u, v VertexID) {
	b.Add(u, v)
	if u != v {
		b.Add(v, u)
	}
}

// NumPendingEdges returns the number of directed edges recorded so far,
// before deduplication.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the CSR graph, sorting adjacency lists and dropping
// duplicate edges. The Builder may be reused afterwards (it is reset).
//
// Edges are counting-sorted by source straight into the adjacency array,
// then each row is sorted and deduplicated in place: O(m + Σ d log d) with
// no comparison sort over the whole edge list.
func (b *Builder) Build() *Graph {
	offsets := make([]int64, b.n+1)
	for _, e := range b.edges {
		offsets[e.u+1]++
	}
	for i := 1; i <= b.n; i++ {
		offsets[i] += offsets[i-1]
	}
	adj := make([]VertexID, len(b.edges))
	// Scatter with offsets[u] as row u's cursor; afterwards offsets[u] holds
	// the end of row u, which the dedup pass below turns back into starts.
	for _, e := range b.edges {
		adj[offsets[e.u]] = e.v
		offsets[e.u]++
	}
	var lo, kept int64
	for u := 0; u < b.n; u++ {
		hi := offsets[u]
		offsets[u] = kept
		row := adj[lo:hi]
		slices.Sort(row)
		// kept never passes the read position lo+i, so compacting in
		// place leaves row[i-1] intact until it has been compared.
		for i, v := range row {
			if i == 0 || v != row[i-1] {
				adj[kept] = v
				kept++
			}
		}
		lo = hi
	}
	offsets[b.n] = kept
	if kept < int64(len(adj)) {
		// Do not keep the pre-dedup capacity alive for the graph's lifetime.
		adj = append(make([]VertexID, 0, kept), adj[:kept]...)
	}
	b.edges = nil
	return &Graph{offsets: offsets, adj: adj}
}

// FromAdjacency builds a graph directly from per-vertex adjacency lists.
// Lists are copied, sorted and deduplicated.
func FromAdjacency(lists [][]VertexID) *Graph {
	b := NewBuilder(len(lists))
	for u, nbrs := range lists {
		for _, v := range nbrs {
			b.Add(VertexID(u), v)
		}
	}
	return b.Build()
}
