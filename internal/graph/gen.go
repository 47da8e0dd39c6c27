package graph

import (
	"math/rand"
	"slices"
)

// This file implements deterministic synthetic graph generators. The paper
// evaluates on four SNAP datasets with small-world structure (short effective
// diameter, heavy-tailed degrees). Public traces are substituted by these
// generators; see datasets.go for the scaled analogs and DESIGN.md for the
// substitution rationale.

// ErdosRenyi generates G(n, m): n vertices and m undirected edges chosen
// uniformly at random without duplicates or self-loops.
func ErdosRenyi(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	seen := make(map[[2]VertexID]bool, m)
	for len(seen) < m {
		u := VertexID(rng.Intn(n))
		v := VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]VertexID{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddUndirected(u, v)
	}
	g := b.Build()
	g.SetName("erdos-renyi")
	return g
}

// WattsStrogatz generates a small-world graph: a ring lattice where each
// vertex connects to its k nearest neighbors (k must be even), with each
// edge rewired to a random target with probability beta. Low beta yields
// high clustering and a moderately larger diameter, mimicking mesh-like
// networks such as citation graphs.
func WattsStrogatz(n, k int, beta float64, seed int64) *Graph {
	if k%2 != 0 {
		panic("graph: WattsStrogatz requires even k")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Float64() < beta {
				// Rewire to a uniformly random non-self target.
				for {
					w := rng.Intn(n)
					if w != u {
						v = w
						break
					}
				}
			}
			b.AddUndirected(VertexID(u), VertexID(v))
		}
	}
	g := b.Build()
	g.SetName("watts-strogatz")
	return g
}

// BarabasiAlbert generates a scale-free graph by preferential attachment:
// each new vertex attaches m undirected edges to existing vertices with
// probability proportional to their degree. Produces power-law degrees and a
// short effective diameter — the "supernode" structure that drives the
// near-exponential message ramp-up the paper observes for BC traversals.
func BarabasiAlbert(n, m int, seed int64) *Graph {
	if n <= m {
		panic("graph: BarabasiAlbert requires n > m")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	// Repeated-endpoints list: picking a uniform element is equivalent to
	// degree-proportional sampling.
	targets := make([]VertexID, 0, 2*n*m)
	// Seed clique of m+1 vertices.
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			b.AddUndirected(VertexID(u), VertexID(v))
			targets = append(targets, VertexID(u), VertexID(v))
		}
	}
	// chosen keeps the draw order: the targets appended below feed every
	// later draw, so their order must depend on the seed alone.
	chosen := make([]VertexID, 0, m)
	for u := m + 1; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			v := targets[rng.Intn(len(targets))]
			if v != VertexID(u) && !slices.Contains(chosen, v) {
				chosen = append(chosen, v)
			}
		}
		for _, v := range chosen {
			b.AddUndirected(VertexID(u), v)
			targets = append(targets, VertexID(u), v)
		}
	}
	g := b.Build()
	g.SetName("barabasi-albert")
	return g
}

// RMAT generates a Kronecker-style power-law graph with 2^scale vertices and
// approximately edgeFactor * 2^scale undirected edges. The quadrant
// probabilities (a, b, c, d) must sum to 1; skewed values (e.g. the Graph500
// defaults 0.57/0.19/0.19/0.05) yield heavy-tailed degree distributions
// resembling web and social graphs.
func RMAT(scale uint, edgeFactor int, a, b, c, d float64, seed int64) *Graph {
	if sum := a + b + c + d; sum < 0.999 || sum > 1.001 {
		panic("graph: RMAT quadrant probabilities must sum to 1")
	}
	n := 1 << scale
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < int(scale); bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		bld.AddUndirected(VertexID(u), VertexID(v))
	}
	g := bld.Build()
	g.SetName("rmat")
	return g
}

// Community generates a power-law graph with planted community structure:
// vertices are split into contiguous communities; each new vertex attaches m
// undirected edges by preferential attachment, choosing targets inside its
// own community with probability pIntra and globally otherwise. Web graphs
// combine exactly these two traits — heavy-tailed degrees (page hubs) and
// strong locality (host/site communities) — which is what makes them respond
// to intelligent partitioning.
func Community(n, communities, m int, pIntra float64, seed int64) *Graph {
	if communities < 1 || n < communities*(m+1) {
		panic("graph: Community requires communities >= 1 and n >= communities*(m+1)")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	perCommunity := n / communities
	commOf := func(v int) int {
		c := v / perCommunity
		if c >= communities {
			c = communities - 1
		}
		return c
	}
	// Degree-proportional sampling via repeated-endpoint lists.
	local := make([][]VertexID, communities)
	var global []VertexID
	addEdge := func(u, v VertexID) {
		b.AddUndirected(u, v)
		local[commOf(int(u))] = append(local[commOf(int(u))], u)
		local[commOf(int(v))] = append(local[commOf(int(v))], v)
		global = append(global, u, v)
	}
	for v := 0; v < n; v++ {
		c := commOf(v)
		// Seed each community with a link to its first member.
		if len(local[c]) == 0 {
			if v == 0 {
				continue
			}
			// First member of a new community: link to the global structure
			// so the graph stays connected.
			if len(global) == 0 {
				addEdge(VertexID(v), VertexID(rng.Intn(v)))
			} else {
				addEdge(VertexID(v), global[rng.Intn(len(global))])
			}
			continue
		}
		chosen := make(map[VertexID]bool, m)
		for attempts := 0; len(chosen) < m && attempts < 20*m; attempts++ {
			var t VertexID
			if rng.Float64() < pIntra || len(global) == 0 {
				t = local[c][rng.Intn(len(local[c]))]
			} else {
				t = global[rng.Intn(len(global))]
			}
			if t != VertexID(v) && !chosen[t] {
				chosen[t] = true
				addEdge(VertexID(v), t)
			}
		}
	}
	g := b.Build()
	g.SetName("community")
	return g
}

// CitationBand models citation networks such as cit-Patents: vertex IDs are
// chronological, and each new vertex cites m earlier vertices drawn mostly
// from a recent window of size `window`, with probability pFar of citing an
// arbitrary older vertex. The result is a temporally banded graph: BFS
// frontiers advance as contiguous bands (≈`window` wide per superstep), the
// property that concentrates BSP traversal activity into few partitions
// under locality-preserving partitioning (paper §VII, CP).
func CitationBand(n, m, window int, pFar float64, seed int64) *Graph {
	if window < 1 || m < 1 {
		panic("graph: CitationBand requires m >= 1 and window >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	chosen := make(map[int]bool, m)
	for v := 1; v < n; v++ {
		cites := m
		if cites > v {
			cites = v
		}
		clear(chosen)
		for attempts := 0; len(chosen) < cites && attempts < 20*m; attempts++ {
			var t int
			if rng.Float64() < pFar {
				t = rng.Intn(v)
			} else {
				lo := v - window
				if lo < 0 {
					lo = 0
				}
				t = lo + rng.Intn(v-lo)
			}
			if !chosen[t] {
				chosen[t] = true
				b.AddUndirected(VertexID(v), VertexID(t))
			}
		}
	}
	g := b.Build()
	g.SetName("citation-band")
	return g
}

// Ring generates a cycle of n vertices (each vertex has degree 2). Useful in
// tests as the extreme high-diameter case.
func Ring(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddUndirected(VertexID(u), VertexID((u+1)%n))
	}
	g := b.Build()
	g.SetName("ring")
	return g
}

// Grid generates an rows x cols 2D mesh with 4-neighbor connectivity.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddUndirected(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddUndirected(id(r, c), id(r+1, c))
			}
		}
	}
	g := b.Build()
	g.SetName("grid")
	return g
}

// Star generates a star: vertex 0 connected to all others.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddUndirected(0, VertexID(v))
	}
	g := b.Build()
	g.SetName("star")
	return g
}

// Complete generates the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddUndirected(VertexID(u), VertexID(v))
		}
	}
	g := b.Build()
	g.SetName("complete")
	return g
}

// BinaryTree generates a complete binary tree with n vertices; vertex 0 is
// the root and vertex i has parent (i-1)/2.
func BinaryTree(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddUndirected(VertexID(v), VertexID((v-1)/2))
	}
	g := b.Build()
	g.SetName("binary-tree")
	return g
}

// Path generates a path graph of n vertices.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u+1 < n; u++ {
		b.AddUndirected(VertexID(u), VertexID(u+1))
	}
	g := b.Build()
	g.SetName("path")
	return g
}
