package partition

import (
	"math/rand"
	"sort"

	"pregelnet/internal/graph"
)

// Multilevel implements a METIS-style multilevel k-way partitioner
// (Karypis & Kumar): the graph is repeatedly coarsened by heavy-edge
// matching, the coarsest graph is partitioned by greedy region growing, and
// the assignment is projected back level by level with boundary
// Kernighan–Lin/FM refinement at each step. It produces the low edge-cut,
// locally-clustered partitions whose BSP load-imbalance behaviour Section
// VII of the paper analyzes.
type Multilevel struct {
	// Seed drives the matching and region-growing orders. Fixed by default
	// so partitions are reproducible.
	Seed int64
	// BalanceTolerance is the allowed max-partition overweight factor
	// (METIS default is ~1.03; we use a slightly looser 1.05).
	BalanceTolerance float64
	// CoarsenTo stops coarsening when the graph has at most this many
	// vertices per partition.
	CoarsenTo int
	// RefinePasses bounds the boundary refinement passes per level.
	RefinePasses int
}

// NewMultilevel returns a Multilevel partitioner with METIS-like defaults.
func NewMultilevel() *Multilevel {
	return &Multilevel{Seed: 1, BalanceTolerance: 1.05, CoarsenTo: 30, RefinePasses: 8}
}

// Name implements Partitioner.
func (m *Multilevel) Name() string { return "metis" }

// wgraph is a weighted graph used during coarsening. Vertex weights count
// how many original vertices a coarse vertex represents; edge weights count
// collapsed parallel edges.
type wgraph struct {
	vwgt    []int64
	offsets []int64
	adj     []graph.VertexID
	ewgt    []int64
}

func (w *wgraph) n() int { return len(w.vwgt) }

func (w *wgraph) neighbors(v graph.VertexID) ([]graph.VertexID, []int64) {
	return w.adj[w.offsets[v]:w.offsets[v+1]], w.ewgt[w.offsets[v]:w.offsets[v+1]]
}

func (w *wgraph) totalVWgt() int64 {
	var t int64
	for _, x := range w.vwgt {
		t += x
	}
	return t
}

// sortRows sorts every row by neighbour id, carrying the edge weights.
func (w *wgraph) sortRows() {
	var row weightedRow // one value for every row: one allocation, not n
	for v := range w.vwgt {
		lo, hi := w.offsets[v], w.offsets[v+1]
		row.adj, row.ewgt = w.adj[lo:hi], w.ewgt[lo:hi]
		sort.Sort(&row)
	}
}

// weightedRow sorts a row's neighbours and their edge weights together.
type weightedRow struct {
	adj  []graph.VertexID
	ewgt []int64
}

func (r *weightedRow) Len() int           { return len(r.adj) }
func (r *weightedRow) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *weightedRow) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.ewgt[i], r.ewgt[j] = r.ewgt[j], r.ewgt[i]
}

// fromGraph is level 0: the graph's own rows, which every constructor in
// package graph sorts by neighbour id, minus self loops.
func fromGraph(g *graph.Graph) *wgraph {
	n := g.NumVertices()
	w := &wgraph{
		vwgt:    make([]int64, n),
		offsets: make([]int64, n+1),
		adj:     make([]graph.VertexID, g.NumEdges()),
		ewgt:    make([]int64, g.NumEdges()),
	}
	for v := 0; v < n; v++ {
		w.vwgt[v] = 1
	}
	idx := 0
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if u == graph.VertexID(v) {
				continue // self loops are irrelevant to cuts
			}
			w.adj[idx] = u
			w.ewgt[idx] = 1
			idx++
		}
		w.offsets[v+1] = int64(idx)
	}
	w.adj = w.adj[:idx]
	w.ewgt = w.ewgt[:idx]
	return w
}

// Partition implements Partitioner.
func (m *Multilevel) Partition(g *graph.Graph, k int) Assignment {
	n := g.NumVertices()
	if k <= 1 || n == 0 {
		return make(Assignment, n)
	}
	rng := rand.New(rand.NewSource(m.Seed))

	// Coarsening phase: build a hierarchy of graphs and vertex maps.
	levels := []*wgraph{fromGraph(g)}
	var maps [][]graph.VertexID // maps[i][v] = coarse vertex of v at level i+1
	target := m.CoarsenTo * k
	if target < 64 {
		target = 64
	}
	for {
		cur := levels[len(levels)-1]
		if cur.n() <= target {
			break
		}
		maxVWgt := cur.totalVWgt() / int64(4*k)
		if maxVWgt < 1 {
			maxVWgt = 1
		}
		coarse, vmap := coarsen(cur, rng, maxVWgt)
		if coarse.n() >= cur.n()*95/100 {
			break // matching stalled (e.g. star graphs); stop coarsening
		}
		levels = append(levels, coarse)
		maps = append(maps, vmap)
	}

	// Initial partitioning on the coarsest graph. Region growing visits
	// neighbours in row order, so it gets sorted rows.
	coarsest := levels[len(levels)-1]
	coarsest.sortRows()
	assign := growRegions(coarsest, k, rng)
	refine(coarsest, assign, k, m.BalanceTolerance, m.RefinePasses)

	// Uncoarsening: project and refine level by level.
	for i := len(levels) - 2; i >= 0; i-- {
		fine := levels[i]
		vmap := maps[i]
		fineAssign := make(Assignment, fine.n())
		for v := range fineAssign {
			fineAssign[v] = assign[vmap[v]]
		}
		assign = fineAssign
		refine(fine, assign, k, m.BalanceTolerance, m.RefinePasses)
	}
	return assign
}

// coarsen performs one level of heavy-edge matching and contracts matched
// pairs into coarse vertices. Matches that would create a coarse vertex
// heavier than maxVWgt are skipped — without this cap, hub vertices in
// power-law graphs absorb so much weight that no balanced initial partition
// exists at the coarsest level.
//
// Contraction follows METIS's CreateCoarseGraph: each coarse vertex merges
// its one or two members' adjacency through a dense weight accumulator, so a
// level costs O(m). A coarse row keeps the accumulator's insertion order:
// the matching's tie rule, refine and rebalance do not depend on row order,
// and Partition sorts the coarsest graph's rows for growRegions.
func coarsen(w *wgraph, rng *rand.Rand, maxVWgt int64) (*wgraph, []graph.VertexID) {
	const unmatched = ^graph.VertexID(0)
	n := w.n()
	vmap := make([]graph.VertexID, n)
	for i := range vmap {
		vmap[i] = unmatched
	}
	order := rng.Perm(n)
	// members[2c] and members[2c+1] are coarse vertex c's fine vertices; a
	// vertex left unmatched is its own partner.
	members := make([]graph.VertexID, 0, 2*n)
	for _, vi := range order {
		v := graph.VertexID(vi)
		if vmap[v] != unmatched {
			continue
		}
		// Find the unmatched neighbor with the heaviest connecting edge
		// whose combined weight stays under the cap; of equally heavy ones,
		// the smallest id, so the choice does not depend on row order.
		partner := v
		var bestW int64 = -1
		nbrs, wts := w.neighbors(v)
		for j, u := range nbrs {
			if vmap[u] == unmatched && u != v && (wts[j] > bestW || wts[j] == bestW && u < partner) && w.vwgt[v]+w.vwgt[u] <= maxVWgt {
				partner, bestW = u, wts[j]
			}
		}
		c := graph.VertexID(len(members) / 2)
		vmap[v], vmap[partner] = c, c
		members = append(members, v, partner)
	}

	coarseCount := len(members) / 2
	coarse := &wgraph{
		vwgt:    make([]int64, coarseCount),
		offsets: make([]int64, coarseCount+1),
		adj:     make([]graph.VertexID, len(w.adj)),
		ewgt:    make([]int64, len(w.adj)),
	}
	// Edge weights are >= 1, so a zero accumulator entry means untouched.
	// A coarse vertex has at most as many arcs as its members, so its row
	// is collected in place at the end of the arcs written so far.
	acc := make([]int64, coarseCount)
	idx := 0
	for c := 0; c < coarseCount; c++ {
		cv := graph.VertexID(c)
		pair := members[2*c : 2*c+2]
		if pair[1] == pair[0] {
			pair = pair[:1]
		}
		start := idx
		for _, v := range pair {
			coarse.vwgt[c] += w.vwgt[v]
			nbrs, wts := w.neighbors(v)
			for j, u := range nbrs {
				cu := vmap[u]
				if cu == cv {
					continue
				}
				if acc[cu] == 0 {
					coarse.adj[idx] = cu
					idx++
				}
				acc[cu] += wts[j]
			}
		}
		for i, cu := range coarse.adj[start:idx] {
			coarse.ewgt[start+i] = acc[cu]
			acc[cu] = 0
		}
		coarse.offsets[c+1] = int64(idx)
	}
	coarse.adj = coarse.adj[:idx]
	coarse.ewgt = coarse.ewgt[:idx]
	return coarse, vmap
}

// growRegions produces an initial k-way assignment by greedy BFS region
// growing: each region grows from an unassigned seed until it reaches the
// ideal weight, preferring frontier vertices with the strongest connection
// to the region.
func growRegions(w *wgraph, k int, rng *rand.Rand) Assignment {
	n := w.n()
	assign := make(Assignment, n)
	for i := range assign {
		assign[i] = -1
	}
	ideal := float64(w.totalVWgt()) / float64(k)
	order := rng.Perm(n)
	next := 0
	for p := 0; p < k-1; p++ {
		// Seed: first unassigned vertex in the random order.
		seed := -1
		for next < n {
			if assign[order[next]] < 0 {
				seed = order[next]
				break
			}
			next++
		}
		if seed < 0 {
			break
		}
		var weight int64
		frontier := []graph.VertexID{graph.VertexID(seed)}
		assign[seed] = int32(p)
		weight += w.vwgt[seed]
		for len(frontier) > 0 && float64(weight) < ideal {
			v := frontier[0]
			frontier = frontier[1:]
			nbrs, _ := w.neighbors(v)
			for _, u := range nbrs {
				if assign[u] < 0 && float64(weight) < ideal {
					assign[u] = int32(p)
					weight += w.vwgt[u]
					frontier = append(frontier, u)
				}
			}
		}
		// If the region ran out of frontier before reaching ideal weight
		// (disconnected graph), grab arbitrary unassigned vertices.
		for i := 0; i < n && float64(weight) < ideal; i++ {
			if assign[order[i]] < 0 {
				assign[order[i]] = int32(p)
				weight += w.vwgt[order[i]]
			}
		}
	}
	for v := 0; v < n; v++ {
		if assign[v] < 0 {
			assign[v] = int32(k - 1)
		}
	}
	return assign
}

// rebalance moves vertices out of overweight partitions into underweight
// ones, preferring moves that lose the least edge weight. Returns the number
// of vertices moved.
func rebalance(w *wgraph, assign Assignment, k int, weights []int64, maxWeight int64, conn []int64) int {
	over := false
	for p := 0; p < k; p++ {
		if weights[p] > maxWeight {
			over = true
		}
	}
	if !over {
		return 0
	}
	moved := 0
	for v := 0; v < w.n(); v++ {
		home := assign[v]
		if weights[home] <= maxWeight {
			continue
		}
		nbrs, wts := w.neighbors(graph.VertexID(v))
		for i := range conn {
			conn[i] = 0
		}
		for j, u := range nbrs {
			conn[assign[u]] += wts[j]
		}
		// Pick the connected (or any) partition with the most room.
		bestP := int32(-1)
		var bestScore int64 = -1 << 62
		for p := int32(0); p < int32(k); p++ {
			if p == home || weights[p]+w.vwgt[v] > maxWeight {
				continue
			}
			score := conn[p] - conn[home] // edge-weight change; may be negative
			if score > bestScore {
				bestP, bestScore = p, score
			}
		}
		if bestP >= 0 {
			weights[home] -= w.vwgt[v]
			weights[bestP] += w.vwgt[v]
			assign[v] = bestP
			moved++
			if weights[home] <= maxWeight {
				continue
			}
		}
	}
	return moved
}

// refine runs greedy boundary Kernighan–Lin/FM passes: boundary vertices
// move to the neighboring partition with the highest positive gain
// (external minus internal edge weight) subject to the balance constraint.
func refine(w *wgraph, assign Assignment, k int, tolerance float64, passes int) {
	n := w.n()
	weights := make([]int64, k)
	for v := 0; v < n; v++ {
		weights[assign[v]] += w.vwgt[v]
	}
	maxWeight := int64(tolerance * float64(w.totalVWgt()) / float64(k))
	if maxWeight < 1 {
		maxWeight = 1
	}
	conn := make([]int64, k) // connection weight from v to each partition
	// Balance-restoring pass: while any partition exceeds the tolerance,
	// move boundary vertices out of it toward the least-damaging neighbor
	// partition even at zero or negative gain.
	for pass := 0; pass < passes; pass++ {
		moved := rebalance(w, assign, k, weights, maxWeight, conn)
		if moved == 0 {
			break
		}
	}
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for v := 0; v < n; v++ {
			home := assign[v]
			nbrs, wts := w.neighbors(graph.VertexID(v))
			if len(nbrs) == 0 {
				continue
			}
			for i := range conn {
				conn[i] = 0
			}
			boundary := false
			for j, u := range nbrs {
				conn[assign[u]] += wts[j]
				if assign[u] != home {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			bestP := home
			bestGain := int64(0)
			for p := int32(0); p < int32(k); p++ {
				if p == home || conn[p] == 0 {
					continue
				}
				if weights[p]+w.vwgt[v] > maxWeight {
					continue
				}
				gain := conn[p] - conn[home]
				if gain > bestGain || (gain == bestGain && gain > 0 && weights[p] < weights[bestP]) {
					bestP, bestGain = p, gain
				}
			}
			if bestP != home && bestGain > 0 {
				weights[home] -= w.vwgt[v]
				weights[bestP] += w.vwgt[v]
				assign[v] = bestP
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
