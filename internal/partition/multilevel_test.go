package partition

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pregelnet/internal/graph"
)

// coarsenSorted is coarsen's former contraction, kept as the reference the
// accumulator contraction must match: every coarse arc goes into one list,
// which is comparison-sorted and folded into weight sums.
func coarsenSorted(w *wgraph, rng *rand.Rand, maxVWgt int64) (*wgraph, []graph.VertexID) {
	n := w.n()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	coarseCount := 0
	vmap := make([]graph.VertexID, n)
	for _, vi := range order {
		v := graph.VertexID(vi)
		if match[v] >= 0 {
			continue
		}
		bestU := int32(-1)
		var bestW int64 = -1
		nbrs, wts := w.neighbors(v)
		for j, u := range nbrs {
			if match[u] < 0 && u != v && wts[j] > bestW && w.vwgt[v]+w.vwgt[u] <= maxVWgt {
				bestU, bestW = int32(u), wts[j]
			}
		}
		if bestU >= 0 {
			match[v] = bestU
			match[bestU] = int32(v)
			vmap[v] = graph.VertexID(coarseCount)
			vmap[bestU] = graph.VertexID(coarseCount)
		} else {
			match[v] = int32(v)
			vmap[v] = graph.VertexID(coarseCount)
		}
		coarseCount++
	}

	coarse := &wgraph{
		vwgt:    make([]int64, coarseCount),
		offsets: make([]int64, coarseCount+1),
	}
	for v := 0; v < n; v++ {
		coarse.vwgt[vmap[v]] += w.vwgt[v]
	}
	type cedge struct {
		u, v graph.VertexID
		w    int64
	}
	edges := make([]cedge, 0, len(w.adj))
	for v := 0; v < n; v++ {
		cv := vmap[v]
		nbrs, wts := w.neighbors(graph.VertexID(v))
		for j, u := range nbrs {
			cu := vmap[u]
			if cu != cv {
				edges = append(edges, cedge{cv, cu, wts[j]})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
	for i := 0; i < len(edges); {
		j := i
		var sum int64
		for j < len(edges) && edges[j].u == edges[i].u && edges[j].v == edges[i].v {
			sum += edges[j].w
			j++
		}
		coarse.adj = append(coarse.adj, edges[i].v)
		coarse.ewgt = append(coarse.ewgt, sum)
		coarse.offsets[edges[i].u+1] = int64(len(coarse.adj))
		i = j
	}
	for i := 1; i <= coarseCount; i++ {
		if coarse.offsets[i] == 0 {
			coarse.offsets[i] = coarse.offsets[i-1]
		}
	}
	return coarse, vmap
}

// arcWGraph builds a unit-weight wgraph straight from arcs, keeping their
// order, duplicates and self-loops: the multigraph rows coarsen must merge.
func arcWGraph(n int, arcs [][2]graph.VertexID) *wgraph {
	w := &wgraph{
		vwgt:    make([]int64, n),
		offsets: make([]int64, n+1),
		adj:     make([]graph.VertexID, len(arcs)),
		ewgt:    make([]int64, len(arcs)),
	}
	for v := range w.vwgt {
		w.vwgt[v] = 1
	}
	for _, a := range arcs {
		w.offsets[a[0]+1]++
	}
	for v := 1; v <= n; v++ {
		w.offsets[v] += w.offsets[v-1]
	}
	next := append([]int64(nil), w.offsets[:n]...)
	for _, a := range arcs {
		w.adj[next[a[0]]] = a[1]
		w.ewgt[next[a[0]]] = 1
		next[a[0]]++
	}
	return w
}

// salted returns g's arcs shuffled, with duplicate arcs and self-loops added.
func salted(g *graph.Graph, seed int64) *wgraph {
	rng := rand.New(rand.NewSource(seed))
	var arcs [][2]graph.VertexID
	g.ForEachEdge(func(u, v graph.VertexID) { arcs = append(arcs, [2]graph.VertexID{u, v}) })
	n := g.NumVertices()
	for i, k := 0, len(arcs)/4+1; i < k && len(arcs) > 0; i++ {
		arcs = append(arcs, arcs[rng.Intn(len(arcs))])
		v := graph.VertexID(rng.Intn(n))
		arcs = append(arcs, [2]graph.VertexID{v, v})
	}
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	return arcWGraph(n, arcs)
}

// The accumulator contraction builds exactly the coarse graphs and vertex
// maps the sort-based one did, at every level Partition would coarsen to.
func TestCoarsenMatchesSortReference(t *testing.T) {
	disconnected := graph.NewBuilder(400)
	graph.Grid(10, 15).ForEachEdge(func(u, v graph.VertexID) { disconnected.Add(u, v) })
	graph.Community(200, 4, 3, 0.9, 7).ForEachEdge(func(u, v graph.VertexID) { disconnected.Add(u+180, v+180) })
	graphs := map[string]*graph.Graph{
		"community":    graph.Community(3000, 12, 4, 0.9, 3),
		"rmat":         graph.RMAT(11, 8, 0.57, 0.19, 0.19, 0.05, 4),
		"grid":         graph.Grid(40, 50),
		"star":         graph.Star(500),
		"disconnected": disconnected.Build(), // 20 isolated vertices too
		"no-edges":     graph.NewBuilder(300).Build(),
	}
	const k = 4
	for name, g := range graphs {
		for variant, w := range map[string]*wgraph{"simple": fromGraph(g), "salted": salted(g, 11)} {
			t.Run(name+"/"+variant, func(t *testing.T) {
				rng, refRng := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
				for level := 0; w.n() > 30*k; level++ {
					maxVWgt := max(w.totalVWgt()/int64(4*k), 1)
					coarse, vmap := coarsen(w, rng, maxVWgt)
					ref, refMap := coarsenSorted(w, refRng, maxVWgt)
					if len(ref.adj) == 0 {
						// The reference appends its arcs, so it has none
						// allocated when no arc survives contraction.
						ref.adj, ref.ewgt = coarse.adj[:0], coarse.ewgt[:0]
					}
					if !reflect.DeepEqual(coarse, ref) {
						t.Fatalf("level %d: coarse graph differs from the sort reference", level)
					}
					if !reflect.DeepEqual(vmap, refMap) {
						t.Fatalf("level %d: vertex map differs from the sort reference", level)
					}
					if coarse.n() >= w.n()*95/100 {
						break
					}
					w = coarse
				}
			})
		}
	}
}
