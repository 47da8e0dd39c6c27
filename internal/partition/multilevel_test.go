package partition

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"pregelnet/internal/graph"
)

// coarsenSorted is coarsen's first contraction, kept as the reference the
// accumulator contraction must match: every coarse arc goes into one list,
// which is comparison-sorted and folded into weight sums. Its matching takes
// the heaviest eligible neighbour, the smallest id among equals, as coarsen
// does.
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
		var bestW int32 = -1
		nbrs, wts := w.neighbors(v)
		for j, u := range nbrs {
			if match[u] < 0 && u != v && (wts[j] > bestW || wts[j] == bestW && int32(u) < bestU) && w.vwgt[v]+w.vwgt[u] <= maxVWgt {
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
		w    int32
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
		var sum int32
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

// coarsenRowSorted is the accumulator contraction as it was before coarse
// rows stopped being sorted: the matching keeps the first of the heaviest
// neighbours in row order, and every coarse row is sorted. Rows that are
// sorted on the way in make that the smallest id among the heaviest, so
// Partition built on it is the reference Multilevel.Partition must match.
func coarsenRowSorted(w *wgraph, rng *rand.Rand, maxVWgt int64) (*wgraph, []graph.VertexID) {
	const unmatched = ^graph.VertexID(0)
	n := w.n()
	vmap := make([]graph.VertexID, n)
	for i := range vmap {
		vmap[i] = unmatched
	}
	order := rng.Perm(n)
	members := make([]graph.VertexID, 0, 2*n)
	for _, vi := range order {
		v := graph.VertexID(vi)
		if vmap[v] != unmatched {
			continue
		}
		partner := v
		var bestW int32 = -1
		nbrs, wts := w.neighbors(v)
		for j, u := range nbrs {
			if vmap[u] == unmatched && u != v && wts[j] > bestW && w.vwgt[v]+w.vwgt[u] <= maxVWgt {
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
		ewgt:    make([]int32, len(w.adj)),
	}
	acc := make([]int32, coarseCount)
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
		row := coarse.adj[start:idx]
		slices.Sort(row)
		for i, cu := range row {
			coarse.ewgt[start+i] = acc[cu]
			acc[cu] = 0
		}
		coarse.offsets[c+1] = int64(idx)
	}
	coarse.adj = coarse.adj[:idx]
	coarse.ewgt = coarse.ewgt[:idx]
	return coarse, vmap
}

// partitionRowSorted is Multilevel.Partition over coarsenRowSorted, whose
// levels all have sorted rows, so the coarsest graph needs no sort.
func partitionRowSorted(m *Multilevel, g *graph.Graph, k int) Assignment {
	n := g.NumVertices()
	if k <= 1 || n == 0 {
		return make(Assignment, n)
	}
	rng := rand.New(rand.NewSource(m.Seed))
	levels := []*wgraph{fromGraph(g)}
	var maps [][]graph.VertexID
	target := max(m.CoarsenTo*k, 64)
	for {
		cur := levels[len(levels)-1]
		if cur.n() <= target {
			break
		}
		maxVWgt := max(cur.totalVWgt()/int64(4*k), 1)
		coarse, vmap := coarsenRowSorted(cur, rng, maxVWgt)
		if coarse.n() >= cur.n()*95/100 {
			break
		}
		levels = append(levels, coarse)
		maps = append(maps, vmap)
	}
	coarsest := levels[len(levels)-1]
	assign := growRegions(coarsest, k, rng)
	refine(coarsest, assign, k, m.BalanceTolerance, m.RefinePasses)
	for i := len(levels) - 2; i >= 0; i-- {
		fine, vmap := levels[i], maps[i]
		fineAssign := make(Assignment, fine.n())
		for v := range fineAssign {
			fineAssign[v] = assign[vmap[v]]
		}
		assign = fineAssign
		refine(fine, assign, k, m.BalanceTolerance, m.RefinePasses)
	}
	return assign
}

// arcWGraph builds a unit-weight wgraph straight from arcs, keeping their
// order, duplicates and self-loops: the multigraph rows coarsen must merge.
func arcWGraph(n int, arcs [][2]graph.VertexID) *wgraph {
	w := &wgraph{
		vwgt:    make([]int64, n),
		offsets: make([]int64, n+1),
		adj:     make([]graph.VertexID, len(arcs)),
		ewgt:    make([]int32, len(arcs)),
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

// referenceGraphs are the shapes the coarsening references are compared on.
func referenceGraphs() map[string]*graph.Graph {
	disconnected := graph.NewBuilder(400)
	graph.Grid(10, 15).ForEachEdge(func(u, v graph.VertexID) { disconnected.Add(u, v) })
	graph.Community(200, 4, 3, 0.9, 7).ForEachEdge(func(u, v graph.VertexID) { disconnected.Add(u+180, v+180) })
	looped := graph.NewBuilder(2000)
	graph.Community(2000, 8, 4, 0.9, 5).ForEachEdge(looped.Add)
	for v := graph.VertexID(0); v < 2000; v += 3 {
		looped.Add(v, v) // level 0 drops these
	}
	return map[string]*graph.Graph{
		"self-loops":   looped.Build(),
		"community":    graph.Community(3000, 12, 4, 0.9, 3),
		"rmat":         graph.RMAT(11, 8, 0.57, 0.19, 0.19, 0.05, 4),
		"grid":         graph.Grid(40, 50),
		"star":         graph.Star(500),
		"disconnected": disconnected.Build(), // 20 isolated vertices too
		"no-edges":     graph.NewBuilder(300).Build(),
	}
}

// The accumulator contraction builds the coarse graphs and vertex maps the
// sort-based one does, at every level Partition would coarsen to: the same
// vertex map and vertex weights, and each coarse row the same set of
// (neighbour, weight) pairs, in whatever order the accumulator left it. One
// scratch serves every level, as in Partition.
func TestCoarsenMatchesSortReference(t *testing.T) {
	const k = 4
	for name, g := range referenceGraphs() {
		for variant, w := range map[string]*wgraph{"simple": fromGraph(g), "salted": salted(g, 11)} {
			t.Run(name+"/"+variant, func(t *testing.T) {
				rng, refRng := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
				var scratch coarsenScratch
				for level := 0; w.n() > 30*k; level++ {
					maxVWgt := max(w.totalVWgt()/int64(4*k), 1)
					coarse, vmap := coarsen(w, rng, maxVWgt, &scratch)
					ref, refMap := coarsenSorted(w, refRng, maxVWgt)
					if !reflect.DeepEqual(vmap, refMap) {
						t.Fatalf("level %d: vertex map differs from the sort reference", level)
					}
					sorted := &wgraph{
						vwgt:    coarse.vwgt,
						offsets: coarse.offsets,
						adj:     slices.Clone(coarse.adj),
						ewgt:    slices.Clone(coarse.ewgt),
					}
					sorted.sortRows()
					if len(ref.adj) == 0 {
						// The reference appends its arcs, so it has none
						// allocated when no arc survives contraction.
						ref.adj, ref.ewgt = sorted.adj[:0], sorted.ewgt[:0]
					}
					if !reflect.DeepEqual(sorted, ref) {
						t.Fatalf("level %d: coarse rows differ from the sort reference", level)
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

// Partition over unsorted coarse rows assigns every vertex where Partition
// over row-sorted coarsening did, on every shape, k and seed tried.
func TestMultilevelMatchesRowSortedReference(t *testing.T) {
	graphs := referenceGraphs()
	graphs["community-large"] = graph.Community(20000, 100, 4, 0.85, 2)
	for name, g := range graphs {
		for _, seed := range []int64{1, 2} {
			for _, k := range []int{2, 3, 4, 8} {
				m := NewMultilevel()
				m.Seed = seed
				got, want := m.Partition(g, k), partitionRowSorted(m, g, k)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d k=%d: assignment differs from the row-sorted reference", name, seed, k)
				}
			}
		}
	}
}

// bytesPerArc is the most one Partition at k=2 may allocate per arc of the
// community graph in TestMultilevelAllocationBound. With int64 edge weights
// and fresh per-level buffers it allocated 85.0 bytes per arc; with
// int32 weights and one scratch carried through the levels, 56.8.
const bytesPerArc = 64

// Partition allocates a bounded number of bytes per arc: the level graphs,
// vertex maps and assignments, and one set of coarsening buffers.
func TestMultilevelAllocationBound(t *testing.T) {
	g := graph.Community(20000, 100, 4, 0.85, 2)
	m := NewMultilevel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Partition(g, 2)
	runtime.ReadMemStats(&after)
	perArc := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumEdges())
	t.Logf("%.1f bytes per arc over %d arcs", perArc, g.NumEdges())
	if perArc > bytesPerArc {
		t.Errorf("Partition allocated %.1f bytes per arc, want at most %d", perArc, bytesPerArc)
	}
}

// Edge weights are int32 and count level-0 arcs, so a graph may have at most
// math.MaxInt32 of them; one more is refused with the count named.
func TestMultilevelArcCountLimit(t *testing.T) {
	checkArcCount(0)
	checkArcCount(math.MaxInt32)
	over := int64(math.MaxInt32) + 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2147483648 arcs") {
			t.Fatalf("panic %q does not name the arc count", msg)
		}
	}()
	checkArcCount(int(over))
	t.Fatal("no panic above math.MaxInt32 arcs")
}

// BenchmarkMultilevelPartition partitions the wcc-sub-frontend benchmark
// workload's graph (seed 1) in two, numbered as the text loader numbers it.
func BenchmarkMultilevelPartition(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, graph.Community(100000, 500, 4, 0.85, 1)); err != nil {
		b.Fatal(err)
	}
	g, err := graph.ReadEdgeList(&buf, false)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMultilevel()
	b.ReportAllocs()
	for b.Loop() {
		m.Partition(g, 2)
	}
}
