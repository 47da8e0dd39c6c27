package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 1)
	b.Add(0, 2)
	b.Add(1, 2)
	b.Add(3, 0)
	g := b.Build()
	if got := g.NumVertices(); got != 4 {
		t.Fatalf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Fatalf("NumEdges = %d, want 4", got)
	}
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.OutDegree(2); got != 0 {
		t.Errorf("OutDegree(2) = %d, want 0", got)
	}
	if !g.HasEdge(3, 0) || g.HasEdge(0, 3) {
		t.Errorf("HasEdge wrong: want 3->0 only")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 5; i++ {
		b.Add(0, 1)
	}
	b.Add(1, 2)
	g := b.Build()
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", got)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).Add(0, 5)
}

func TestAddUndirected(t *testing.T) {
	b := NewBuilder(3)
	b.AddUndirected(0, 1)
	b.AddUndirected(2, 2) // self loop stored once
	g := b.Build()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge missing a direction")
	}
	if got := g.OutDegree(2); got != 1 {
		t.Errorf("self loop degree = %d, want 1", got)
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.Add(0, 4)
	b.Add(0, 1)
	b.Add(0, 3)
	g := b.Build()
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("neighbors not sorted: %v", nbrs)
		}
	}
}

func TestTranspose(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1)
	b.Add(0, 2)
	b.Add(1, 2)
	g := b.Build()
	tr := g.Transpose()
	if !tr.HasEdge(1, 0) || !tr.HasEdge(2, 0) || !tr.HasEdge(2, 1) {
		t.Error("transpose missing edges")
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Errorf("transpose edge count %d != %d", tr.NumEdges(), g.NumEdges())
	}
	// Transposing twice recovers the original edge set.
	trtr := tr.Transpose()
	g.ForEachEdge(func(u, v VertexID) {
		if !trtr.HasEdge(u, v) {
			t.Errorf("double transpose lost edge (%d,%d)", u, v)
		}
	})
}

func TestSymmetrize(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 1)
	b.Add(2, 2) // self loop should be dropped
	b.Add(3, 1)
	g := b.Build().Symmetrize()
	if !g.HasEdge(1, 0) || !g.HasEdge(1, 3) {
		t.Error("symmetrize missing reverse edges")
	}
	if g.HasEdge(2, 2) {
		t.Error("symmetrize kept self loop")
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]VertexID{{1, 2}, {0}, {}})
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
}

func TestForEachEdgeCount(t *testing.T) {
	g := Ring(10)
	count := 0
	g.ForEachEdge(func(u, v VertexID) { count++ })
	if count != g.NumEdges() {
		t.Errorf("ForEachEdge visited %d, want %d", count, g.NumEdges())
	}
}

// Property: for any set of edges the built graph is valid, deduplicated and
// sorted, and HasEdge agrees with the input set.
func TestBuildProperties(t *testing.T) {
	f := func(pairs []uint16) bool {
		const n = 64
		b := NewBuilder(n)
		want := make(map[[2]VertexID]bool)
		for _, p := range pairs {
			u := VertexID(p>>8) % n
			v := VertexID(p&0xff) % n
			b.Add(u, v)
			want[[2]VertexID{u, v}] = true
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			return false
		}
		if g.NumEdges() != len(want) {
			return false
		}
		for e := range want {
			if !g.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: transpose preserves edge count and reverses every edge.
func TestTransposeProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		const n = 32
		b := NewBuilder(n)
		for _, p := range pairs {
			b.Add(VertexID(p>>8)%n, VertexID(p&0xff)%n)
		}
		g := b.Build()
		tr := g.Transpose()
		if tr.NumEdges() != g.NumEdges() {
			return false
		}
		ok := true
		g.ForEachEdge(func(u, v VertexID) {
			if !tr.HasEdge(v, u) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxAndAvgDegree(t *testing.T) {
	g := Star(5) // center has degree 4, leaves degree 1
	if got := g.MaxDegree(); got != 4 {
		t.Errorf("MaxDegree = %d, want 4", got)
	}
	want := float64(g.NumEdges()) / 5
	if got := g.AvgDegree(); got != want {
		t.Errorf("AvgDegree = %v, want %v", got, want)
	}
}

// buildInput is an edge list in the order a Builder receives it.
type buildInput struct {
	n     int
	edges []edge
}

// buildInputs are the Build equivalence test's edge lists: generator graphs
// and a disconnected one, each shuffled and salted with duplicate edges and
// self-loops, plus graphs with no edges and with empty rows.
func buildInputs() map[string]buildInput {
	salted := func(g *Graph, extraVertices int, seed int64) buildInput {
		rng := rand.New(rand.NewSource(seed))
		var es []edge
		g.ForEachEdge(func(u, v VertexID) { es = append(es, edge{u, v}) })
		n := g.NumVertices() + extraVertices
		for i, k := 0, len(es)/4+1; i < k; i++ {
			es = append(es, es[rng.Intn(len(es))])
			v := VertexID(rng.Intn(n))
			es = append(es, edge{v, v})
		}
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		return buildInput{n, es}
	}
	two := NewBuilder(40)
	Ring(20).ForEachEdge(func(u, v VertexID) { two.Add(u, v) })
	Complete(8).ForEachEdge(func(u, v VertexID) { two.Add(u+25, v+25) })
	inputs := map[string]buildInput{
		"n=0":        {0, nil},
		"no-edges":   {5, nil},
		"empty-rows": {6, []edge{{5, 0}, {2, 3}, {2, 3}, {5, 5}, {0, 5}}},
	}
	for name, g := range map[string]*Graph{
		"community":    Community(600, 6, 4, 0.9, 3),
		"rmat":         RMAT(9, 8, 0.57, 0.19, 0.19, 0.05, 4),
		"grid":         Grid(17, 23),
		"star":         Star(300),
		"disconnected": two.Build(),
	} {
		inputs[name] = salted(g, 7, int64(len(name)))
	}
	return inputs
}

// The counting-sort Build produces exactly the graph the comparison-sort
// Build did.
func TestBuildMatchesSortReference(t *testing.T) {
	for name, in := range buildInputs() {
		t.Run(name, func(t *testing.T) {
			got := &Builder{n: in.n, edges: append([]edge(nil), in.edges...)}
			want := &Builder{n: in.n, edges: append([]edge(nil), in.edges...)}
			g, ref := got.Build(), buildSorted(want)
			if !reflect.DeepEqual(g, ref) {
				t.Fatalf("Build differs from the sort reference:\n got %v %v\nwant %v %v",
					g.offsets, g.adj, ref.offsets, ref.adj)
			}
			if cap(g.adj) != len(g.adj) {
				t.Errorf("adjacency keeps capacity %d for %d arcs", cap(g.adj), len(g.adj))
			}
		})
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if g.AvgDegree() != 0 {
		t.Error("AvgDegree of empty graph should be 0")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestWeightedGraph(t *testing.T) {
	g := Ring(6)
	if _, err := NewWeighted(g, make([]float32, 3)); err == nil {
		t.Error("expected length-mismatch error")
	}
	u := UniformWeights(g)
	if u.Weight(0, 1) != 1 || u.Weight(0, 3) != -1 {
		t.Errorf("uniform weights wrong: %v %v", u.Weight(0, 1), u.Weight(0, 3))
	}
	if len(u.EdgeWeights(0)) != 2 {
		t.Errorf("edge weights len = %d", len(u.EdgeWeights(0)))
	}
}

func TestRandomWeightsSymmetric(t *testing.T) {
	g := ErdosRenyi(80, 200, 5)
	w := RandomWeights(g, 1, 10, 3)
	g.ForEachEdge(func(u, v VertexID) {
		wf, wb := w.Weight(u, v), w.Weight(v, u)
		if wf != wb {
			t.Fatalf("asymmetric weight (%d,%d): %v vs %v", u, v, wf, wb)
		}
		if wf < 1 || wf >= 10 {
			t.Fatalf("weight %v out of range", wf)
		}
	})
	// Deterministic.
	w2 := RandomWeights(g, 1, 10, 3)
	if w.Weight(0, g.Neighbors(0)[0]) != w2.Weight(0, g.Neighbors(0)[0]) {
		t.Error("random weights not deterministic")
	}
}

func TestDijkstraReference(t *testing.T) {
	// Weighted path 0 -1.0- 1 -2.0- 2: dist = [0, 1, 3].
	b := NewBuilder(3)
	b.AddUndirected(0, 1)
	b.AddUndirected(1, 2)
	g := b.Build()
	// adjacency: 0:[1], 1:[0,2], 2:[1]
	w, err := NewWeighted(g, []float32{1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	dist := w.DijkstraReference(0)
	if dist[0] != 0 || dist[1] != 1 || dist[2] != 3 {
		t.Errorf("dist = %v", dist)
	}
}

func TestShuffleIDsPreservesStructure(t *testing.T) {
	g := ErdosRenyi(100, 250, 7)
	s := g.ShuffleIDs(42)
	if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
		t.Fatal("shuffle changed size")
	}
	// Degree sequences match.
	degs := func(g *Graph) []int {
		d := make([]int, g.NumVertices())
		for v := range d {
			d[v] = g.OutDegree(VertexID(v))
		}
		sort.Ints(d)
		return d
	}
	a, b := degs(g), degs(s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("degree sequence changed")
		}
	}
	// Component structure matches.
	if Components(g).Count != Components(s).Count {
		t.Error("component count changed")
	}
	// Deterministic; different seeds differ.
	s2 := g.ShuffleIDs(42)
	same := true
	s.ForEachEdge(func(u, v VertexID) {
		if !s2.HasEdge(u, v) {
			same = false
		}
	})
	if !same {
		t.Error("same-seed shuffle not deterministic")
	}
	s3 := g.ShuffleIDs(43)
	diff := false
	s.ForEachEdge(func(u, v VertexID) {
		if !s3.HasEdge(u, v) {
			diff = true
		}
	})
	if !diff {
		t.Error("different-seed shuffles identical (vanishingly unlikely)")
	}
}
