package graph

import (
	"reflect"
	"testing"
)

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 300, 1)
	if g.NumVertices() != 100 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 600 {
		t.Fatalf("directed edges = %d, want 600", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(50, 100, 7)
	b := ErdosRenyi(50, 100, 7)
	same := true
	a.ForEachEdge(func(u, v VertexID) {
		if !b.HasEdge(u, v) {
			same = false
		}
	})
	if !same || a.NumEdges() != b.NumEdges() {
		t.Error("same seed produced different graphs")
	}
	c := ErdosRenyi(50, 100, 8)
	diff := false
	a.ForEachEdge(func(u, v VertexID) {
		if !c.HasEdge(u, v) {
			diff = true
		}
	})
	if !diff {
		t.Error("different seeds produced identical graphs (vanishingly unlikely)")
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(200, 4, 0.1, 3)
	if g.NumVertices() != 200 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Each vertex initiates k/2 = 2 edges; after symmetrization and dedup the
	// directed edge count is close to n*k (rewiring can collide).
	if g.NumEdges() < 700 || g.NumEdges() > 800 {
		t.Errorf("directed edges = %d, want ~800", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestWattsStrogatzOddKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd k")
		}
	}()
	WattsStrogatz(10, 3, 0.1, 1)
}

func TestWattsStrogatzZeroBetaIsLattice(t *testing.T) {
	g := WattsStrogatz(20, 4, 0, 1)
	for v := 0; v < 20; v++ {
		if d := g.OutDegree(VertexID(v)); d != 4 {
			t.Fatalf("vertex %d degree = %d, want 4 in pure lattice", v, d)
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 3, 9)
	if g.NumVertices() != 500 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Preferential attachment must produce hubs: max degree far above mean.
	if g.MaxDegree() < 3*int(g.AvgDegree()) {
		t.Errorf("max degree %d not hub-like vs avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
	// Connected by construction.
	if c := Components(g); c.Count != 1 {
		t.Errorf("BA graph has %d components, want 1", c.Count)
	}
}

// The same seed builds the same graph: SD' (BarabasiAlbert(2048, 6, 42))
// reads the same in every run.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	want := BarabasiAlbert(2048, 6, 42)
	for i := 0; i < 4; i++ {
		if g := BarabasiAlbert(2048, 6, 42); !reflect.DeepEqual(g, want) {
			t.Fatalf("build %d differs from the first", i+2)
		}
	}
}

func TestBarabasiAlbertRequiresNGreaterThanM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= m")
		}
	}()
	BarabasiAlbert(3, 3, 1)
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 0.57, 0.19, 0.19, 0.05, 5)
	if g.NumVertices() != 1024 {
		t.Fatalf("vertices = %d, want 1024", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Skewed quadrants must produce heavy-tailed degrees.
	if g.MaxDegree() < 4*int(g.AvgDegree()) {
		t.Errorf("max degree %d vs avg %.1f: not heavy-tailed", g.MaxDegree(), g.AvgDegree())
	}
}

func TestRMATBadProbabilitiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for probabilities not summing to 1")
		}
	}()
	RMAT(4, 2, 0.5, 0.1, 0.1, 0.1, 1)
}

func TestCommunity(t *testing.T) {
	g := Community(1000, 10, 3, 0.9, 4)
	if g.NumVertices() != 1000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Strong intra-community preference: most edges stay within the 100-wide
	// community blocks.
	intra, total := 0, 0
	g.ForEachEdge(func(u, v VertexID) {
		total++
		if int(u)/100 == int(v)/100 {
			intra++
		}
	})
	if frac := float64(intra) / float64(total); frac < 0.7 {
		t.Errorf("intra-community fraction = %.2f, want > 0.7", frac)
	}
	// Preferential attachment inside communities still produces local hubs.
	if g.MaxDegree() < 2*int(g.AvgDegree()) {
		t.Errorf("max degree %d vs avg %.1f: no hubs", g.MaxDegree(), g.AvgDegree())
	}
}

func TestCommunityPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n too small")
		}
	}()
	Community(10, 5, 3, 0.9, 1)
}

func TestCitationBand(t *testing.T) {
	g := CitationBand(2000, 3, 100, 0.02, 9)
	if g.NumVertices() != 2000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Bandedness: the vast majority of edges span < window.
	short, total := 0, 0
	g.ForEachEdge(func(u, v VertexID) {
		total++
		d := int(u) - int(v)
		if d < 0 {
			d = -d
		}
		if d <= 100 {
			short++
		}
	})
	if frac := float64(short) / float64(total); frac < 0.9 {
		t.Errorf("banded fraction = %.2f, want > 0.9", frac)
	}
	// Chronology: every vertex's citations point to earlier vertices only,
	// so the undirected graph is connected through time.
	if c := Components(g); c.Count != 1 {
		t.Errorf("citation band has %d components", c.Count)
	}
}

func TestCitationBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero window")
		}
	}()
	CitationBand(10, 2, 0, 0, 1)
}

func TestRingGridStar(t *testing.T) {
	ring := Ring(6)
	if ring.NumEdges() != 12 {
		t.Errorf("ring edges = %d, want 12", ring.NumEdges())
	}
	for v := 0; v < 6; v++ {
		if ring.OutDegree(VertexID(v)) != 2 {
			t.Errorf("ring vertex %d degree != 2", v)
		}
	}
	grid := Grid(3, 4)
	if grid.NumVertices() != 12 {
		t.Errorf("grid vertices = %d", grid.NumVertices())
	}
	// 3x4 grid: horizontal 3*3=9, vertical 2*4=8 undirected edges.
	if grid.NumEdges() != 2*(9+8) {
		t.Errorf("grid edges = %d, want 34", grid.NumEdges())
	}
	star := Star(10)
	if star.OutDegree(0) != 9 {
		t.Errorf("star center degree = %d", star.OutDegree(0))
	}
}

func TestCompleteAndTreeAndPath(t *testing.T) {
	k := Complete(5)
	if k.NumEdges() != 20 {
		t.Errorf("K5 directed edges = %d, want 20", k.NumEdges())
	}
	tr := BinaryTree(7)
	if tr.NumEdges() != 12 {
		t.Errorf("tree edges = %d, want 12", tr.NumEdges())
	}
	if c := Components(tr); c.Count != 1 {
		t.Error("tree not connected")
	}
	p := Path(4)
	if p.NumEdges() != 6 {
		t.Errorf("path edges = %d, want 6", p.NumEdges())
	}
}

func TestDatasetsSmallWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for _, g := range AllDatasets() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if c := Components(g); c.Count != 1 {
				t.Fatalf("dataset %s has %d components, want connected", g.Name(), c.Count)
			}
			st := ComputeStats(g, 8, 99)
			if st.EffectiveDiameter < 2.5 || st.EffectiveDiameter > 25 {
				t.Errorf("%s effective diameter %.1f outside small-world band", g.Name(), st.EffectiveDiameter)
			}
			t.Logf("%s: V=%d E=%d effDiam=%.1f avgDeg=%.1f maxDeg=%d",
				st.Name, st.Vertices, st.Edges, st.EffectiveDiameter, st.AvgDegree, st.MaxDegree)
		})
	}
}

func TestDatasetLookup(t *testing.T) {
	if Dataset("nope") != nil {
		t.Error("unknown dataset should be nil")
	}
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	if Dataset("wg") != DatasetWG() {
		t.Error("Dataset(wg) should return cached WG'")
	}
}
