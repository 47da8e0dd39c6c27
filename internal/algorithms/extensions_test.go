package algorithms

import (
	"math"
	"testing"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

func TestTrianglesMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"complete-6", graph.Complete(6)}, // C(6,3)=20 triangles
		{"ring", graph.Ring(12)},          // 0 triangles
		{"ba", graph.BarabasiAlbert(300, 4, 5)},
		{"er", graph.ErdosRenyi(200, 800, 6)},
		{"community", graph.Community(400, 4, 4, 0.9, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Run(Triangles(tc.g, 4))
			if err != nil {
				t.Fatal(err)
			}
			got := TriangleCount(res)
			want := TrianglesSequential(tc.g)
			if got != want {
				t.Fatalf("triangles = %d, want %d", got, want)
			}
			// The aggregator agrees with the atomic counter.
			var agg float64
			for _, s := range res.Steps {
				if v, ok := s.Aggregates["triangles"]; ok {
					agg += v
				}
			}
			if int64(agg) != want {
				t.Errorf("aggregate = %v, want %d", agg, want)
			}
		})
	}
}

func TestTrianglesKnownCounts(t *testing.T) {
	res, err := core.Run(Triangles(graph.Complete(5), 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := TriangleCount(res); got != 10 {
		t.Errorf("K5 triangles = %d, want 10", got)
	}
	res2, err := core.Run(Triangles(graph.Star(10), 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := TriangleCount(res2); got != 0 {
		t.Errorf("star triangles = %d, want 0", got)
	}
}

func TestKCoreMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring", graph.Ring(16)},        // all coreness 2
		{"star", graph.Star(12)},        // all coreness 1
		{"complete", graph.Complete(7)}, // all coreness 6
		{"ba", graph.BarabasiAlbert(250, 3, 9)},
		{"er", graph.ErdosRenyi(150, 450, 11)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Run(KCore(tc.g, 4))
			if err != nil {
				t.Fatal(err)
			}
			got := Coreness(res, tc.g.NumVertices())
			want := CorenessSequential(tc.g)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d: coreness %d, want %d", v, got[v], want[v])
				}
			}
			// The running StateBytes counter equals the sum it replaced.
			for w, prog := range res.Programs {
				p := prog.(*kcoreProgram)
				var sum int64
				for li := range p.nbrEst {
					sum += 4 + int64(16*len(p.nbrEst[li]))
				}
				if got := p.StateBytes(); got != sum {
					t.Errorf("worker %d: StateBytes = %d, recomputed %d", w, got, sum)
				}
			}
		})
	}
}

func TestKCoreKnownValues(t *testing.T) {
	// A triangle with a dangling two-vertex tail: triangle vertices have
	// coreness 2, tail vertices peel away at 1.
	b := graph.NewBuilder(5)
	b.AddUndirected(0, 1)
	b.AddUndirected(1, 2)
	b.AddUndirected(2, 0) // triangle
	b.AddUndirected(2, 3)
	b.AddUndirected(3, 4) // tail
	g := b.Build()
	res, err := core.Run(KCore(g, 3))
	if err != nil {
		t.Fatal(err)
	}
	got := Coreness(res, 5)
	want := []uint32{2, 2, 2, 1, 1}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("coreness = %v, want %v", got, want)
		}
	}
}

func TestEstimateDiameter(t *testing.T) {
	// Exact on a ring with full sampling: max distance = n/2.
	est, err := EstimateDiameter(graph.Ring(20), 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if est.Max != 10 {
		t.Errorf("ring max distance = %d, want 10", est.Max)
	}
	if est.Effective90 < 8 || est.Effective90 > 10 {
		t.Errorf("ring eff90 = %.2f, want ~9", est.Effective90)
	}
	// Consistent with the sequential estimator on a random graph.
	g := graph.BarabasiAlbert(500, 3, 13)
	est2, err := EstimateDiameter(g, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	ref := graph.ComputeStats(g, 32, 99)
	if math.Abs(est2.Effective90-ref.EffectiveDiameter) > 1.5 {
		t.Errorf("eff90 %.2f vs sequential %.2f", est2.Effective90, ref.EffectiveDiameter)
	}
	if est2.AvgPath <= 1 || est2.Samples != 32 {
		t.Errorf("estimate = %+v", est2)
	}
}

func TestWeightedSSSPMatchesDijkstra(t *testing.T) {
	g := graph.ErdosRenyi(200, 600, 23)
	wg := graph.RandomWeights(g, 1, 5, 7)
	res, err := core.Run(WeightedSSSP(wg, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	got := WeightedDistances(res, g.NumVertices())
	want := wg.DijkstraReference(0)
	for v := range want {
		if want[v] > 1e300 {
			if !math.IsInf(got[v], 1) {
				t.Fatalf("vertex %d should be unreachable, got %v", v, got[v])
			}
			continue
		}
		if math.Abs(got[v]-want[v]) > 1e-6 {
			t.Fatalf("vertex %d: dist %v, want %v", v, got[v], want[v])
		}
	}
}

func TestWeightedSSSPUniformEqualsBFS(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 9)
	wg := graph.UniformWeights(g)
	res, err := core.Run(WeightedSSSP(wg, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := WeightedDistances(res, g.NumVertices())
	ref := graph.BFS(g, 2)
	for v := range ref {
		if ref[v] >= 0 && math.Abs(got[v]-float64(ref[v])) > 1e-9 {
			t.Fatalf("vertex %d: %v vs BFS %d", v, got[v], ref[v])
		}
	}
}
