package algorithms

import (
	"math"
	"testing"

	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// Equality tests for the subgraph-centric ports: SSSP, WCC, and weighted
// SSSP must be bit-identical to their vertex-centric counterparts (their
// state is an order-independent min fixpoint), over both the channel and
// TCP transports and under both hash and multilevel partitioning. BC is
// deterministic but accumulates floats in a different (id-sorted) order
// than the vertex program, so it is compared with an ULP-scale tolerance.

// tcpNetwork builds a loopback TCP data plane; as a JobSpec.NetworkFactory
// it gives every run segment fresh sockets, which the engine closes.
func tcpNetwork(n int) (transport.Network, error) { return transport.NewTCPNetwork(n) }

// subgraphHarness runs spec under the named transport and partitioner.
func subgraphHarness[M any](t *testing.T, spec core.JobSpec[M], transportName string, part partition.Partitioner, workers int) *core.JobResult[M] {
	t.Helper()
	if transportName == "tcp" {
		spec.NetworkFactory = tcpNetwork
	}
	if part != nil {
		spec.Assignment = part.Partition(spec.Graph, workers)
	}
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func eachTransportAndPartitioner(t *testing.T, f func(t *testing.T, transportName string, part partition.Partitioner)) {
	for _, tr := range []string{"channel", "tcp"} {
		for _, p := range []partition.Partitioner{partition.Hash{}, partition.NewMultilevel()} {
			t.Run(tr+"/"+p.Name(), func(t *testing.T) { f(t, tr, p) })
		}
	}
}

func TestSubgraphSSSPBitIdentical(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 29)
	want := graph.BFS(g, 3)
	eachTransportAndPartitioner(t, func(t *testing.T, tr string, p partition.Partitioner) {
		res := subgraphHarness(t, SSSPSubgraph(g, 4, 3), tr, p, 4)
		got := SSSPDistances(res, g.NumVertices())
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("vertex %d: dist %d, want %d", v, got[v], want[v])
			}
		}
	})
}

func TestSubgraphWCCBitIdentical(t *testing.T) {
	g := graph.ErdosRenyi(300, 320, 31) // sparse: many components
	vres, err := core.Run(WCC(g, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := WCCLabels(vres, g.NumVertices())
	eachTransportAndPartitioner(t, func(t *testing.T, tr string, p partition.Partitioner) {
		res := subgraphHarness(t, WCCSubgraph(g, 4), tr, p, 4)
		got := WCCLabels(res, g.NumVertices())
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("vertex %d: label %d, want %d", v, got[v], want[v])
			}
		}
	})
}

func TestSubgraphWeightedSSSPBitIdentical(t *testing.T) {
	g := graph.ErdosRenyi(250, 750, 23)
	wg := graph.RandomWeights(g, 1, 5, 7)
	vres, err := core.Run(WeightedSSSP(wg, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := WeightedDistances(vres, g.NumVertices())
	eachTransportAndPartitioner(t, func(t *testing.T, tr string, p partition.Partitioner) {
		res := subgraphHarness(t, WeightedSSSPSubgraph(wg, 4, 0), tr, p, 4)
		got := WeightedDistances(res, g.NumVertices())
		for v := range want {
			// Bit-identical: exact min over per-path left-associated sums.
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("vertex %d: dist %v, want %v (not bit-identical)", v, got[v], want[v])
			}
		}
	})
}

func checkBCSubgraphMatches(t *testing.T, g *graph.Graph, workers int, roots []graph.VertexID, tr string, p partition.Partitioner) *core.JobResult[BCMsg] {
	t.Helper()
	res := subgraphHarness(t, BCSubgraph(g, workers, roots), tr, p, workers)
	got := BCSubgraphScores(res, g.NumVertices())
	want := BCSequential(g, roots)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("vertex %d: BC %v, want %v", v, got[v], want[v])
		}
	}
	return res
}

func TestSubgraphBCMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		workers int
		nroots  int
	}{
		{"path", graph.Path(9), 3, 9},
		{"star", graph.Star(8), 3, 8},
		{"ring", graph.Ring(4), 2, 4}, // two equal shortest paths: sigma must split credit
		{"ba", graph.BarabasiAlbert(200, 3, 21), 4, 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			roots := Sources(tc.g, tc.nroots)
			checkBCSubgraphMatches(t, tc.g, tc.workers, roots, "channel", partition.Hash{})
		})
	}
}

func TestSubgraphBCRandomGraphAllRoots(t *testing.T) {
	g := graph.ErdosRenyi(120, 360, 13)
	lcc, _ := graph.LargestComponentSubgraph(g)
	roots := Sources(lcc, lcc.NumVertices())
	eachTransportAndPartitioner(t, func(t *testing.T, tr string, p partition.Partitioner) {
		checkBCSubgraphMatches(t, lcc, 4, roots, tr, p)
	})
}

func TestSubgraphBCMatchesVertexCentric(t *testing.T) {
	// The two models accumulate floats in different orders, so agreement is
	// ULP-scale, not bit-exact (documented in DESIGN.md).
	g := graph.BarabasiAlbert(150, 3, 41)
	roots := Sources(g, 20)
	vres, err := core.Run(BC(g, 4, core.NewAllAtOnce(roots)))
	if err != nil {
		t.Fatal(err)
	}
	want := BCScores(vres, g.NumVertices())
	res := subgraphHarness(t, BCSubgraph(g, 4, roots), "channel", partition.NewMultilevel(), 4)
	got := BCSubgraphScores(res, g.NumVertices())
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("vertex %d: subgraph %v vs vertex %v", v, got[v], want[v])
		}
	}
}

func TestSubgraphBCDeterministicAcrossTransports(t *testing.T) {
	// Unlike the vertex program (whose sums follow the engine's delivery
	// order, which depends on the assignment), the subgraph port sorts all
	// contribution lists by vertex id, so scores must be BIT-identical across
	// transports and partitioners.
	g := graph.BarabasiAlbert(180, 3, 55)
	roots := Sources(g, 20)
	var base []float64
	eachTransportAndPartitioner(t, func(t *testing.T, tr string, p partition.Partitioner) {
		res := subgraphHarness(t, BCSubgraph(g, 4, roots), tr, p, 4)
		got := BCSubgraphScores(res, g.NumVertices())
		if base == nil {
			base = got
			return
		}
		for v := range base {
			if math.Float64bits(got[v]) != math.Float64bits(base[v]) {
				t.Fatalf("vertex %d: %v vs %v (not bit-identical)", v, got[v], base[v])
			}
		}
	})
}

func TestSubgraphSuperstepAndMessageReduction(t *testing.T) {
	// The tentpole claim, in miniature: on a high-diameter graph under
	// multilevel partitioning, partition-local convergence must cut
	// supersteps by >=3x and remote message volume by >=2x vs vertex-centric.
	g := graph.Path(512)
	ml := partition.NewMultilevel()

	vspec := SSSP(g, 4, 0)
	vspec.Assignment = ml.Partition(g, 4)
	vres, err := core.Run(vspec)
	if err != nil {
		t.Fatal(err)
	}
	sres := subgraphHarness(t, SSSPSubgraph(g, 4, 0), "channel", ml, 4)

	got := SSSPDistances(sres, g.NumVertices())
	want := graph.BFS(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist %d, want %d", v, got[v], want[v])
		}
	}
	if 3*sres.Supersteps > vres.Supersteps {
		t.Errorf("supersteps: subgraph %d vs vertex %d, want >=3x reduction", sres.Supersteps, vres.Supersteps)
	}

	// Message volume needs a workload where the vertex model re-floods
	// boundary edges as values improve superstep after superstep: min-label
	// WCC on a ring. (On the path SSSP above each boundary edge is crossed
	// once in either model, so message counts tie.)
	rg := graph.Ring(256)
	wv := WCC(rg, 4)
	wv.Assignment = ml.Partition(rg, 4)
	wvres, err := core.Run(wv)
	if err != nil {
		t.Fatal(err)
	}
	wsres := subgraphHarness(t, WCCSubgraph(rg, 4), "channel", ml, 4)
	sumRemote := func(res *core.JobResult[uint32]) (n int64) {
		for _, s := range res.Steps {
			n += s.SentRemote
		}
		return n
	}
	if 3*wsres.Supersteps > wvres.Supersteps {
		t.Errorf("WCC supersteps: subgraph %d vs vertex %d, want >=3x reduction", wsres.Supersteps, wvres.Supersteps)
	}
	if vr, sr := sumRemote(wvres), sumRemote(wsres); sr*2 > vr {
		t.Errorf("WCC remote messages: subgraph %d vs vertex %d, want >=2x reduction", sr, vr)
	}
}

// TestChaosSoakSubgraphTCP drives the hardest subgraph program (BC, with
// its aggregate-driven phase machine and per-root partition state) over the
// real TCP transport under a seeded fault plan — duplicated control
// messages, transient blob errors, and a scripted VM restart recovered via
// confined recovery — and requires the scores to be bit-identical to a
// clean run (the subgraph port is fully deterministic).
func TestChaosSoakSubgraphTCP(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 77)
	roots := Sources(g, 15)

	clean := subgraphHarness(t, BCSubgraph(g, 4, roots), "channel", partition.NewMultilevel(), 4)
	want := BCSubgraphScores(clean, g.NumVertices())

	spec := BCSubgraph(g, 4, roots)
	spec.Assignment = partition.NewMultilevel().Partition(g, 4)
	spec.CheckpointEvery = 2
	spec.CheckpointStore = cloud.NewBlobStore()
	spec.Chaos = cloud.NewChaos(cloud.FaultPlan{
		Seed:               4242,
		BlobErrorProb:      1,
		MaxBlobErrors:      3,
		QueueDuplicateProb: 1,
		VMRestarts:         []cloud.VMRestart{{Worker: 1, Superstep: 3}},
	})
	spec.NetworkFactory = tcpNetwork

	res, err := core.Run(spec)
	if err != nil {
		t.Fatalf("chaos soak failed: %v", err)
	}
	got := BCSubgraphScores(res, g.NumVertices())
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("vertex %d: %v, want %v (recovery changed the result)", v, got[v], want[v])
		}
	}
	if res.Recoveries < 1 {
		t.Errorf("recoveries = %d, want >= 1 (scripted VM restart)", res.Recoveries)
	}
	if res.VMRestarts != 1 {
		t.Errorf("VMRestarts = %d, want 1", res.VMRestarts)
	}
	if res.DuplicatesDropped == 0 {
		t.Error("DuplicatesDropped = 0, want > 0 (every control message was duplicated)")
	}
}
