package algorithms

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// chaos returns a FailureInjector that kills one worker once.
func chaos(worker, superstep int) (func(int, int) error, *atomic.Bool) {
	var fired atomic.Bool
	return func(w, s int) error {
		if w == worker && s == superstep && !fired.Swap(true) {
			return errors.New("chaos: injected VM failure")
		}
		return nil
	}, &fired
}

func TestBCSurvivesWorkerFailure(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 55)
	roots := Sources(g, 20)
	spec := BC(g, 4, core.NewAllAtOnce(roots))
	spec.CheckpointEvery = 3
	spec.CheckpointStore = cloud.NewBlobStore()
	inject, fired := chaos(1, 7)
	spec.FailureInjector = inject
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("chaos never fired; pick an earlier superstep")
	}
	if res.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", res.Recoveries)
	}
	got := BCScores(res, g.NumVertices())
	want := BCSequential(g, roots)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
			t.Fatalf("vertex %d: BC %v, want %v after recovery", v, got[v], want[v])
		}
	}
}

func TestPageRankSurvivesWorkerFailure(t *testing.T) {
	g := graph.ErdosRenyi(200, 800, 66)
	pr := PageRank{Iterations: 20, Damping: 0.85}
	spec := pr.Spec(g, 4)
	spec.CheckpointEvery = 4
	spec.CheckpointStore = cloud.NewBlobStore()
	inject, fired := chaos(2, 9)
	spec.FailureInjector = inject
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() || res.Recoveries != 1 {
		t.Fatalf("fired=%v recoveries=%d", fired.Load(), res.Recoveries)
	}
	got := Ranks(res, g.NumVertices())
	want := PageRankSequential(g, pr.Iterations, pr.Damping)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("vertex %d: rank %v, want %v after recovery", v, got[v], want[v])
		}
	}
}

func TestAPSPSurvivesWorkerFailure(t *testing.T) {
	g := graph.ErdosRenyi(150, 450, 77)
	roots := Sources(g, 12)
	spec := APSP(g, 3, core.NewSwathRunner(roots, core.StaticSizer(4), core.StaticNInitiator(2)))
	spec.CheckpointEvery = 2
	spec.CheckpointStore = cloud.NewBlobStore()
	inject, fired := chaos(0, 5)
	spec.FailureInjector = inject
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() || res.Recoveries != 1 {
		t.Fatalf("fired=%v recoveries=%d", fired.Load(), res.Recoveries)
	}
	got := APSPDistances(res, g.NumVertices(), roots)
	for i, r := range roots {
		want := graph.BFS(g, r)
		for v := range want {
			if got[i][v] != want[v] {
				t.Fatalf("root %d vertex %d: %d, want %d after recovery", r, v, got[i][v], want[v])
			}
		}
	}
}

func TestWCCAndLPASurviveWorkerFailure(t *testing.T) {
	g := graph.ErdosRenyi(200, 220, 88)
	spec := WCC(g, 3)
	spec.CheckpointEvery = 2
	spec.CheckpointStore = cloud.NewBlobStore()
	inject, _ := chaos(1, 3)
	spec.FailureInjector = inject
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	labels := WCCLabels(res, g.NumVertices())
	ref := graph.Components(g)
	for v := 1; v < g.NumVertices(); v++ {
		if (ref.Labels[v] == ref.Labels[0]) != (labels[v] == labels[0]) {
			t.Fatalf("component mismatch at %d after recovery", v)
		}
	}

	lpa := LPA(g, 3, 8)
	lpa.CheckpointEvery = 2
	lpa.CheckpointStore = cloud.NewBlobStore()
	inject2, _ := chaos(0, 4)
	lpa.FailureInjector = inject2
	res2, err := core.Run(lpa)
	if err != nil {
		t.Fatal(err)
	}
	if len(LPALabels(res2, g.NumVertices())) != g.NumVertices() {
		t.Fatal("lpa labels missing")
	}
}

// stateProgram builds a fresh instance of one built-in program for worker 0
// of a one-worker layout.
type stateProgram struct {
	name string
	new  func() core.StateCodec
	// seed runs the job and suspends it before superstep 2, returning the
	// program instance holding its mid-run state.
	seed func() (core.StateCodec, error)
}

func stateProgramFor[M any](name string, spec core.JobSpec[M]) stateProgram {
	owned := make([]graph.VertexID, spec.Graph.NumVertices())
	for v := range owned {
		owned[v] = graph.VertexID(v)
	}
	return stateProgram{
		name: name,
		new: func() core.StateCodec {
			if spec.NewPartitionProgram != nil {
				return spec.NewPartitionProgram(0, spec.Graph, owned).(core.StateCodec)
			}
			return spec.NewProgram(0, spec.Graph, owned).(core.StateCodec)
		},
		seed: func() (core.StateCodec, error) {
			s := spec
			s.BarrierPreempt = func(next int) bool { return next == 2 }
			res, err := core.Run(s)
			if err != nil {
				return nil, err
			}
			return res.Programs[0].(core.StateCodec), nil
		},
	}
}

// statePrograms lists all eleven built-in programs with per-vertex state.
func statePrograms() []stateProgram {
	g := graph.ErdosRenyi(16, 40, 3)
	roots := Sources(g, 3)
	return []stateProgram{
		stateProgramFor("pagerank", PageRank{Iterations: 4, Damping: 0.85}.Spec(g, 1)),
		stateProgramFor("sssp", SSSP(g, 1, 0)),
		stateProgramFor("wcc", WCC(g, 1)),
		stateProgramFor("lpa", LPA(g, 1, 4)),
		stateProgramFor("apsp", APSP(g, 1, core.NewAllAtOnce(roots))),
		stateProgramFor("bc", BC(g, 1, core.NewAllAtOnce(roots))),
		stateProgramFor("sssp-subgraph", SSSPSubgraph(g, 1, 0)),
		stateProgramFor("wcc-subgraph", WCCSubgraph(g, 1)),
		stateProgramFor("wsssp-subgraph", WeightedSSSPSubgraph(graph.RandomWeights(g, 1, 4, 5), 1, 0)),
		stateProgramFor("bc-subgraph", BCSubgraph(g, 1, roots)),
		stateProgramFor("wsssp", WeightedSSSP(graph.RandomWeights(g, 1, 4, 5), 1, 0)),
	}
}

// FuzzReadVertex feeds arbitrary records to every built-in ReadVertex: no
// input may panic, a success may not claim more bytes than it was given and
// must re-encode to exactly the bytes it consumed, and reading the same
// record again must leave the state-byte meter where it was (ReadVertex
// replaces, never adds). The seeds are the per-vertex records of small real
// runs suspended mid-job.
func FuzzReadVertex(f *testing.F) {
	programs := statePrograms()
	for i, p := range programs {
		prog, err := p.seed()
		if err != nil {
			f.Fatalf("%s: %v", p.name, err)
		}
		for li := int32(0); li < 16; li++ {
			f.Add(uint8(i), prog.AppendVertex(nil, li))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, rec []byte) {
		p := programs[int(which)%len(programs)]
		prog := p.new()
		n, err := prog.ReadVertex(1, rec)
		if err != nil {
			return
		}
		if n < 0 || n > len(rec) {
			t.Fatalf("%s: ReadVertex consumed %d of %d bytes", p.name, n, len(rec))
		}
		if got := prog.AppendVertex(nil, 1); !bytes.Equal(got, rec[:n]) {
			t.Fatalf("%s: record %x re-encodes to %x", p.name, rec[:n], got)
		}
		if sr, ok := prog.(core.StateReporter); ok {
			before := sr.StateBytes()
			if _, err := prog.ReadVertex(1, rec); err != nil {
				t.Fatalf("%s: second read failed: %v", p.name, err)
			}
			if after := sr.StateBytes(); after != before {
				t.Fatalf("%s: re-reading a record moved StateBytes %d -> %d", p.name, before, after)
			}
		}
	})
}

// TestReadVertexRejectsHostileCounts: a record whose predecessor (BC) or
// contribution (subgraph BC) count is 1<<62 used to panic in makeslice; it
// must be an error.
func TestReadVertexRejectsHostileCounts(t *testing.T) {
	u64 := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	g := graph.Ring(4)
	roots := []graph.VertexID{0}
	for _, tc := range []struct {
		name string
		prog stateProgram
		rec  []byte
	}{
		// score, one root: root, dist, discovered, succ, back, sigma, delta, preds.
		{"bc", stateProgramFor("bc", BC(g, 1, core.NewAllAtOnce(roots))), u64(0, 1, 0, 0, 0, 0, 0, 0, 0, 1<<62)},
		// score, one root: root, dist, sigma, delta, forward contributions.
		{"bc-subgraph", stateProgramFor("bc-subgraph", BCSubgraph(g, 1, roots)), u64(0, 1, 0, 0, 0, 0, 1<<62)},
	} {
		if _, err := tc.prog.new().ReadVertex(0, tc.rec); err == nil {
			t.Errorf("%s: a count of 1<<62 was accepted", tc.name)
		}
	}
}
