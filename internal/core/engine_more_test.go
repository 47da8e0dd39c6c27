package core

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
)

// TestTinyFlushForcesManyBatches drives the bulk-transfer path with a flush
// threshold smaller than one message, so every remote message ships in its
// own batch; results must be unchanged.
func TestTinyFlushForcesManyBatches(t *testing.T) {
	g := graph.ErdosRenyi(200, 600, 11)
	spec := bfsSpec(g, 4, 0)
	spec.FlushBytes = 1
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkBFSMatches(t, g, res, 0)
	// Per-message batches carry a header each: wire bytes must exceed the
	// bulk-batched equivalent.
	bulk, err := Run(bfsSpec(g, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	var tiny, big int64
	for _, s := range res.Steps {
		tiny += s.RemoteBytes
	}
	for _, s := range bulk.Steps {
		big += s.RemoteBytes
	}
	if tiny <= big {
		t.Errorf("per-message batches (%d bytes) should cost more wire than bulk (%d)", tiny, big)
	}
}

// TestAggregatorsOverTCP ensures aggregator reduction works when workers
// communicate over real sockets (values travel via the control plane).
func TestAggregatorsOverTCP(t *testing.T) {
	g := graph.Ring(32)
	var checked atomic.Int64
	spec := JobSpec[uint32]{
		Graph:          g,
		NumWorkers:     4,
		NetworkFactory: tcpNetwork,
		Codec:          Uint32Codec{},
		NewProgram: func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] {
			return computeFunc[uint32](func(ctx *Context[uint32], msgs []uint32) {
				switch ctx.Superstep() {
				case 0:
					ctx.Aggregate("count", 1)
				case 1:
					if v, ok := ctx.Agg("count"); ok && v == 32 {
						checked.Add(1)
					}
					ctx.VoteToHalt()
					return
				}
			})
		},
		ActivateAll: true,
	}
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	if checked.Load() != 32 {
		t.Errorf("only %d/32 vertices saw the reduced aggregate", checked.Load())
	}
}

// TestCombinerOnRemotePath verifies sender-side combining across workers:
// with a min combiner, each worker sends at most one message per remote
// destination vertex per superstep.
func TestCombinerOnRemotePath(t *testing.T) {
	// Star graph: all leaves message the center simultaneously.
	g := graph.Star(64)
	spec := JobSpec[uint32]{
		Graph:      g,
		NumWorkers: 4,
		Codec:      Uint32Codec{},
		Combiner:   MinUint32Combiner{},
		NewProgram: func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] {
			return computeFunc[uint32](func(ctx *Context[uint32], msgs []uint32) {
				if ctx.Superstep() == 0 && ctx.Vertex() != 0 {
					ctx.Send(0, uint32(ctx.Vertex()))
				}
				ctx.VoteToHalt()
			})
		},
		ActivateAll: true,
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 63 leaves over 4 workers; combining is per compute slot (4 cores), so
	// each of the 3 non-center workers sends at most 4 combined messages
	// instead of ~16 raw ones. (Receivers combine again on delivery, so the
	// center still processes one merged message.) SentRemote counts
	// post-combine transfers.
	maxExpected := int64(3 * 4) // (workers-1) x compute slots
	if sent := res.Steps[0].SentRemote; sent > maxExpected || sent < 3 {
		t.Errorf("remote sends after combining = %d, want in [3,%d]", sent, maxExpected)
	}
	if sent := res.Steps[0].SentRemote; sent >= 48 {
		t.Errorf("combining had no effect: %d sends", sent)
	}
}

// TestWorkerStatsBalanced checks WorkerActive sums match ActiveVertices.
func TestWorkerStatsBalanced(t *testing.T) {
	g := graph.ErdosRenyi(256, 1024, 3)
	res, err := Run(bfsSpec(g, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		var sum int64
		for _, a := range s.WorkerActive {
			sum += a
		}
		if sum != s.ActiveVertices {
			t.Fatalf("step %d: worker active sum %d != %d", s.Superstep, sum, s.ActiveVertices)
		}
	}
}

// TestMultiRootInjectionAcrossSteps injects different sources at different
// supersteps via a swath runner and checks all are eventually traversed.
func TestMultiRootInjectionAcrossSteps(t *testing.T) {
	g := graph.Ring(64)
	sources := []graph.VertexID{0, 16, 32, 48}
	seen := make([]atomic.Bool, 64)
	spec := JobSpec[uint32]{
		Graph:      g,
		NumWorkers: 4,
		Codec:      Uint32Codec{},
		Scheduler:  NewSwathRunner(sources, StaticSizer(1), StaticNInitiator(3)),
		NewProgram: func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] {
			return computeFunc[uint32](func(ctx *Context[uint32], msgs []uint32) {
				if ctx.IsInjected() {
					seen[ctx.Vertex()].Store(true)
					ctx.SendToNeighbors(1)
				}
				ctx.VoteToHalt()
			})
		},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sources {
		if !seen[s].Load() {
			t.Errorf("source %d never injected", s)
		}
	}
	var injected int
	for _, s := range res.Steps {
		injected += s.Injected
	}
	if injected != len(sources) {
		t.Errorf("injected %d total, want %d", injected, len(sources))
	}
}

// TestEngineWithMETISAssignment is a cross-module integration test: BFS over
// TCP with a multilevel partition must agree with the sequential reference.
func TestEngineWithMETISAssignment(t *testing.T) {
	g := graph.WattsStrogatz(500, 6, 0.1, 5)
	spec := bfsSpec(g, 4, 7)
	spec.NetworkFactory = tcpNetwork
	spec.Assignment = partition.NewMultilevel().Partition(g, 4)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkBFSMatches(t, g, res, 7)
}

// TestDeterministicSimTime: two identical runs must produce identical
// simulated timings and message counts (the reproducibility guarantee).
func TestDeterministicSimTime(t *testing.T) {
	g := graph.DatasetSD()
	run := func() *JobResult[uint32] {
		res, err := Run(bfsSpec(g, 4, 3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.SimSeconds != b.SimSeconds {
		t.Errorf("sim time differs: %v vs %v", a.SimSeconds, b.SimSeconds)
	}
	if a.TotalMessages() != b.TotalMessages() {
		t.Errorf("messages differ: %d vs %d", a.TotalMessages(), b.TotalMessages())
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("superstep counts differ")
	}
	for i := range a.Steps {
		if a.Steps[i].TotalSent() != b.Steps[i].TotalSent() ||
			a.Steps[i].PeakMemoryBytes != b.Steps[i].PeakMemoryBytes {
			t.Fatalf("step %d stats differ", i)
		}
	}
}

// Property: a SwathRunner injects every source exactly once, whatever the
// (arbitrary) stat sequence it observes.
func TestSwathRunnerInjectsAllProperty(t *testing.T) {
	f := func(nSources uint8, sizes uint8, statSeed int64) bool {
		n := int(nSources%40) + 1
		size := int(sizes%7) + 1
		sources := make([]graph.VertexID, n)
		for i := range sources {
			sources[i] = graph.VertexID(i)
		}
		r := NewSwathRunner(sources, StaticSizer(size), DynamicPeakInitiator{})
		seen := make(map[graph.VertexID]int)
		var prev *StepStats
		for step := 0; step < 10*n+20; step++ {
			for _, v := range r.NextSources(prev) {
				seen[v]++
			}
			// Synthesize wandering activity stats; periodically quiesce.
			s := &StepStats{}
			if step%3 == 2 {
				s.ActiveVertices, s.ActiveAfter = 0, 0
			} else {
				s.ActiveVertices = int64((statSeed+int64(step))%50 + 1)
				s.SentLocal = int64((statSeed*7+int64(step)*13)%1000 + 1)
			}
			prev = s
		}
		if !r.Done() {
			return false
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestJobResultHelpers covers TotalMessages / PeakMemory aggregation.
func TestJobResultHelpers(t *testing.T) {
	r := &JobResult[uint32]{Steps: []StepStats{
		{SentLocal: 5, SentRemote: 3, PeakMemoryBytes: 100},
		{SentLocal: 2, PeakMemoryBytes: 300},
	}}
	if r.TotalMessages() != 10 {
		t.Errorf("TotalMessages = %d", r.TotalMessages())
	}
	if r.PeakMemory() != 300 {
		t.Errorf("PeakMemory = %d", r.PeakMemory())
	}
}
