package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// bfsProgram computes unweighted shortest-path distances from injected
// sources: the canonical traversal exercise for the engine.
type bfsProgram struct {
	dist []int32 // per local vertex, -1 = unreached
}

func newBFSProgram(_ int, _ *graph.Graph, owned []graph.VertexID) VertexProgram[uint32] {
	p := &bfsProgram{dist: make([]int32, len(owned))}
	for i := range p.dist {
		p.dist[i] = -1
	}
	return p
}

func (p *bfsProgram) Compute(ctx *Context[uint32], msgs []uint32) {
	best := int32(-1)
	if ctx.IsInjected() {
		best = 0
	}
	for _, m := range msgs {
		if best < 0 || int32(m) < best {
			best = int32(m)
		}
	}
	li := ctx.LocalIndex()
	if best >= 0 && (p.dist[li] < 0 || best < p.dist[li]) {
		p.dist[li] = best
		ctx.SendToNeighbors(uint32(best + 1))
	}
	ctx.VoteToHalt()
}

func (p *bfsProgram) StateBytes() int64 { return int64(4 * len(p.dist)) }

// bfsDistances merges per-worker results into a global distance array.
func bfsDistances(res *JobResult[uint32], n int) []int32 {
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	for w, prog := range res.Programs {
		p := prog.(*bfsProgram)
		for li, v := range res.Owned[w] {
			dist[v] = p.dist[li]
		}
	}
	return dist
}

func bfsSpec(g *graph.Graph, workers int, src graph.VertexID) JobSpec[uint32] {
	return JobSpec[uint32]{
		Graph:      g,
		NumWorkers: workers,
		NewProgram: newBFSProgram,
		Codec:      Uint32Codec{},
		Scheduler:  NewAllAtOnce([]graph.VertexID{src}),
	}
}

func checkBFSMatches(t *testing.T, g *graph.Graph, res *JobResult[uint32], src graph.VertexID) {
	t.Helper()
	want := graph.BFS(g, src)
	got := bfsDistances(res, g.NumVertices())
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: dist = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBFSSingleWorker(t *testing.T) {
	g := graph.Ring(32)
	res, err := Run(bfsSpec(g, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	checkBFSMatches(t, g, res, 5)
	// A ring of 32 from one source: eccentricity 16 → 16 message-passing
	// steps + injection step + final empty step.
	if res.Supersteps < 17 || res.Supersteps > 19 {
		t.Errorf("supersteps = %d, want ~18", res.Supersteps)
	}
}

func TestBFSMultiWorkerRemoteMessaging(t *testing.T) {
	g := graph.ErdosRenyi(300, 900, 42)
	res, err := Run(bfsSpec(g, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	checkBFSMatches(t, g, res, 0)
	// With hash partitioning most messages must have crossed workers.
	var local, remote int64
	for _, s := range res.Steps {
		local += s.SentLocal
		remote += s.SentRemote
	}
	if remote == 0 || remote < local {
		t.Errorf("expected mostly remote messages, got local=%d remote=%d", local, remote)
	}
}

func TestBFSOverTCP(t *testing.T) {
	g := graph.ErdosRenyi(150, 500, 7)
	spec := bfsSpec(g, 3, 1)
	spec.NetworkFactory = tcpNetwork
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkBFSMatches(t, g, res, 1)
}

func TestBFSWithMinCombiner(t *testing.T) {
	g := graph.ErdosRenyi(200, 800, 9)
	spec := bfsSpec(g, 4, 0)
	spec.Combiner = MinUint32Combiner{}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkBFSMatches(t, g, res, 0)
}

func TestCombinerReducesPeakMemory(t *testing.T) {
	g := graph.Complete(64) // every vertex messages every other: max combining
	plain, err := Run(bfsSpec(g, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	spec := bfsSpec(g, 4, 0)
	spec.Combiner = MinUint32Combiner{}
	combined, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if combined.PeakMemory() >= plain.PeakMemory() {
		t.Errorf("combiner did not reduce peak memory: %d vs %d",
			combined.PeakMemory(), plain.PeakMemory())
	}
}

func TestHashAssignmentIsDefault(t *testing.T) {
	g := graph.Ring(16)
	spec := bfsSpec(g, 4, 0)
	spec.Assignment = nil
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
}

func TestCustomAssignment(t *testing.T) {
	g := graph.Ring(64)
	spec := bfsSpec(g, 4, 0)
	spec.Assignment = partition.Chunk{}.Partition(g, 4)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkBFSMatches(t, g, res, 0)
	// Chunked ring: almost all messages are local.
	var local, remote int64
	for _, s := range res.Steps {
		local += s.SentLocal
		remote += s.SentRemote
	}
	if local == 0 || remote > local {
		t.Errorf("chunked ring should be mostly local: local=%d remote=%d", local, remote)
	}
}

// haltImmediately votes to halt without sending anything.
type haltImmediately struct{}

func (haltImmediately) Compute(ctx *Context[uint32], _ []uint32) { ctx.VoteToHalt() }

func TestActivateAllThenHalt(t *testing.T) {
	g := graph.Ring(10)
	res, err := Run(JobSpec[uint32]{
		Graph:       g,
		NumWorkers:  2,
		NewProgram:  func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] { return haltImmediately{} },
		Codec:       Uint32Codec{},
		ActivateAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps != 1 {
		t.Errorf("supersteps = %d, want 1", res.Supersteps)
	}
	if res.Steps[0].ActiveVertices != 10 {
		t.Errorf("active = %d, want 10", res.Steps[0].ActiveVertices)
	}
}

func TestNoActivationIsError(t *testing.T) {
	g := graph.Ring(4)
	_, err := Run(JobSpec[uint32]{
		Graph:      g,
		NumWorkers: 1,
		NewProgram: func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] { return haltImmediately{} },
		Codec:      Uint32Codec{},
	})
	if err == nil || !strings.Contains(err.Error(), "activation") {
		t.Errorf("err = %v, want activation error", err)
	}
}

// chattyProgram never halts and always messages neighbors: used to test the
// MaxSupersteps guard.
type chattyProgram struct{}

func (chattyProgram) Compute(ctx *Context[uint32], _ []uint32) { ctx.SendToNeighbors(1) }

func TestMaxSuperstepsGuard(t *testing.T) {
	g := graph.Ring(8)
	_, err := Run(JobSpec[uint32]{
		Graph:         g,
		NumWorkers:    2,
		NewProgram:    func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] { return chattyProgram{} },
		Codec:         Uint32Codec{},
		ActivateAll:   true,
		MaxSupersteps: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "MaxSupersteps") {
		t.Errorf("err = %v, want MaxSupersteps error", err)
	}
}

func TestMemoryBlowoutFailsJob(t *testing.T) {
	g := graph.Complete(64)
	spec := bfsSpec(g, 2, 0)
	spec.CostModel = cloud.DefaultCostModel(cloud.LargeVM().WithMemory(64)) // absurdly tiny
	_, err := Run(spec)
	if !errors.Is(err, cloud.ErrMemoryBlowout) {
		t.Errorf("err = %v, want ErrMemoryBlowout", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := graph.Ring(40)
	res, err := Run(bfsSpec(g, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	// BFS on a connected graph sends exactly deg(v) messages per first
	// discovery: total = sum over computed vertices of messages... at
	// minimum every vertex forwards once: >= NumEdges messages total? On a
	// ring each vertex sends 2 when discovered: 2*40 ≈ 80 total.
	if res.TotalMessages() < int64(g.NumVertices()) {
		t.Errorf("total messages = %d, too low", res.TotalMessages())
	}
	for _, s := range res.Steps {
		if len(s.WorkerSent) != 4 || len(s.WorkerMemory) != 4 || len(s.WorkerActive) != 4 {
			t.Fatalf("per-worker arrays wrong length: %+v", s)
		}
		var sum int64
		for _, ws := range s.WorkerSent {
			sum += ws
		}
		if sum != s.TotalSent() {
			t.Errorf("step %d: worker sent sum %d != total %d", s.Superstep, sum, s.TotalSent())
		}
		if s.SimSeconds <= 0 {
			t.Errorf("step %d: SimSeconds = %v", s.Superstep, s.SimSeconds)
		}
		if u := s.Utilization(); u < 0 || u > 1 {
			t.Errorf("step %d: utilization %v out of range", s.Superstep, u)
		}
		if s.BarrierSimSeconds <= 0 || s.BarrierSimSeconds > s.SimSeconds {
			t.Errorf("step %d: barrier %v vs total %v", s.Superstep, s.BarrierSimSeconds, s.SimSeconds)
		}
	}
	if res.SimSeconds <= 0 || res.VMSeconds <= 0 || res.CostDollars <= 0 {
		t.Errorf("totals: sim=%v vmsec=%v cost=%v", res.SimSeconds, res.VMSeconds, res.CostDollars)
	}
	if res.WallSeconds <= 0 {
		t.Error("wall time not measured")
	}
}

// aggProgram exercises aggregators: every vertex contributes its degree to
// "deg/sum", then halts after verifying the previous step's global value.
type aggProgram struct {
	t *testing.T
	g *graph.Graph
	// checked is atomic: Compute runs concurrently across a worker's cores.
	checked atomic.Bool
}

func (p *aggProgram) Compute(ctx *Context[uint32], _ []uint32) {
	switch ctx.Superstep() {
	case 0:
		ctx.Aggregate("deg/sum", float64(ctx.Degree()))
	case 1:
		if !p.checked.Swap(true) {
			if v, ok := ctx.Agg("deg/sum"); !ok || v != float64(p.g.NumEdges()) {
				p.t.Errorf("deg/sum = %v (%v), want %d", v, ok, p.g.NumEdges())
			}
		}
		ctx.VoteToHalt()
	}
}

func TestAggregators(t *testing.T) {
	g := graph.ErdosRenyi(64, 128, 3)
	_, err := Run(JobSpec[uint32]{
		Graph:       g,
		NumWorkers:  4,
		NewProgram:  func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] { return &aggProgram{t: t, g: g} },
		Codec:       Uint32Codec{},
		ActivateAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInjectionReachesCorrectWorkerAndFlag(t *testing.T) {
	g := graph.Ring(16)
	injectedSeen := make([]bool, 16)
	type prog struct{ VertexProgram[uint32] }
	_ = prog{}
	res, err := Run(JobSpec[uint32]{
		Graph:      g,
		NumWorkers: 4,
		NewProgram: func(workerID int, _ *graph.Graph, owned []graph.VertexID) VertexProgram[uint32] {
			return computeFunc[uint32](func(ctx *Context[uint32], msgs []uint32) {
				if ctx.IsInjected() {
					injectedSeen[ctx.Vertex()] = true
				}
				ctx.VoteToHalt()
			})
		},
		Codec:     Uint32Codec{},
		Scheduler: NewAllAtOnce([]graph.VertexID{3, 7, 11}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, saw := range injectedSeen {
		want := v == 3 || v == 7 || v == 11
		if saw != want {
			t.Errorf("vertex %d injected=%v, want %v", v, saw, want)
		}
	}
	if res.Steps[0].Injected != 3 {
		t.Errorf("Injected stat = %d, want 3", res.Steps[0].Injected)
	}
}

// computeFunc adapts a function to VertexProgram.
type computeFunc[M any] func(*Context[M], []M)

func (f computeFunc[M]) Compute(ctx *Context[M], msgs []M) { f(ctx, msgs) }

func TestSpecValidation(t *testing.T) {
	g := graph.Ring(4)
	valid := bfsSpec(g, 2, 0)
	cases := []struct {
		name   string
		mutate func(*JobSpec[uint32])
	}{
		{"no graph", func(s *JobSpec[uint32]) { s.Graph = nil }},
		{"zero workers", func(s *JobSpec[uint32]) { s.NumWorkers = 0 }},
		{"no program", func(s *JobSpec[uint32]) { s.NewProgram = nil }},
		{"no codec", func(s *JobSpec[uint32]) { s.Codec = nil }},
		{"short assignment", func(s *JobSpec[uint32]) { s.Assignment = partition.Assignment{0} }},
		{"bad assignment", func(s *JobSpec[uint32]) {
			s.Assignment = partition.Assignment{9, 9, 9, 9}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := valid
			tc.mutate(&spec)
			if _, err := Run(spec); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestLargeParallelism(t *testing.T) {
	g := graph.ErdosRenyi(100, 300, 5)
	spec := bfsSpec(g, 2, 0)
	spec.ComputeParallelism = 16
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkBFSMatches(t, g, res, 0)
}

// tcpNetwork builds a loopback TCP data plane; as a JobSpec.NetworkFactory
// it gives every run segment fresh sockets, which the engine closes.
func tcpNetwork(n int) (transport.Network, error) { return transport.NewTCPNetwork(n) }
