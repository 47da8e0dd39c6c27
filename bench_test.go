package pregelnet

// Benchmark harness: the engine's hot-path rows (BenchmarkHotPath), ablation
// benchmarks for the design choices DESIGN.md calls out, and
// micro-benchmarks of the codecs, partitioners and generators. The paper's
// tables and figures run through `go run ./cmd/experiments run <id>` and, at
// quick scale, TestAllExperimentsQuick in internal/experiments.

import (
	"fmt"
	"testing"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// BenchmarkHotPath is the allocation-counting suite: each op is one full
// job run (or one batch round trip for the transport rows). Run it with
// -benchmem for B/op and allocs/op; whole-job rows also report
// supersteps/op, so per-superstep numbers are one division away.
func BenchmarkHotPath(b *testing.B) {
	b.Run("superstep/pagerank-channel", benchPageRankChannel)
	b.Run("superstep/bc-channel", benchBCChannel)
	b.Run("superstep/sssp-grid", benchSSSPGrid)
	b.Run("model/sssp-vertex-metis", benchSSSPVertexMetis)
	b.Run("model/sssp-subgraph-metis", benchSSSPSubgraphMetis)
	b.Run("model/wcc-vertex-metis", benchWCCVertexMetis)
	b.Run("model/wcc-subgraph-metis", benchWCCSubgraphMetis)
	b.Run("e2e/pagerank-tcp", benchPageRankTCP)
	b.Run("e2e/bc-tcp", benchBCTCP)
	b.Run("transport/tcp-batch-roundtrip", benchTCPBatchRoundTrip)
	b.Run("transport/channel-batch-roundtrip", benchChannelBatchRoundTrip)
}

// benchPageRankChannel measures a full PageRank job on SD' over the
// in-process channel transport: the pure engine superstep hot path
// (compute, combine, encode, deliver) without socket costs.
func benchPageRankChannel(b *testing.B) {
	g := graph.DatasetSD()
	b.ReportAllocs()
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		res, err := core.Run(algorithms.PageRank{Iterations: 10, Damping: 0.85}.Spec(g, 4))
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Supersteps
	}
	b.ReportMetric(float64(steps), "supersteps/op")
}

// benchBCChannel measures a full BC job (8 roots, all at once) on SD' over
// the channel transport: the message-heavy workload with per-root state.
func benchBCChannel(b *testing.B) {
	g := graph.DatasetSD()
	roots := core.FirstNSources(g, 8)
	b.ReportAllocs()
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		res, err := core.Run(algorithms.BC(g, 4, core.NewAllAtOnce(roots)))
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Supersteps
	}
	b.ReportMetric(float64(steps), "supersteps/op")
}

// benchSSSPGrid measures SSSP on a 128x128 grid, 2 workers of one compute
// slot each, over the channel transport: 256 supersteps whose frontier is
// at most 128 vertices, so ns/superstep is mostly the fixed cost of a
// superstep (step token, frontier, merge, barrier) that the repo
// benchmark's sssp-grid-steps pays a thousand times.
func benchSSSPGrid(b *testing.B) {
	g := graph.Grid(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		spec := algorithms.SSSP(g, 2, 0)
		spec.ComputeParallelism = 1
		res, err := core.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Supersteps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/superstep")
	b.ReportMetric(float64(steps), "supersteps/op")
}

// benchPageRankTCP measures the end-to-end PageRank job over real loopback
// TCP sockets — the configuration the paper's data plane targets.
func benchPageRankTCP(b *testing.B) {
	g := graph.DatasetSD()
	b.ReportAllocs()
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		net, err := transport.NewTCPNetwork(4)
		if err != nil {
			b.Fatal(err)
		}
		spec := algorithms.PageRank{Iterations: 10, Damping: 0.85}.Spec(g, 4)
		spec.Network = net
		res, err := core.Run(spec)
		net.Close()
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Supersteps
	}
	b.ReportMetric(float64(steps), "supersteps/op")
}

// benchBCTCP measures the end-to-end BC job over TCP.
func benchBCTCP(b *testing.B) {
	g := graph.DatasetSD()
	roots := core.FirstNSources(g, 8)
	b.ReportAllocs()
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		net, err := transport.NewTCPNetwork(4)
		if err != nil {
			b.Fatal(err)
		}
		spec := algorithms.BC(g, 4, core.NewAllAtOnce(roots))
		spec.Network = net
		res, err := core.Run(spec)
		net.Close()
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Supersteps
	}
	b.ReportMetric(float64(steps), "supersteps/op")
}

// benchBatchRoundTrip pushes 4 KiB batches through a 2-worker network and
// waits for each on the receive side: framing, syscall, and per-batch
// allocation costs in isolation.
func benchBatchRoundTrip(b *testing.B, network transport.Network, cleanup func()) {
	defer cleanup()
	sender, err := network.Endpoint(0)
	if err != nil {
		b.Fatal(err)
	}
	receiver, err := network.Endpoint(1)
	if err != nil {
		b.Fatal(err)
	}
	const payloadSize = 4 << 10
	recvd := make(chan int64, 256)
	go func() {
		for {
			batch, err := receiver.Recv()
			if err != nil {
				close(recvd)
				return
			}
			size := batch.WireSize()
			transport.PutBatch(batch)
			recvd <- size
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := make([]byte, payloadSize)
		//pregelvet:ignore epochstamp raw wire benchmark, no recovery epochs in play
		err := sender.Send(&transport.Batch{
			From: 0, To: 1, Superstep: int32(i), Count: 64, Seq: int32(i + 1),
			Payload: payload,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := <-recvd; !ok {
			b.Fatal("receiver closed early")
		}
	}
	b.SetBytes(payloadSize)
}

func benchTCPBatchRoundTrip(b *testing.B) {
	net, err := transport.NewTCPNetwork(2)
	if err != nil {
		b.Fatal(err)
	}
	benchBatchRoundTrip(b, net, func() { net.Close() })
}

func benchChannelBatchRoundTrip(b *testing.B) {
	net := transport.NewChannelNetwork(2, 256)
	benchBatchRoundTrip(b, net, func() { net.Close() })
}

// Programming-model benchmarks: the same traversal under the vertex-centric
// and subgraph-centric execution paths, on a high-diameter graph with
// multilevel (locality-preserving) partitioning — the regime where
// partition-local convergence pays.

// benchModelGraph is shared by the model/* benches: a 64x64 grid has
// diameter 126 so vertex-centric traversals need >120 supersteps while the
// subgraph path needs roughly the partition-hop diameter.
func benchModelGraph() *graph.Graph { return graph.Grid(64, 64) }

func runModelBench[M any](b *testing.B, mk func(g *graph.Graph) core.JobSpec[M]) {
	g := benchModelGraph()
	asn := partition.NewMultilevel().Partition(g, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		spec := mk(g)
		spec.Assignment = asn
		res, err := core.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Supersteps
	}
	b.ReportMetric(float64(steps), "supersteps/op")
}

func benchSSSPVertexMetis(b *testing.B) {
	runModelBench(b, func(g *graph.Graph) core.JobSpec[uint32] {
		return algorithms.SSSP(g, 4, 0)
	})
}

func benchSSSPSubgraphMetis(b *testing.B) {
	runModelBench(b, func(g *graph.Graph) core.JobSpec[uint32] {
		return algorithms.SSSPSubgraph(g, 4, 0)
	})
}

func benchWCCVertexMetis(b *testing.B) {
	runModelBench(b, func(g *graph.Graph) core.JobSpec[uint32] {
		return algorithms.WCC(g, 4)
	})
}

func benchWCCSubgraphMetis(b *testing.B) {
	runModelBench(b, func(g *graph.Graph) core.JobSpec[uint32] {
		return algorithms.WCCSubgraph(g, 4)
	})
}

// ---- Ablation benchmarks (design choices from DESIGN.md) ----

// BenchmarkAblationThrash compares BC under memory pressure with the
// virtual-memory thrash model enabled vs disabled. Without it, the paper's
// swath heuristics would have nothing to win: the baseline single swath
// would be optimal.
func BenchmarkAblationThrash(b *testing.B) {
	g := graph.DatasetSD()
	roots := core.FirstNSources(g, 16)
	probe, err := core.Run(bcSpec(g, roots, cloud.DefaultCostModel(cloud.LargeVM())))
	if err != nil {
		b.Fatal(err)
	}
	phys := int64(float64(probe.PeakMemory()) / 1.45)
	for _, thrash := range []float64{1, 8} {
		b.Run(fmt.Sprintf("thrashFactor=%g", thrash), func(b *testing.B) {
			model := cloud.DefaultCostModel(cloud.LargeVM().WithMemory(phys))
			model.ThrashMaxFactor = thrash
			var sim float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(bcSpec(g, roots, model))
				if err != nil {
					b.Fatal(err)
				}
				sim = res.SimSeconds
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}

// BenchmarkAblationBulkSize varies the bulk-transfer flush threshold: tiny
// buffers mean per-message batches (no "bulk" benefit); the default 64 KiB
// amortizes batch headers, which is the paper's motivation for buffering.
func BenchmarkAblationBulkSize(b *testing.B) {
	g := graph.DatasetSD()
	roots := core.FirstNSources(g, 8)
	for _, flush := range []int{64, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("flushBytes=%d", flush), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				spec := bcSpec(g, roots, cloud.DefaultCostModel(cloud.LargeVM()))
				spec.FlushBytes = flush
				res, err := core.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				bytes = 0
				for _, s := range res.Steps {
					bytes += s.RemoteBytes
				}
			}
			b.ReportMetric(float64(bytes), "wire-bytes")
		})
	}
}

// BenchmarkAblationCombiner measures PageRank with and without the sum
// combiner (Pregel's optimization; reduces same-destination traffic).
func BenchmarkAblationCombiner(b *testing.B) {
	g := graph.DatasetSD()
	for _, combine := range []bool{false, true} {
		b.Run(fmt.Sprintf("combiner=%v", combine), func(b *testing.B) {
			var peak int64
			for i := 0; i < b.N; i++ {
				spec := algorithms.PageRank{Iterations: 10, Damping: 0.85}.Spec(g, 8)
				if !combine {
					spec.Combiner = nil
				}
				res, err := core.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				peak = res.PeakMemory()
			}
			b.ReportMetric(float64(peak), "peak-bytes")
		})
	}
}

// BenchmarkAblationBarrier sweeps the worker count on a fixed small job:
// per-superstep barrier overhead grows with workers, which is what makes
// over-provisioning trough supersteps a loss (paper §VIII).
func BenchmarkAblationBarrier(b *testing.B) {
	g := graph.DatasetSD()
	roots := core.FirstNSources(g, 4)
	for _, workers := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var barrier float64
			for i := 0; i < b.N; i++ {
				spec := algorithms.BC(g, workers, core.NewAllAtOnce(roots))
				res, err := core.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				barrier = 0
				for _, s := range res.Steps {
					barrier += s.BarrierSimSeconds
				}
			}
			b.ReportMetric(barrier, "barrier-sim-s")
		})
	}
}

func bcSpec(g *graph.Graph, roots []graph.VertexID, model cloud.CostModel) core.JobSpec[algorithms.BCMsg] {
	spec := algorithms.BC(g, 8, core.NewAllAtOnce(roots))
	spec.CostModel = model
	return spec
}

// ---- Engine micro-benchmarks ----

// BenchmarkEngineTCPvsChannel compares the two data planes on one workload.
func BenchmarkEngineTCPvsChannel(b *testing.B) {
	g := graph.ErdosRenyi(2000, 8000, 5)
	run := func(b *testing.B, tcp bool) {
		for i := 0; i < b.N; i++ {
			spec := algorithms.SSSP(g, 4, 0)
			if tcp {
				net, err := NewTCPNetwork(4)
				if err != nil {
					b.Fatal(err)
				}
				spec.Network = net
			}
			if _, err := core.Run(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("channel", func(b *testing.B) { run(b, false) })
	b.Run("tcp", func(b *testing.B) { run(b, true) })
}

// BenchmarkPartitioners measures partitioning throughput on WG'.
func BenchmarkPartitioners(b *testing.B) {
	g := graph.DatasetWG()
	for _, p := range []partition.Partitioner{
		partition.Hash{},
		partition.NewLDG(partition.DefaultSlack),
		partition.NewMultilevel(),
	} {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Partition(g, 8)
			}
		})
	}
}

// BenchmarkBCCodec measures the hot message encode/decode path.
func BenchmarkBCCodec(b *testing.B) {
	codec := algorithms.BCCodec{}
	msg := algorithms.BCMsg{Root: 5, Kind: 1, From: 9, Aux: 3, Value: 1.5}
	buf := make([]byte, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = codec.Append(buf[:0], msg)
		m, _ := codec.Decode(buf)
		if m.Root != 5 {
			b.Fatal("corrupt")
		}
	}
}

// BenchmarkGraphGenerators measures dataset-scale generation.
func BenchmarkGraphGenerators(b *testing.B) {
	b.Run("barabasi-albert-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.BarabasiAlbert(10000, 4, int64(i))
		}
	})
	b.Run("community-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.Community(10000, 32, 4, 0.85, int64(i))
		}
	})
	b.Run("citation-band-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.CitationBand(10000, 4, 500, 0.02, int64(i))
		}
	})
}

// BenchmarkAblationDiskBuffering contrasts the paper's three buffering
// regimes for BC under memory pressure (§IV): in-memory buffering with the
// plain single swath (thrashes past the ceiling), in-memory buffering with
// adaptive swaths (the paper's design), and Giraph/Hama-style disk-backed
// buffering (no memory pressure, uniform I/O overhead). The paper's design
// choice — in-memory + swaths — should win.
func BenchmarkAblationDiskBuffering(b *testing.B) {
	g := graph.DatasetSD()
	roots := core.FirstNSources(g, 16)
	probe, err := core.Run(bcSpec(g, roots, cloud.DefaultCostModel(cloud.LargeVM())))
	if err != nil {
		b.Fatal(err)
	}
	phys := int64(float64(probe.PeakMemory()) / 1.45)
	target := phys * 6 / 7
	cases := []struct {
		name string
		run  func() (*core.JobResult[algorithms.BCMsg], error)
	}{
		{"memory-single-swath", func() (*core.JobResult[algorithms.BCMsg], error) {
			return core.Run(bcSpec(g, roots, cloud.DefaultCostModel(cloud.LargeVM().WithMemory(phys))))
		}},
		{"memory-adaptive-swaths", func() (*core.JobResult[algorithms.BCMsg], error) {
			spec := algorithms.BC(g, 8, core.NewSwathRunner(roots,
				&core.AdaptiveSizer{Initial: 4, TargetMemoryBytes: target}, core.DynamicPeakInitiator{}))
			spec.CostModel = cloud.DefaultCostModel(cloud.LargeVM().WithMemory(phys))
			return core.Run(spec)
		}},
		{"disk-buffered", func() (*core.JobResult[algorithms.BCMsg], error) {
			model := cloud.DefaultCostModel(cloud.LargeVM().WithMemory(phys))
			model.DiskBuffering = true
			return core.Run(bcSpec(g, roots, model))
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res, err := tc.run()
				if err != nil {
					b.Fatal(err)
				}
				sim = res.SimSeconds
			}
			b.ReportMetric(sim, "sim-s")
		})
	}
}
