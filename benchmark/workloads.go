package main

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// Fixed settings shared by every workload. They are recorded here, not
// derived from the machine: two workers with one compute goroutine each
// fill the 2-core sandbox the sizes were chosen on, and a run on a bigger
// machine must still execute the same program.
const (
	numWorkers         = 2
	computeParallelism = 1
)

// Graph500 RMAT quadrant probabilities.
const rmatA, rmatB, rmatC, rmatD = 0.57, 0.19, 0.19, 0.05

// output is a job's result vector: floats for rank/score algorithms, ints
// for distance/label algorithms. Exactly one is set.
type output struct {
	floats []float64
	ints   []int32
}

// workload is one benchmark input plus the job recipe run against it,
// erased over the engine's message type (see engineJob).
type workload struct {
	name string
	// why records what the workload stresses and what it deliberately does
	// not, so a later change can name the workload its gain must show on and
	// the ones it must leave alone.
	why string
	// generate builds the input graph from the seed; tiny selects the
	// test-sized variant of the same shape.
	generate func(seed int64, tiny bool) *graph.Graph
	// textIO loads the input from a text edge list and writes the result as
	// text (the front-end-bound path); otherwise both are binary.
	textIO      bool
	partitioner partition.Partitioner
	network     func(n int) (transport.Network, error)
	// oracle computes the sequential reference on the graph as the job will
	// load it; check compares a job's output against it.
	oracle func(g *graph.Graph) output
	check  func(got, want output) error
	// job runs core.Run for this workload's algorithm and returns the
	// erased run summary plus a deferred result extraction.
	job func(g *graph.Graph, a partition.Assignment, env *jobEnv) (engineRun, func() output, error)
	// codecDrive micro-drives the job's JobSpec.Codec over n messages.
	codecDrive func(n int) (encodeNs, decodeNs float64)
}

func chanNetwork(n int) (transport.Network, error) {
	return transport.NewChannelNetwork(n, 1024), nil
}

func tcpNetwork(n int) (transport.Network, error) {
	tn, err := transport.NewTCPNetwork(n)
	if err != nil {
		return nil, err
	}
	return tn, nil
}

// rmat generates the Graph500-quadrant RMAT graph the PageRank and BC
// workloads run on: largest component only (so every BC root reaches the
// whole graph) with shuffled IDs (so hash partitioning sees no generator
// locality).
func rmat(scale uint, seed int64) *graph.Graph {
	g := graph.RMAT(scale, 8, rmatA, rmatB, rmatC, rmatD, seed)
	g, _ = graph.LargestComponentSubgraph(g)
	return g.ShuffleIDs(seed)
}

// bcSources are the traversal roots of bc-swath-tcp: the highest-degree
// vertices. The rule does not depend on how a seed happens to label the
// graph, and hubs sit at the same depth of every RMAT draw, so the message
// volume (and with it alloc_mb) is a property of the workload rather than of
// which vertices a seed numbered first.
func bcSources(g *graph.Graph) []graph.VertexID {
	return graph.TopDegreeVertices(g, bcRoots)
}

func pick[T any](tiny bool, small, full T) T {
	if tiny {
		return small
	}
	return full
}

// engineJob adapts a typed JobSpec builder and result extractor to the
// erased workload.job signature.
func engineJob[M any](w *workload, build func(g *graph.Graph) core.JobSpec[M],
	extract func(res *core.JobResult[M], n int) output) {
	w.job = func(g *graph.Graph, a partition.Assignment, env *jobEnv) (engineRun, func() output, error) {
		spec := build(g)
		configure(&spec, w, a, env)
		return runEngine(spec, func(res *core.JobResult[M]) output { return extract(res, g.NumVertices()) })
	}
}

func floatsClose(got, want output, ok func(g, w float64) bool, what string) error {
	if len(got.floats) != len(want.floats) {
		return fmt.Errorf("%s: %d values, oracle has %d", what, len(got.floats), len(want.floats))
	}
	for v := range want.floats {
		if !ok(got.floats[v], want.floats[v]) {
			return fmt.Errorf("%s: vertex %d = %g, oracle %g", what, v, got.floats[v], want.floats[v])
		}
	}
	return nil
}

func checkPageRank(got, want output) error {
	return floatsClose(got, want, func(g, w float64) bool { return math.Abs(g-w) <= 1e-9 }, "pagerank")
}

func checkBC(got, want output) error {
	return floatsClose(got, want, func(g, w float64) bool {
		return math.Abs(g-w) <= 1e-6*math.Max(1, math.Abs(w))
	}, "bc")
}

func checkExact(got, want output) error {
	if len(got.ints) != len(want.ints) {
		return fmt.Errorf("sssp: %d values, oracle has %d", len(got.ints), len(want.ints))
	}
	for v := range want.ints {
		if got.ints[v] != want.ints[v] {
			return fmt.Errorf("sssp: vertex %d = %d, oracle %d", v, got.ints[v], want.ints[v])
		}
	}
	return nil
}

// checkSamePartition accepts any labelling that groups the vertices exactly
// as the oracle does: the engine labels a component by its minimum vertex
// id, graph.Components by discovery order.
func checkSamePartition(got, want output) error {
	if len(got.ints) != len(want.ints) {
		return fmt.Errorf("wcc: %d labels, oracle has %d", len(got.ints), len(want.ints))
	}
	fwd := make(map[int32]int32)
	back := make(map[int32]int32)
	for v := range want.ints {
		g, w := got.ints[v], want.ints[v]
		if m, seen := fwd[g]; seen && m != w {
			return fmt.Errorf("wcc: label %d spans oracle components %d and %d (vertex %d)", g, m, w, v)
		}
		if m, seen := back[w]; seen && m != g {
			return fmt.Errorf("wcc: oracle component %d split into labels %d and %d (vertex %d)", w, m, g, v)
		}
		fwd[g], back[w] = w, g
	}
	return nil
}

const (
	prIterations      = 10
	prDamping         = 0.85
	bcRoots           = 12
	bcSwath           = 4
	transitIterations = 20
	// The transition schedule of pr-transitions: checkpoints every 4
	// supersteps, one VM loss, one scale-out and one scale-in.
	transitCheckpointEvery = 4
	transitFailWorker      = 1
	transitFailStep        = 6
	transitScaleOutAfter   = 10
	transitScaleInAfter    = 15
)

func pageRankOracle(iterations int) func(g *graph.Graph) output {
	return func(g *graph.Graph) output {
		return output{floats: algorithms.PageRankSequential(g, iterations, prDamping)}
	}
}

func pageRankOutput(res *core.JobResult[float64], n int) output {
	return output{floats: algorithms.Ranks(res, n)}
}

func float64CodecDrive(n int) (float64, float64) {
	return codecDrive[float64](core.Float64Codec{}, func(i int) float64 { return float64(i) }, n)
}

func uint32CodecDrive(n int) (float64, float64) {
	return codecDrive[uint32](core.Uint32Codec{}, func(i int) uint32 { return uint32(i) }, n)
}

// workloads returns the benchmark's five workloads in report order.
func workloads() []*workload {
	prRMAT := &workload{
		name: "pr-rmat-chan",
		why:  "all vertices active every superstep under SumCombiner: compute loop, combine stage and local delivery do the work; barriers and wire do almost none",
		generate: func(seed int64, tiny bool) *graph.Graph {
			return rmat(pick[uint](tiny, 10, 18), seed)
		},
		partitioner: partition.Hash{},
		network:     chanNetwork,
		oracle:      pageRankOracle(prIterations),
		check:       checkPageRank,
		codecDrive:  float64CodecDrive,
	}
	engineJob(prRMAT, func(g *graph.Graph) core.JobSpec[float64] {
		return algorithms.PageRank{Iterations: prIterations, Damping: prDamping}.Spec(g, numWorkers)
	}, pageRankOutput)

	bcTCP := &workload{
		name: "bc-swath-tcp",
		why:  "the paper's algorithm and scheduler with no combiner over real sockets: codec, TCP framing, receive-path allocation and inbox memory do the work",
		generate: func(seed int64, tiny bool) *graph.Graph {
			return rmat(pick[uint](tiny, 9, 17), seed)
		},
		partitioner: partition.Hash{},
		network:     tcpNetwork,
		oracle: func(g *graph.Graph) output {
			return output{floats: algorithms.BCSequential(g, bcSources(g))}
		},
		check: checkBC,
		codecDrive: func(n int) (float64, float64) {
			return codecDrive[algorithms.BCMsg](algorithms.BCCodec{}, func(i int) algorithms.BCMsg {
				return algorithms.BCMsg{Root: uint32(i & 7), Kind: uint8(i % 3), From: uint32(i), Aux: uint32(i & 63), Value: float64(i)}
			}, n)
		},
	}
	engineJob(bcTCP, func(g *graph.Graph) core.JobSpec[algorithms.BCMsg] {
		sched := core.NewSwathRunner(bcSources(g), core.StaticSizer(bcSwath), core.SequentialInitiator{})
		return algorithms.BC(g, numWorkers, sched)
	}, func(res *core.JobResult[algorithms.BCMsg], n int) output {
		return output{floats: algorithms.BCScores(res, n)}
	})

	ssspGrid := &workload{
		name: "sssp-grid-steps",
		why:  "a thousand supersteps with a frontier of a few hundred vertices: the per-superstep fixed cost (step token, queue round trip, barrier) is the job",
		generate: func(_ int64, tiny bool) *graph.Graph {
			side := pick(tiny, 24, 512)
			return graph.Grid(side, side)
		},
		partitioner: partition.NewLDG(partition.DefaultSlack),
		network:     chanNetwork,
		oracle:      func(g *graph.Graph) output { return output{ints: graph.BFS(g, 0)} },
		check:       checkExact,
		codecDrive:  uint32CodecDrive,
	}
	engineJob(ssspGrid, func(g *graph.Graph) core.JobSpec[uint32] {
		return algorithms.SSSP(g, numWorkers, 0)
	}, func(res *core.JobResult[uint32], n int) output {
		return output{ints: algorithms.SSSPDistances(res, n)}
	})

	wccSub := &workload{
		name: "wcc-sub-frontend",
		why:  "text load and multilevel partitioning are over 90% of the response, so an engine change must not move job_s here; only workload on the PartitionProgram path",
		generate: func(seed int64, tiny bool) *graph.Graph {
			return graph.Community(pick(tiny, 2000, 100000), pick(tiny, 10, 500), 4, 0.85, seed)
		},
		textIO:      true,
		partitioner: partition.NewMultilevel(),
		network:     chanNetwork,
		oracle:      func(g *graph.Graph) output { return output{ints: graph.Components(g).Labels} },
		check:       checkSamePartition,
		codecDrive:  uint32CodecDrive,
	}
	engineJob(wccSub, func(g *graph.Graph) core.JobSpec[uint32] {
		return algorithms.WCCSubgraph(g, numWorkers)
	}, func(res *core.JobResult[uint32], n int) output {
		return output{ints: algorithms.WCCSubgraphLabels(res, n)}
	})

	prTransit := &workload{
		name: "pr-transitions",
		why:  "the engine used for writes beside reads: checkpoints, message-log appends, one confined recovery, a scale-out and a scale-in with incremental repartitioning",
		generate: func(seed int64, tiny bool) *graph.Graph {
			return rmat(pick[uint](tiny, 9, 17), seed)
		},
		partitioner: partition.Hash{},
		network:     chanNetwork,
		oracle:      pageRankOracle(transitIterations),
		check:       checkPageRank,
		codecDrive:  float64CodecDrive,
	}
	engineJob(prTransit, func(g *graph.Graph) core.JobSpec[float64] {
		spec := algorithms.PageRank{Iterations: transitIterations, Damping: prDamping}.Spec(g, numWorkers)
		spec.CheckpointEvery = transitCheckpointEvery
		var failed atomic.Bool
		spec.FailureInjector = func(worker, superstep int) error {
			if worker == transitFailWorker && superstep == transitFailStep && !failed.Swap(true) {
				return errors.New("benchmark: injected VM loss")
			}
			return nil
		}
		spec.ElasticController = core.ElasticControllerFunc(func(prev *core.StepStats, current int) int {
			switch {
			case prev == nil || prev.Superstep < transitScaleOutAfter:
				return numWorkers
			case prev.Superstep < transitScaleInAfter:
				return numWorkers + 1
			default:
				return numWorkers
			}
		})
		return spec
	}, pageRankOutput)

	return []*workload{prRMAT, bcTCP, ssspGrid, wccSub, prTransit}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
