// Package pregelnet is a native Go implementation of a Pregel-style Bulk
// Synchronous Parallel (BSP) graph-processing framework for (simulated)
// public clouds, reproducing "Optimizations and Analysis of BSP Graph
// Processing Models on Public Clouds" (Redekopp, Simmhan, Prasanna —
// IPDPS 2013).
//
// The framework mirrors the paper's Pregel.NET architecture: a job manager
// coordinates supersteps through reliable cloud queues; partition workers
// hold disjoint vertex partitions, run a user compute() on every active
// vertex in parallel across cores, deliver messages to co-located vertices
// in memory and to remote ones as serialized bulk batches (over in-process
// channels or real TCP). A deterministic cloud cost model prices each
// superstep — compute, serialization, network, virtual-memory thrash past
// the physical ceiling, and barrier overhead that grows with workers — in
// simulated seconds and pay-per-use dollars.
//
// Its centerpiece is the paper's contribution: swath scheduling. Instead of
// starting all |V| traversals of an O(|V||E|)-message algorithm like
// betweenness centrality at once, sources are injected in swaths whose size
// (static, sampling, adaptive) and initiation (sequential, static-N,
// dynamic peak detection) are chosen to keep message buffers inside
// physical memory.
//
// Quick start:
//
//	g := pregelnet.Datasets.WG()
//	res, err := pregelnet.PageRank(g, 8)            // ranks + per-superstep stats
//	bc, err := pregelnet.BetweennessCentrality(g, 8, pregelnet.BCOptions{
//		Roots:     64,
//		SwathSize: pregelnet.AdaptiveSwathSize(6 << 30),
//		Initiate:  pregelnet.DynamicInitiation(),
//	})
//
// For full control (custom vertex programs, combiners, aggregators, TCP
// transport, custom cost models) use the generic JobSpec / Run aliases.
package pregelnet

import (
	"io"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
)

// Graph and dataset types.
type (
	// Graph is an immutable CSR graph.
	Graph = graph.Graph
	// VertexID identifies a vertex (dense, 0..N-1).
	VertexID = graph.VertexID
	// GraphBuilder accumulates edges into a Graph.
	GraphBuilder = graph.Builder
	// GraphStats summarizes a dataset (Table 1 columns).
	GraphStats = graph.Stats
)

// Engine types (generic aliases into the core engine).
type (
	// JobSpec configures a BSP job over message type M.
	JobSpec[M any] = core.JobSpec[M]
	// JobResult is a completed job's programs, stats, and simulated bill.
	JobResult[M any] = core.JobResult[M]
	// Context is the engine API available inside Compute.
	Context[M any] = core.Context[M]
	// VertexProgram is a user algorithm.
	VertexProgram[M any] = core.VertexProgram[M]
	// PartitionProgram is a subgraph-centric user algorithm: it receives
	// its whole partition each superstep and typically runs to a local
	// fixpoint before the barrier (JobSpec.NewPartitionProgram).
	PartitionProgram[M any] = core.PartitionProgram[M]
	// PartitionContext is the engine API available inside ComputePartition.
	PartitionContext[M any] = core.PartitionContext[M]
	// Codec serializes messages.
	Codec[M any] = core.Codec[M]
	// Combiner merges same-destination messages.
	Combiner[M any] = core.Combiner[M]
	// StepStats is one superstep's measurements.
	StepStats = core.StepStats
	// SwathScheduler injects traversal sources over time.
	SwathScheduler = core.SwathScheduler
	// SwathSizer chooses swath sizes.
	SwathSizer = core.SwathSizer
	// SwathInitiator decides when the next swath starts.
	SwathInitiator = core.SwathInitiator
)

// Cloud substrate types.
type (
	// VMSpec describes a worker instance type.
	VMSpec = cloud.VMSpec
	// CostModel prices superstep resource usage into simulated time.
	CostModel = cloud.CostModel
	// Partitioner assigns vertices to workers.
	Partitioner = partition.Partitioner
	// Assignment maps vertices to partitions.
	Assignment = partition.Assignment
)

// Fault-tolerance and chaos-testing types. A FaultPlan declares seeded
// fault probabilities plus scripted events; NewChaos arms it; JobSpec.Chaos
// wires it into every substrate layer (blob store, queues, transport,
// fabric). The engine's retry and checkpoint-rollback machinery absorbs
// the injected faults: results match a failure-free run.
type (
	// FaultPlan declares seeded fault probabilities and scripted events.
	FaultPlan = cloud.FaultPlan
	// Chaos is an armed FaultPlan (see NewChaos, JobSpec.Chaos).
	Chaos = cloud.Chaos
	// FaultStats counts faults a Chaos actually injected (JobResult.Faults).
	FaultStats = cloud.FaultStats
	// VMRestart scripts one fabric VM restart (FaultPlan.VMRestarts).
	VMRestart = cloud.VMRestart
	// ConnDrop scripts one dropped data-plane connection (FaultPlan.ConnDrops).
	ConnDrop = cloud.ConnDrop
	// BlobWriteFail scripts one blob's writes failing persistently — a VM
	// dying mid-write (FaultPlan.BlobWriteFails).
	BlobWriteFail = cloud.BlobWriteFail
	// RecoveryMode selects confined (failed-workers-only) or global
	// rollback recovery (JobSpec.RecoveryMode).
	RecoveryMode = core.RecoveryMode
	// RecoveryEvent records one recovery's scope and duplicated-work cost
	// (JobResult.RecoveryEvents).
	RecoveryEvent = core.RecoveryEvent
)

// Recovery modes for JobSpec.RecoveryMode.
const (
	// RecoverConfined (the default) rolls back only the failed workers;
	// survivors keep live state and replay logged messages.
	RecoverConfined = core.RecoverConfined
	// RecoverGlobal rolls every worker back to the last checkpoint.
	RecoverGlobal = core.RecoverGlobal
)

// NewChaos arms a FaultPlan with its seeded per-category PRNG streams.
func NewChaos(plan FaultPlan) *Chaos { return cloud.NewChaos(plan) }

// Observability types. A Tracer on JobSpec.Tracer records typed engine spans
// (supersteps, barriers, compute, checkpoints, faults...) into its sinks; a
// FlightRecorder sink keeps the most recent events in a bounded ring that
// survives job failure. A nil Tracer costs nothing on the hot path.
type (
	// Tracer is the structured event tracer (JobSpec.Tracer).
	Tracer = observe.Tracer
	// TraceEvent is one recorded span or instant.
	TraceEvent = observe.Event
	// TraceKind classifies a TraceEvent (superstep, barrier_wait, fault...).
	TraceKind = observe.Kind
	// FlightRecorder is a bounded in-memory ring of recent TraceEvents.
	FlightRecorder = observe.Recorder
	// EngineMetrics is a Prometheus-style metric registry (JobSpec.Metrics).
	EngineMetrics = observe.Metrics
)

// NewTracer returns a Tracer fanning events out to the given sinks.
func NewTracer(sinks ...observe.Sink) *Tracer { return observe.NewTracer(sinks...) }

// NewTraceRecorder returns a Tracer wired to a fresh FlightRecorder keeping
// the most recent `capacity` events (<=0 picks a sensible default).
func NewTraceRecorder(capacity int) (*Tracer, *FlightRecorder) {
	return observe.NewTraceRecorder(capacity)
}

// NewEngineMetrics returns an empty metric registry for JobSpec.Metrics.
func NewEngineMetrics() *EngineMetrics { return observe.NewMetrics() }

// WriteChromeTrace writes events as a Chrome trace_event file, loadable in
// chrome://tracing or https://ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return observe.WriteChromeTrace(w, events)
}

// WriteTraceJSONL writes events as one JSON object per line.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error {
	return observe.WriteJSONL(w, events)
}

// ErrTransient classifies retryable substrate faults (match with errors.Is).
var ErrTransient = cloud.ErrTransient

// Run executes a BSP job (see core.Run).
func Run[M any](spec JobSpec[M]) (*JobResult[M], error) { return core.Run(spec) }

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// Partitioners.
var (
	// HashPartitioner is the Pregel default (vertexID mod k).
	HashPartitioner Partitioner = partition.Hash{}
	// ChunkPartitioner assigns contiguous ID ranges.
	ChunkPartitioner Partitioner = partition.Chunk{}
)

// MultilevelPartitioner returns a METIS-style multilevel k-way partitioner.
func MultilevelPartitioner() Partitioner { return partition.NewMultilevel() }

// StreamingPartitioner returns the linear-weighted deterministic greedy
// (LDG) streaming partitioner of Stanton & Kliot.
func StreamingPartitioner() Partitioner { return partition.NewLDG(partition.DefaultSlack) }

// IncrementalPartitioner returns the Spinner-style incremental repartitioner:
// fresh jobs get an LDG layout, and live resizes adapt the previous
// assignment, moving only the minimum set of vertices needed for balance.
// This is the default JobSpec.Repartitioner for elastic jobs.
func IncrementalPartitioner() Partitioner { return partition.NewIncremental() }

// RepartitionerFrom is implemented by partitioners that can adapt a previous
// assignment to a new partition count instead of recomputing from scratch
// (see IncrementalPartitioner). The engine uses it automatically at live
// resizes when JobSpec.Repartitioner implements it.
type RepartitionerFrom = partition.RepartitionerFrom

// PartitionQuality evaluates an assignment (edge-cut %, balance). It returns
// an error (rather than panicking) for assignments with out-of-range entries.
func PartitionQuality(g *Graph, a Assignment, k int, strategy string) (partition.Quality, error) {
	return partition.Evaluate(g, a, k, strategy)
}

// datasets groups the paper's dataset analogs and generators.
type datasets struct{}

// Datasets provides the scaled analogs of the paper's Table 1 datasets and
// the synthetic generators behind them.
var Datasets datasets

// SD returns the SlashDot analog (social network, very short diameter).
func (datasets) SD() *Graph { return graph.DatasetSD() }

// WG returns the web-Google analog (power-law hubs + host communities).
func (datasets) WG() *Graph { return graph.DatasetWG() }

// CP returns the cit-Patents analog (temporally banded citation graph).
func (datasets) CP() *Graph { return graph.DatasetCP() }

// LJ returns the LiveJournal analog (large dense social network).
func (datasets) LJ() *Graph { return graph.DatasetLJ() }

// ByName looks a dataset up by name ("sd", "wg", "cp", "lj"); nil if unknown.
func (datasets) ByName(name string) *Graph { return graph.Dataset(name) }

// Stats measures a graph (Table 1 columns), sampling `samples` BFS sources.
func (datasets) Stats(g *Graph, samples int, seed int64) GraphStats {
	return graph.ComputeStats(g, samples, seed)
}

// Swath heuristic constructors (paper §IV).

// StaticSwathSize always uses a fixed swath size.
func StaticSwathSize(n int) SwathSizer { return core.StaticSizer(n) }

// AdaptiveSwathSize scales each swath by target/observed peak memory (the
// paper's adaptive heuristic, up to 3.5x speedup).
func AdaptiveSwathSize(targetMemoryBytes int64) SwathSizer {
	return &core.AdaptiveSizer{Initial: 4, TargetMemoryBytes: targetMemoryBytes}
}

// SamplingSwathSize probes with small swaths then extrapolates one static
// size (the paper's sampling heuristic).
func SamplingSwathSize(sampleSize, samples int, targetMemoryBytes int64) SwathSizer {
	return &core.SamplingSizer{SampleSize: sampleSize, Samples: samples, TargetMemoryBytes: targetMemoryBytes}
}

// SequentialInitiation starts each swath only after the previous drains.
func SequentialInitiation() SwathInitiator { return core.SequentialInitiator{} }

// StaticNInitiation starts a swath every n supersteps.
func StaticNInitiation(n int) SwathInitiator { return core.StaticNInitiator(n) }

// DynamicInitiation starts a swath when message traffic peaks and falls
// (the paper's automated heuristic, ~24% over sequential).
func DynamicInitiation() SwathInitiator { return core.DynamicPeakInitiator{} }

// NewSwathRunner schedules the sources in swaths under a sizer + initiator.
func NewSwathRunner(sources []VertexID, sizer SwathSizer, init SwathInitiator) SwathScheduler {
	return core.NewSwathRunner(sources, sizer, init)
}

// AllSourcesAtOnce injects every source in superstep 0 (the unoptimized
// Pregel model; the paper's baseline).
func AllSourcesAtOnce(sources []VertexID) SwathScheduler { return core.NewAllAtOnce(sources) }

// FirstNSources returns the n lowest vertex IDs as a root set.
func FirstNSources(g *Graph, n int) []VertexID { return core.FirstNSources(g, n) }

// DefaultCostModel prices jobs on the paper's Azure large instances.
func DefaultCostModel() CostModel { return cloud.DefaultCostModel(cloud.LargeVM()) }

// CostModelWithMemory prices jobs on large instances with a custom physical
// memory ceiling (used to study memory pressure at small scale).
func CostModelWithMemory(bytes int64) CostModel {
	return cloud.DefaultCostModel(cloud.LargeVM().WithMemory(bytes))
}

// PageRankResult bundles PageRank output with run statistics.
type PageRankResult struct {
	Ranks  []float64
	Stats  []StepStats
	SimSec float64
	CostUS float64
}

// PageRank runs the paper's 30-iteration PageRank on `workers` workers with
// hash partitioning and a sum combiner.
func PageRank(g *Graph, workers int) (*PageRankResult, error) {
	return PageRankWith(g, workers, 30, 0.85, nil, CostModel{})
}

// PageRankWith runs PageRank with explicit iterations, damping, assignment
// (nil = hash) and cost model (zero = default).
func PageRankWith(g *Graph, workers, iterations int, damping float64,
	assign Assignment, model CostModel) (*PageRankResult, error) {
	spec := algorithms.PageRank{Iterations: iterations, Damping: damping}.Spec(g, workers)
	spec.Assignment = assign
	spec.CostModel = model
	res, err := core.Run(spec)
	if err != nil {
		return nil, err
	}
	return &PageRankResult{
		Ranks:  algorithms.Ranks(res, g.NumVertices()),
		Stats:  res.Steps,
		SimSec: res.SimSeconds,
		CostUS: res.CostDollars,
	}, nil
}

// PageRankSubgraph runs the default 30-iteration PageRank under the
// subgraph-centric execution path (UseSubgraphModel): one sequential
// partition sweep per superstep instead of the parallel per-vertex slots.
// Ranks agree with PageRank to ULP scale — the adapter changes only the
// order float sums associate in.
func PageRankSubgraph(g *Graph, workers int) (*PageRankResult, error) {
	spec := algorithms.PageRank{Iterations: 30, Damping: 0.85}.Spec(g, workers)
	core.UseVertexAdapter(&spec)
	res, err := core.Run(spec)
	if err != nil {
		return nil, err
	}
	return &PageRankResult{
		Ranks:  algorithms.Ranks(res, g.NumVertices()),
		Stats:  res.Steps,
		SimSec: res.SimSeconds,
		CostUS: res.CostDollars,
	}, nil
}

// BCOptions configures a betweenness-centrality run.
type BCOptions struct {
	// Roots is the number of traversal sources (0 = all vertices). The
	// paper samples 50-75 roots on large graphs and extrapolates.
	Roots int
	// SwathSize sizes each swath (nil = all roots at once, the baseline).
	SwathSize SwathSizer
	// Initiate decides when swaths start (nil = sequential).
	Initiate SwathInitiator
	// Assignment maps vertices to workers (nil = hash).
	Assignment Assignment
	// CostModel prices the run (zero value = default large VMs).
	CostModel CostModel
	// Elastic, when non-nil, enables live elastic scaling: the controller
	// is consulted at every superstep barrier and may change the worker
	// count mid-job (see LiveThresholdScaling). `workers` is the starting
	// count. Checkpointing is enabled automatically (every 4 supersteps)
	// unless CheckpointEvery is set.
	Elastic ElasticController
	// CheckpointEvery snapshots worker state every Nth superstep for fault
	// recovery (0 = only the elastic default above).
	CheckpointEvery int
}

// BCResult bundles BC output with run statistics.
type BCResult struct {
	// Scores are raw Brandes scores over ordered pairs from the chosen
	// roots (halve them for the undirected convention).
	Scores []float64
	Stats  []StepStats
	SimSec float64
	CostUS float64
	// VMSec is the pro-rata VM-seconds bill — under live elastic scaling
	// this is what the dynamic policy is trying to shrink.
	VMSec float64
	// ScaleEvents records live resizes (empty without BCOptions.Elastic).
	ScaleEvents []ScaleEvent
}

// BetweennessCentrality runs Brandes' algorithm from opt.Roots sources with
// swath scheduling (paper §IV).
func BetweennessCentrality(g *Graph, workers int, opt BCOptions) (*BCResult, error) {
	n := opt.Roots
	if n <= 0 || n > g.NumVertices() {
		n = g.NumVertices()
	}
	roots := core.FirstNSources(g, n)
	var sched SwathScheduler
	if opt.SwathSize == nil {
		sched = core.NewAllAtOnce(roots)
	} else {
		init := opt.Initiate
		if init == nil {
			init = core.SequentialInitiator{}
		}
		sched = core.NewSwathRunner(roots, opt.SwathSize, init)
	}
	spec := algorithms.BC(g, workers, sched)
	spec.Assignment = opt.Assignment
	spec.CostModel = opt.CostModel
	spec.CheckpointEvery = opt.CheckpointEvery
	if opt.Elastic != nil {
		spec.ElasticController = opt.Elastic
		if spec.CheckpointEvery <= 0 {
			spec.CheckpointEvery = 4
		}
	}
	res, err := core.Run(spec)
	if err != nil {
		return nil, err
	}
	return &BCResult{
		Scores:      algorithms.BCScores(res, g.NumVertices()),
		Stats:       res.Steps,
		SimSec:      res.SimSeconds,
		CostUS:      res.CostDollars,
		VMSec:       res.VMSeconds,
		ScaleEvents: res.ScaleEvents,
	}, nil
}

// APSPResult bundles all-pairs shortest path output.
type APSPResult struct {
	// Dist[i][v] is the hop distance from the i-th root to v (-1 unreachable).
	Dist   [][]int32
	Roots  []VertexID
	Stats  []StepStats
	SimSec float64
}

// AllPairsShortestPaths runs multi-source BFS from `roots` sources (0 = all)
// under the given swath scheduler configuration (nil sizer = all at once).
func AllPairsShortestPaths(g *Graph, workers, nRoots int, sizer SwathSizer, init SwathInitiator) (*APSPResult, error) {
	if nRoots <= 0 || nRoots > g.NumVertices() {
		nRoots = g.NumVertices()
	}
	roots := core.FirstNSources(g, nRoots)
	var sched SwathScheduler
	if sizer == nil {
		sched = core.NewAllAtOnce(roots)
	} else {
		if init == nil {
			init = core.SequentialInitiator{}
		}
		sched = core.NewSwathRunner(roots, sizer, init)
	}
	spec := algorithms.APSP(g, workers, sched)
	res, err := core.Run(spec)
	if err != nil {
		return nil, err
	}
	return &APSPResult{
		Dist:   algorithms.APSPDistances(res, g.NumVertices(), roots),
		Roots:  roots,
		Stats:  res.Steps,
		SimSec: res.SimSeconds,
	}, nil
}

// ShortestPaths runs single-source BFS from src, returning hop distances.
func ShortestPaths(g *Graph, workers int, src VertexID) ([]int32, error) {
	res, err := core.Run(algorithms.SSSP(g, workers, src))
	if err != nil {
		return nil, err
	}
	return algorithms.SSSPDistances(res, g.NumVertices()), nil
}

// ShortestPathsSubgraph is ShortestPaths under the subgraph-centric model:
// each partition relaxes to a local fixpoint between barriers and only
// boundary edges generate messages, so supersteps track the partition-hop
// diameter instead of the vertex-hop diameter. Distances are bit-identical
// to ShortestPaths.
func ShortestPathsSubgraph(g *Graph, workers int, src VertexID) ([]int32, error) {
	res, err := core.Run(algorithms.SSSPSubgraph(g, workers, src))
	if err != nil {
		return nil, err
	}
	return algorithms.SSSPSubgraphDistances(res, g.NumVertices()), nil
}

// UseSubgraphModel rewrites a vertex-centric spec in place to run under the
// subgraph-centric execution path via the engine's adapter: one sequential
// partition sweep per superstep, same results. Useful for A/B-ing the two
// models on an unmodified VertexProgram.
func UseSubgraphModel[M any](spec *JobSpec[M]) { core.UseVertexAdapter(spec) }

// ConnectedComponents labels each vertex with its component's minimum
// vertex id.
func ConnectedComponents(g *Graph, workers int) ([]int32, error) {
	res, err := core.Run(algorithms.WCC(g, workers))
	if err != nil {
		return nil, err
	}
	return algorithms.WCCLabels(res, g.NumVertices()), nil
}

// ConnectedComponentsSubgraph is ConnectedComponents under the
// subgraph-centric model (bit-identical labels, far fewer supersteps and
// boundary messages on high-diameter or well-partitioned graphs).
func ConnectedComponentsSubgraph(g *Graph, workers int) ([]int32, error) {
	res, err := core.Run(algorithms.WCCSubgraph(g, workers))
	if err != nil {
		return nil, err
	}
	return algorithms.WCCSubgraphLabels(res, g.NumVertices()), nil
}

// Communities runs label-propagation community detection for `rounds`
// rounds.
func Communities(g *Graph, workers, rounds int) ([]int32, error) {
	res, err := core.Run(algorithms.LPA(g, workers, rounds))
	if err != nil {
		return nil, err
	}
	return algorithms.LPALabels(res, g.NumVertices()), nil
}

// TriangleCount counts the triangles in g on the BSP engine (two
// supersteps, degree-ordered candidate exchange).
func TriangleCount(g *Graph, workers int) (int64, error) {
	res, err := core.Run(algorithms.Triangles(g, workers))
	if err != nil {
		return 0, err
	}
	return algorithms.TriangleCount(res), nil
}

// KCoreDecomposition computes each vertex's coreness (distributed h-index
// iteration to fixpoint).
func KCoreDecomposition(g *Graph, workers int) ([]uint32, error) {
	res, err := core.Run(algorithms.KCore(g, workers))
	if err != nil {
		return nil, err
	}
	return algorithms.Coreness(res, g.NumVertices()), nil
}

// EstimateDiameter estimates max/effective diameter via a sampled
// multi-source BFS sweep on the engine.
func EstimateDiameter(g *Graph, workers, samples int) (*algorithms.DiameterEstimate, error) {
	return algorithms.EstimateDiameter(g, workers, samples)
}

// BCMessage is the betweenness-centrality wire message type, for use with
// BCSpec and the generic Run.
type BCMessage = algorithms.BCMsg

// BCSpec builds a betweenness-centrality JobSpec for full control (custom
// assignment, cost model, checkpointing); BetweennessCentrality is the
// simpler one-call wrapper.
func BCSpec(g *Graph, workers int, scheduler SwathScheduler) JobSpec[BCMessage] {
	return algorithms.BC(g, workers, scheduler)
}

// BCScoresOf extracts centrality scores from a BCSpec run.
func BCScoresOf(res *JobResult[BCMessage], n int) []float64 {
	return algorithms.BCScores(res, n)
}

// WeightedShortestPaths computes weighted single-source shortest paths from
// src (the canonical Pregel example program; +Inf = unreachable).
func WeightedShortestPaths(wg *WeightedGraph, workers int, src VertexID) ([]float64, error) {
	res, err := core.Run(algorithms.WeightedSSSP(wg, workers, src))
	if err != nil {
		return nil, err
	}
	return algorithms.WeightedDistances(res, wg.NumVertices()), nil
}
