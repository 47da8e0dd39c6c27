// Command pregel runs a graph algorithm on the BSP framework.
//
// Usage:
//
//	pregel -algo pagerank|bc|apsp|sssp|wsssp|wcc|lpa \
//	       [-graph wg|cp|sd|lj | -file edges.txt] \
//	       [-workers 8] [-partitioner hash|chunk|metis|ldg|fennel] \
//	       [-model vertex|subgraph] \
//	       [-roots N] [-swath adaptive|sampling|none] [-initiate seq|dynamic|staticN]
//
// -model subgraph runs the partition-centric ports of the traversals (sssp,
// wsssp, wcc, bc): each partition converges locally between barriers and
// only boundary edges generate messages, so supersteps track the
// partition-hop diameter. Algorithms without a native port (pagerank, apsp,
// lpa) run their vertex programs under the engine's adapter.
//
// Prints the result summary and per-superstep statistics.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/elastic"
	"pregelnet/internal/graph"
	"pregelnet/internal/metrics"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
)

func main() {
	var (
		algo        = flag.String("algo", "pagerank", "algorithm: pagerank|bc|apsp|sssp|wsssp|wcc|lpa")
		graphName   = flag.String("graph", "wg", "built-in dataset: sd|wg|cp|lj")
		file        = flag.String("file", "", "edge-list file (overrides -graph)")
		workers     = flag.Int("workers", 8, "number of partition workers")
		partName    = flag.String("partitioner", "hash", "hash|chunk|metis|ldg|fennel")
		modelName   = flag.String("model", "vertex", "programming model: vertex|subgraph (partition-local convergence)")
		roots       = flag.Int("roots", 25, "traversal roots for bc/apsp")
		swath       = flag.String("swath", "adaptive", "swath sizing for bc/apsp: adaptive|sampling|none")
		initiate    = flag.String("initiate", "dynamic", "swath initiation: seq|dynamic|static<N>")
		iterations  = flag.Int("iterations", 30, "pagerank/lpa iterations")
		memoryMiB   = flag.Int64("memory-mib", 0, "per-worker physical memory ceiling in MiB (0 = unlimited)")
		showTop     = flag.Int("top", 10, "print the top-N result vertices")
		stepsDetail = flag.Bool("steps", false, "print the per-superstep table")
		traceFile   = flag.String("trace", "", "write a Chrome trace_event file of the run (open in chrome://tracing or Perfetto)")
		elasticHigh = flag.Int("elastic-high", 0, "live elastic scaling: scale between -workers and this count at superstep barriers (0 = off)")
		elasticFrac = flag.Float64("elastic-threshold", 0.5, "scale out when active vertices exceed this fraction of the peak (with -elastic-high)")
		repartName  = flag.String("repartitioner", "incremental", "layout strategy at resizes: incremental|hash|chunk|metis|ldg|fennel (with -elastic-high)")
		recovery    = flag.String("recovery", "confined", "worker-failure recovery: confined (failed workers only) | global (roll everyone back)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "checkpoint every N supersteps (0 = no checkpoints; recovery needs them)")
	)
	flag.Parse()

	// -trace records every engine span (supersteps, barriers, compute,
	// flushes, faults) into a flight recorder and dumps it on exit.
	var (
		tracer   *observe.Tracer
		recorder *observe.Recorder
	)
	if *traceFile != "" {
		tracer, recorder = observe.NewTraceRecorder(1 << 18)
		// Flush through fatal() too: the flight recorder's whole point is
		// that the events leading up to a failure survive it.
		flushTrace = func() {
			if err := writeTrace(*traceFile, recorder); err != nil {
				fmt.Fprintln(os.Stderr, "pregel: writing trace:", err)
				return
			}
			fmt.Printf("trace: %d events -> %s\n", recorder.Len(), *traceFile)
		}
		defer flushTrace()
	}

	g, err := loadGraph(*graphName, *file)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph %s: %d vertices, %d directed edges\n", g.Name(), g.NumVertices(), g.NumEdges())

	p := partition.ByName(*partName)
	if p == nil {
		fatal(fmt.Errorf("unknown partitioner %q", *partName))
	}
	assign := p.Partition(g, *workers)
	q, err := partition.Evaluate(g, assign, *workers, p.Name())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("partitioning %s: %.0f%% remote edges, balance %.3f\n", p.Name(), 100*q.CutFraction, q.Balance)

	model := cloud.DefaultCostModel(cloud.LargeVM())
	if *memoryMiB > 0 {
		model.Spec = model.Spec.WithMemory(*memoryMiB << 20)
	}

	// -elastic-high enables live elastic scaling: the job starts at -workers
	// and the threshold controller may resize it at any superstep barrier.
	var (
		elasticCtrl   core.ElasticController
		elasticRepart partition.Partitioner
	)
	if *elasticHigh > 0 {
		ctrl, err := elastic.NewLiveController(*workers, *elasticHigh,
			elastic.ThresholdPolicy{Fraction: *elasticFrac})
		if err != nil {
			fatal(err)
		}
		elasticCtrl = ctrl
		if elasticRepart = partition.ByName(*repartName); elasticRepart == nil {
			fatal(fmt.Errorf("unknown repartitioner %q", *repartName))
		}
		fmt.Printf("elastic: live threshold scaling %d <-> %d workers at %.0f%% of peak active (%s repartitioning)\n",
			*workers, *elasticHigh, 100**elasticFrac, elasticRepart.Name())
	}

	subgraph := false
	switch *modelName {
	case "vertex":
	case "subgraph":
		subgraph = true
	default:
		fatal(fmt.Errorf("unknown -model %q (want vertex or subgraph)", *modelName))
	}

	switch *algo {
	case "pagerank":
		spec := algorithms.PageRank{Iterations: *iterations, Damping: 0.85}.Spec(g, *workers)
		spec.Assignment = assign
		spec.CostModel = model
		spec.Tracer = tracer
		if subgraph {
			core.UseVertexAdapter(&spec)
		}
		applyElastic(&spec, elasticCtrl, elasticRepart)
		if err := applyRecovery(&spec, *recovery, *ckptEvery); err != nil {
			fatal(err)
		}
		res, err := core.Run(spec)
		if err != nil {
			fatal(err)
		}
		report(res.Steps, res.SimSeconds, res.CostDollars, res.VMSeconds, res.ScaleEvents, *stepsDetail)
		printTop("rank", algorithms.Ranks(res, g.NumVertices()), *showTop)
	case "bc":
		if subgraph {
			// The subgraph port keeps per-root state in partition-local
			// maps and batches all roots in one sweep; swath scheduling
			// does not apply.
			spec := algorithms.BCSubgraph(g, *workers, core.FirstNSources(g, *roots))
			spec.Assignment = assign
			spec.CostModel = model
			spec.Tracer = tracer
			applyElastic(&spec, elasticCtrl, elasticRepart)
			if err := applyRecovery(&spec, *recovery, *ckptEvery); err != nil {
				fatal(err)
			}
			res, err := core.Run(spec)
			if err != nil {
				fatal(err)
			}
			report(res.Steps, res.SimSeconds, res.CostDollars, res.VMSeconds, res.ScaleEvents, *stepsDetail)
			printTop("betweenness", algorithms.BCSubgraphScores(res, g.NumVertices()), *showTop)
			return
		}
		sched, err := core.ParseSwathScheduler(g, *roots, *swath, *initiate, model.Spec.MemoryBytes)
		if err != nil {
			fatal(err)
		}
		spec := algorithms.BC(g, *workers, sched)
		spec.Assignment = assign
		spec.CostModel = model
		spec.Tracer = tracer
		applyElastic(&spec, elasticCtrl, elasticRepart)
		if err := applyRecovery(&spec, *recovery, *ckptEvery); err != nil {
			fatal(err)
		}
		res, err := core.Run(spec)
		if err != nil {
			fatal(err)
		}
		report(res.Steps, res.SimSeconds, res.CostDollars, res.VMSeconds, res.ScaleEvents, *stepsDetail)
		printTop("betweenness", algorithms.BCScores(res, g.NumVertices()), *showTop)
	case "apsp":
		sched, err := core.ParseSwathScheduler(g, *roots, *swath, *initiate, model.Spec.MemoryBytes)
		if err != nil {
			fatal(err)
		}
		spec := algorithms.APSP(g, *workers, sched)
		spec.Assignment = assign
		spec.CostModel = model
		spec.Tracer = tracer
		if subgraph {
			core.UseVertexAdapter(&spec)
		}
		applyElastic(&spec, elasticCtrl, elasticRepart)
		if err := applyRecovery(&spec, *recovery, *ckptEvery); err != nil {
			fatal(err)
		}
		res, err := core.Run(spec)
		if err != nil {
			fatal(err)
		}
		report(res.Steps, res.SimSeconds, res.CostDollars, res.VMSeconds, res.ScaleEvents, *stepsDetail)
		fmt.Printf("computed distances from %d roots\n", *roots)
	case "sssp":
		spec := algorithms.SSSP(g, *workers, 0)
		if subgraph {
			spec = algorithms.SSSPSubgraph(g, *workers, 0)
		}
		spec.Assignment = assign
		spec.CostModel = model
		spec.Tracer = tracer
		applyElastic(&spec, elasticCtrl, elasticRepart)
		if err := applyRecovery(&spec, *recovery, *ckptEvery); err != nil {
			fatal(err)
		}
		res, err := core.Run(spec)
		if err != nil {
			fatal(err)
		}
		report(res.Steps, res.SimSeconds, res.CostDollars, res.VMSeconds, res.ScaleEvents, *stepsDetail)
		var dist []int32
		if subgraph {
			dist = algorithms.SSSPSubgraphDistances(res, g.NumVertices())
		} else {
			dist = algorithms.SSSPDistances(res, g.NumVertices())
		}
		reach, maxd := 0, int32(0)
		for _, d := range dist {
			if d >= 0 {
				reach++
				if d > maxd {
					maxd = d
				}
			}
		}
		fmt.Printf("reached %d/%d vertices, eccentricity %d\n", reach, g.NumVertices(), maxd)
	case "wsssp":
		wg := graph.RandomWeights(g, 1, 10, 99)
		spec := algorithms.WeightedSSSP(wg, *workers, 0)
		if subgraph {
			spec = algorithms.WeightedSSSPSubgraph(wg, *workers, 0)
		}
		spec.Assignment = assign
		spec.CostModel = model
		spec.Tracer = tracer
		applyElastic(&spec, elasticCtrl, elasticRepart)
		if err := applyRecovery(&spec, *recovery, *ckptEvery); err != nil {
			fatal(err)
		}
		res, err := core.Run(spec)
		if err != nil {
			fatal(err)
		}
		report(res.Steps, res.SimSeconds, res.CostDollars, res.VMSeconds, res.ScaleEvents, *stepsDetail)
		var dist []float64
		if subgraph {
			dist = algorithms.WeightedSubgraphDistances(res, g.NumVertices())
		} else {
			dist = algorithms.WeightedDistances(res, g.NumVertices())
		}
		reach := 0
		maxd := 0.0
		for _, d := range dist {
			if !math.IsInf(d, 1) {
				reach++
				if d > maxd {
					maxd = d
				}
			}
		}
		fmt.Printf("reached %d/%d vertices, weighted eccentricity %.2f\n", reach, g.NumVertices(), maxd)
	case "wcc":
		spec := algorithms.WCC(g, *workers)
		if subgraph {
			spec = algorithms.WCCSubgraph(g, *workers)
		}
		spec.Assignment = assign
		spec.CostModel = model
		spec.Tracer = tracer
		applyElastic(&spec, elasticCtrl, elasticRepart)
		if err := applyRecovery(&spec, *recovery, *ckptEvery); err != nil {
			fatal(err)
		}
		res, err := core.Run(spec)
		if err != nil {
			fatal(err)
		}
		report(res.Steps, res.SimSeconds, res.CostDollars, res.VMSeconds, res.ScaleEvents, *stepsDetail)
		var labels []int32
		if subgraph {
			labels = algorithms.WCCSubgraphLabels(res, g.NumVertices())
		} else {
			labels = algorithms.WCCLabels(res, g.NumVertices())
		}
		comps := map[int32]int{}
		for _, l := range labels {
			comps[l]++
		}
		fmt.Printf("%d connected components\n", len(comps))
	case "lpa":
		spec := algorithms.LPA(g, *workers, *iterations)
		spec.Assignment = assign
		spec.CostModel = model
		spec.Tracer = tracer
		if subgraph {
			core.UseVertexAdapter(&spec)
		}
		applyElastic(&spec, elasticCtrl, elasticRepart)
		if err := applyRecovery(&spec, *recovery, *ckptEvery); err != nil {
			fatal(err)
		}
		res, err := core.Run(spec)
		if err != nil {
			fatal(err)
		}
		report(res.Steps, res.SimSeconds, res.CostDollars, res.VMSeconds, res.ScaleEvents, *stepsDetail)
		labels := algorithms.LPALabels(res, g.NumVertices())
		comms := map[int32]int{}
		for _, l := range labels {
			comms[l]++
		}
		fmt.Printf("%d communities detected\n", len(comms))
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
}

func loadGraph(name, file string) (*graph.Graph, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := graph.ReadEdgeList(f, true)
		if err != nil {
			return nil, err
		}
		g.SetName(file)
		return g, nil
	}
	g := graph.Dataset(name)
	if g == nil {
		return nil, fmt.Errorf("unknown dataset %q (want sd|wg|cp|lj)", name)
	}
	return g, nil
}

// applyElastic wires the live controller (if any) into a spec; resizes need
// checkpoints to roll back failed migrations, so default them on.
func applyElastic[M any](spec *core.JobSpec[M], ctrl core.ElasticController, repart partition.Partitioner) {
	if ctrl == nil {
		return
	}
	spec.ElasticController = ctrl
	spec.Repartitioner = repart
	if spec.CheckpointEvery <= 0 {
		spec.CheckpointEvery = 4
	}
}

// applyRecovery wires the fault-tolerance flags: checkpoint cadence and the
// recovery mode (confined rolls back only the failed workers; global rolls
// back everyone).
func applyRecovery[M any](spec *core.JobSpec[M], mode string, every int) error {
	switch mode {
	case "confined":
		spec.RecoveryMode = core.RecoverConfined
	case "global":
		spec.RecoveryMode = core.RecoverGlobal
	default:
		return fmt.Errorf("unknown -recovery mode %q (want confined or global)", mode)
	}
	if every > 0 {
		spec.CheckpointEvery = every
	}
	return nil
}

func report(steps []core.StepStats, simSec, cost, vmSec float64, scales []core.ScaleEvent, detail bool) {
	var msgs int64
	for i := range steps {
		msgs += steps[i].TotalSent()
	}
	fmt.Printf("completed in %d supersteps, %d messages, %.2f simulated seconds, $%.4f simulated cost\n",
		len(steps), msgs, simSec, cost)
	if len(scales) > 0 {
		fmt.Printf("elastic: %d resize(s), %.1f VM-seconds billed\n", len(scales), vmSec)
		for _, ev := range scales {
			fmt.Printf("  superstep %3d: %d -> %d workers via %s (%d vertices / %d bytes migrated, cut %.1f%% -> %.1f%%, +%.2fs)\n",
				ev.Superstep, ev.FromWorkers, ev.ToWorkers, ev.Strategy,
				ev.MovedVertices, ev.MigratedBytes, 100*ev.CutBefore, 100*ev.CutAfter, ev.SimSeconds)
		}
	}
	fmt.Printf("messages/superstep: %s\n", metrics.Sparkline(metrics.MessagesPerStep(steps)))
	if detail {
		metrics.SeriesTable("per-superstep",
			metrics.MessagesPerStep(steps),
			metrics.ActivePerStep(steps),
			metrics.PeakMemoryPerStep(steps),
			metrics.SimTimePerStep(steps),
		).Render(os.Stdout)
	}
}

func printTop(what string, scores []float64, n int) {
	type kv struct {
		v VertexID
		s float64
	}
	all := make([]kv, len(scores))
	for v, s := range scores {
		all[v] = kv{VertexID(v), s}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
	if n > len(all) {
		n = len(all)
	}
	fmt.Printf("top %d vertices by %s:\n", n, what)
	for i := 0; i < n; i++ {
		fmt.Printf("  %8d  %.6g\n", all[i].v, all[i].s)
	}
}

type VertexID = graph.VertexID

func writeTrace(path string, rec *observe.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := observe.WriteChromeTrace(f, rec.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flushTrace dumps the flight recorder; set only when -trace is given.
var flushTrace func()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pregel:", err)
	if flushTrace != nil {
		flushTrace()
	}
	os.Exit(1)
}
