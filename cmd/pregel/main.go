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
// -model subgraph runs the partition-centric ports of the relaxation
// traversals (sssp, wsssp, wcc): each partition converges locally between
// barriers and only boundary edges generate messages, so supersteps track
// the partition-hop diameter. Algorithms without a native port (pagerank,
// bc, apsp, lpa) run their vertex programs under the engine's adapter, with
// the same -swath and -initiate scheduling as under -model vertex.
//
// The command parses flags, loads and partitions the graph, and hands the
// job to the algorithm catalog (algorithms.Execute), which the job service
// uses too. Prints the result summary and per-superstep statistics; any
// error exits with status 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"pregelnet/internal/algorithms"
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

	req := algorithms.Request{Algorithm: *algo, Model: *modelName, Roots: *roots,
		Iterations: *iterations, Swath: *swath, Initiate: *initiate}
	if err := req.Validate(*workers); err != nil {
		fatal(err)
	}
	env := algorithms.Env{MemoryMiB: *memoryMiB, RecoveryMode: core.RecoveryMode(*recovery),
		CheckpointEvery: *ckptEvery}
	if env.RecoveryMode != core.RecoverConfined && env.RecoveryMode != core.RecoverGlobal {
		fatal(fmt.Errorf("unknown -recovery mode %q (want confined or global)", *recovery))
	}
	p := partition.ByName(*partName)
	if p == nil {
		fatal(fmt.Errorf("unknown partitioner %q", *partName))
	}
	// -elastic-high enables live elastic scaling: the job starts at -workers
	// and the threshold controller may resize it at any superstep barrier.
	if *elasticHigh > 0 {
		ctrl, err := elastic.NewLiveController(*workers, *elasticHigh,
			elastic.ThresholdPolicy{Fraction: *elasticFrac})
		if err != nil {
			fatal(err)
		}
		env.Elastic = ctrl
		if env.Repartitioner = partition.ByName(*repartName); env.Repartitioner == nil {
			fatal(fmt.Errorf("unknown repartitioner %q", *repartName))
		}
	}

	// -trace records every engine span (supersteps, barriers, compute,
	// flushes, faults) into a flight recorder and dumps it on exit.
	if *traceFile != "" {
		var recorder *observe.Recorder
		env.Tracer, recorder = observe.NewTraceRecorder(1 << 18)
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

	env.Assignment = p.Partition(g, *workers)
	q, err := partition.Evaluate(g, env.Assignment, *workers, p.Name())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("partitioning %s: %.0f%% remote edges, balance %.3f\n", p.Name(), 100*q.CutFraction, q.Balance)
	if env.Elastic != nil {
		fmt.Printf("elastic: live threshold scaling %d <-> %d workers at %.0f%% of peak active (%s repartitioning)\n",
			*workers, *elasticHigh, 100**elasticFrac, env.Repartitioner.Name())
	}

	out, err := algorithms.Execute(g, *workers, req, env)
	if err != nil {
		fatal(err)
	}
	report(out, *stepsDetail)
	if out.Scores == nil {
		fmt.Println(out.Summary)
		return
	}
	top := algorithms.Top(out.Scores, *showTop)
	fmt.Printf("top %d vertices by %s:\n", len(top), out.ScoreName)
	for _, tv := range top {
		fmt.Printf("  %8d  %.6g\n", tv.Vertex, tv.Score)
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

func report(out *algorithms.Outcome, detail bool) {
	fmt.Printf("completed in %d supersteps, %d messages, %.2f simulated seconds, $%.4f simulated cost\n",
		len(out.Steps), out.Messages(), out.SimSeconds, out.CostDollars)
	if len(out.ScaleEvents) > 0 {
		fmt.Printf("elastic: %d resize(s), %.1f VM-seconds billed\n", len(out.ScaleEvents), out.VMSeconds)
		for _, ev := range out.ScaleEvents {
			fmt.Printf("  superstep %3d: %d -> %d workers via %s (%d vertices / %d bytes migrated, cut %.1f%% -> %.1f%%, +%.2fs)\n",
				ev.Superstep, ev.FromWorkers, ev.ToWorkers, ev.Strategy,
				ev.MovedVertices, ev.MigratedBytes, 100*ev.CutBefore, 100*ev.CutAfter, ev.SimSeconds)
		}
	}
	fmt.Printf("messages/superstep: %s\n", metrics.Sparkline(metrics.MessagesPerStep(out.Steps)))
	if detail {
		metrics.SeriesTable("per-superstep",
			metrics.MessagesPerStep(out.Steps),
			metrics.ActivePerStep(out.Steps),
			metrics.PeakMemoryPerStep(out.Steps),
			metrics.SimTimePerStep(out.Steps),
		).Render(os.Stdout)
	}
}

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
