package jobserver

import (
	"fmt"
	"sort"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/elastic"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
)

// runHooks is the server-side wiring a job executes under: observability
// sinks, its queue namespace, and the scheduler's preemption callbacks.
type runHooks struct {
	tracer  *observe.Tracer
	metrics *observe.Metrics
	queues  *cloud.QueueService
	// barrierPreempt is consulted at every superstep barrier (the engine's
	// JobSpec.BarrierPreempt); returning true suspends the job.
	barrierPreempt func(nextSuperstep int) bool
	// onStep receives each committed superstep's stats (SSE progress).
	onStep func(core.StepStats)
	// onSuspend parks the job goroutine after a suspension until the
	// scheduler grants the resume. Called between two core.Run calls.
	onSuspend func(*core.Suspension)
}

// runSpec drives one spec through as many suspend/resume cycles as the
// scheduler causes. The same spec value (same Scheduler, controller, and
// queue service instances) is handed back with Resume set, as the engine's
// suspension contract requires; elastic jobs get checkpointing defaulted
// on because a failed live migration rolls back through checkpoints.
func runSpec[M any](spec core.JobSpec[M], h *runHooks, ctrl core.ElasticController) (*core.JobResult[M], error) {
	spec.Tracer = h.tracer
	spec.Metrics = h.metrics
	spec.Queues = h.queues
	spec.BarrierPreempt = h.barrierPreempt
	spec.OnStep = h.onStep
	if ctrl != nil {
		spec.ElasticController = ctrl
		if spec.CheckpointEvery <= 0 {
			spec.CheckpointEvery = 4
		}
	}
	for {
		res, err := core.Run(spec)
		if err != nil {
			return nil, err
		}
		if res.Suspended == nil {
			return res, nil
		}
		h.onSuspend(res.Suspended)
		spec.Resume = res.Suspended
	}
}

// executeJob runs one validated request to completion and summarizes it.
func executeJob(req JobRequest, h *runHooks) (*Summary, error) {
	g := graph.Dataset(req.Graph)
	assign := partition.ByName(req.Partitioner).Partition(g, req.Workers)
	model := cloud.DefaultCostModel(cloud.LargeVM())
	if req.MemoryMiB > 0 {
		model.Spec = model.Spec.WithMemory(req.MemoryMiB << 20)
	}

	var elasticCtrl core.ElasticController
	if req.ElasticHigh > 0 {
		ctrl, err := elastic.NewLiveController(req.Workers, req.ElasticHigh,
			elastic.ThresholdPolicy{Fraction: req.ElasticThreshold})
		if err != nil {
			return nil, err
		}
		elasticCtrl = ctrl
	}

	top := func(scores []float64, n int) []TopVertex {
		tv := make([]TopVertex, len(scores))
		for v, s := range scores {
			tv[v] = TopVertex{graph.VertexID(v), s}
		}
		sort.Slice(tv, func(i, j int) bool { return tv[i].Score > tv[j].Score })
		if n > len(tv) {
			n = len(tv)
		}
		return tv[:n]
	}
	switch req.Algorithm {
	case "pagerank":
		spec := algorithms.PageRank{Iterations: req.Iterations, Damping: 0.85}.Spec(g, req.Workers)
		spec.Assignment = assign
		spec.CostModel = model
		if req.Model == "subgraph" {
			core.UseVertexAdapter(&spec)
		}
		res, err := runSpec(spec, h, elasticCtrl)
		if err != nil {
			return nil, err
		}
		sum := summarizeResult(req, res)
		sum.TopVertices = top(algorithms.Ranks(res, g.NumVertices()), 10)
		return sum, nil
	case "bc":
		if req.Model == "subgraph" {
			// The subgraph port batches all roots in one AllAtOnce sweep:
			// its per-root state lives in partition-local maps, so swath
			// scheduling (a vertex-memory optimization) does not apply.
			spec := algorithms.BCSubgraph(g, req.Workers, core.FirstNSources(g, req.Roots))
			spec.Assignment = assign
			spec.CostModel = model
			res, err := runSpec(spec, h, elasticCtrl)
			if err != nil {
				return nil, err
			}
			sum := summarizeResult(req, res)
			sum.TopVertices = top(algorithms.BCSubgraphScores(res, g.NumVertices()), 10)
			return sum, nil
		}
		sched, err := core.ParseSwathScheduler(g, req.Roots, req.Swath, req.Initiate, model.Spec.MemoryBytes)
		if err != nil {
			return nil, err
		}
		spec := algorithms.BC(g, req.Workers, sched)
		spec.Assignment = assign
		spec.CostModel = model
		res, err := runSpec(spec, h, elasticCtrl)
		if err != nil {
			return nil, err
		}
		sum := summarizeResult(req, res)
		sum.TopVertices = top(algorithms.BCScores(res, g.NumVertices()), 10)
		return sum, nil
	case "apsp":
		sched, err := core.ParseSwathScheduler(g, req.Roots, req.Swath, req.Initiate, model.Spec.MemoryBytes)
		if err != nil {
			return nil, err
		}
		spec := algorithms.APSP(g, req.Workers, sched)
		spec.Assignment = assign
		spec.CostModel = model
		if req.Model == "subgraph" {
			core.UseVertexAdapter(&spec)
		}
		res, err := runSpec(spec, h, elasticCtrl)
		if err != nil {
			return nil, err
		}
		sum := summarizeResult(req, res)
		sum.Extra = fmt.Sprintf("distances computed from %d roots", req.Roots)
		return sum, nil
	case "sssp":
		spec := algorithms.SSSP(g, req.Workers, 0)
		if req.Model == "subgraph" {
			spec = algorithms.SSSPSubgraph(g, req.Workers, 0)
		}
		spec.Assignment = assign
		spec.CostModel = model
		res, err := runSpec(spec, h, elasticCtrl)
		if err != nil {
			return nil, err
		}
		return summarizeResult(req, res), nil
	case "wcc":
		spec := algorithms.WCC(g, req.Workers)
		if req.Model == "subgraph" {
			spec = algorithms.WCCSubgraph(g, req.Workers)
		}
		spec.Assignment = assign
		spec.CostModel = model
		res, err := runSpec(spec, h, elasticCtrl)
		if err != nil {
			return nil, err
		}
		var labels []int32
		if req.Model == "subgraph" {
			labels = algorithms.WCCSubgraphLabels(res, g.NumVertices())
		} else {
			labels = algorithms.WCCLabels(res, g.NumVertices())
		}
		comps := map[int32]bool{}
		for _, l := range labels {
			comps[l] = true
		}
		sum := summarizeResult(req, res)
		sum.Extra = fmt.Sprintf("%d connected components", len(comps))
		return sum, nil
	case "lpa":
		spec := algorithms.LPA(g, req.Workers, req.Iterations)
		spec.Assignment = assign
		spec.CostModel = model
		if req.Model == "subgraph" {
			core.UseVertexAdapter(&spec)
		}
		res, err := runSpec(spec, h, elasticCtrl)
		if err != nil {
			return nil, err
		}
		labels := algorithms.LPALabels(res, g.NumVertices())
		comms := map[int32]bool{}
		for _, l := range labels {
			comms[l] = true
		}
		sum := summarizeResult(req, res)
		sum.Extra = fmt.Sprintf("%d communities", len(comms))
		return sum, nil
	}
	return nil, fmt.Errorf("unreachable algorithm %q", req.Algorithm)
}

// summarizeResult condenses a completed JobResult into the status payload.
func summarizeResult[M any](req JobRequest, res *core.JobResult[M]) *Summary {
	var msgs int64
	finalWorkers := req.Workers
	for i := range res.Steps {
		msgs += res.Steps[i].TotalSent()
		if res.Steps[i].Workers > 0 {
			finalWorkers = res.Steps[i].Workers
		}
	}
	return &Summary{
		Supersteps:     res.Supersteps,
		Messages:       msgs,
		SimSeconds:     res.SimSeconds,
		CostDollars:    res.CostDollars,
		WallSeconds:    res.WallSeconds,
		VMSeconds:      res.VMSeconds,
		FinalWorkers:   finalWorkers,
		ScaleEvents:    res.ScaleEvents,
		Preemptions:    res.Preemptions,
		PreemptSeconds: res.PreemptSeconds,
	}
}
