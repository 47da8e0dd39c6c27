package algorithms

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
)

// Names lists the built-in jobs Execute runs, the values of
// Request.Algorithm.
var Names = []string{"pagerank", "bc", "apsp", "sssp", "wsssp", "wcc", "lpa"}

// Request names a built-in job: an algorithm, the programming model it runs
// under, and the options the algorithms read.
type Request struct {
	// Algorithm is one of Names.
	Algorithm string
	// Model is vertex or subgraph. Under subgraph, algorithms with a native
	// partition-centric port (sssp, wsssp, wcc) run it: local convergence
	// between barriers, boundary-only messages. The others run their vertex
	// programs under core.UseVertexAdapter.
	Model string
	// Roots is the number of bc/apsp traversal sources (the lowest ids).
	Roots int
	// Iterations is the number of pagerank/lpa rounds.
	Iterations int
	// Swath (none|adaptive|sampling) and Initiate (seq|dynamic|static<N>)
	// schedule the roots of bc and apsp under either model
	// (core.ParseSwathScheduler). Every algorithm checks their spelling.
	Swath, Initiate string
}

// Validate checks what can be checked before a graph is loaded: a known
// algorithm and model, at least one worker and at least one root, and
// spellings of the swath options.
func (r Request) Validate(workers int) error {
	if !slices.Contains(Names, r.Algorithm) {
		return fmt.Errorf("unknown algorithm %q (want %s)", r.Algorithm, strings.Join(Names, "|"))
	}
	if r.Model != "vertex" && r.Model != "subgraph" {
		return fmt.Errorf("unknown model %q (want vertex|subgraph)", r.Model)
	}
	if workers < 1 {
		return fmt.Errorf("workers %d: need at least 1", workers)
	}
	if r.Roots < 1 {
		return fmt.Errorf("roots %d: need at least 1", r.Roots)
	}
	_, err := core.ParseSwathOptions(r.Swath, r.Initiate)
	return err
}

// Env is the caller's wiring a job runs under. The zero value runs a job
// alone: hash layout, the default large VM, no observers, a fixed worker
// count, confined recovery without checkpoints.
type Env struct {
	Assignment partition.Assignment
	// MemoryMiB caps each worker VM's memory (0 keeps the VM's own).
	MemoryMiB int64
	Tracer    *observe.Tracer
	Metrics   *observe.Metrics
	Queues    *cloud.QueueService
	// Elastic resizes the job live at barriers, laying each new worker
	// count out with Repartitioner (nil: incremental). Checkpoints default
	// to every 4 supersteps then: a failed migration rolls back to one.
	Elastic         core.ElasticController
	Repartitioner   partition.Partitioner
	RecoveryMode    core.RecoveryMode
	CheckpointEvery int
	BarrierPreempt  func(nextSuperstep int) bool
	OnStep          func(core.StepStats)
	// OnSuspend, required with BarrierPreempt, is called after each barrier
	// preemption; the job resumes when it returns.
	OnSuspend func(*core.Suspension)
}

// Outcome is what a finished job reports, whatever its message type.
type Outcome struct {
	Steps          []core.StepStats
	Supersteps     int
	SimSeconds     float64
	WallSeconds    float64
	CostDollars    float64
	VMSeconds      float64
	ScaleEvents    []core.ScaleEvent
	Preemptions    int
	PreemptSeconds float64
	// Scores are the per-vertex results of the ranking jobs (pagerank's
	// "rank", bc's "betweenness", as ScoreName says); nil for the others.
	ScoreName string
	Scores    []float64
	// Summary is the result of the other jobs in one line.
	Summary string
}

// Messages is the number of messages sent over the whole job.
func (o *Outcome) Messages() int64 {
	var msgs int64
	for i := range o.Steps {
		msgs += o.Steps[i].TotalSent()
	}
	return msgs
}

// TopVertex is one row of a ranked result.
type TopVertex struct {
	Vertex graph.VertexID `json:"vertex"`
	Score  float64        `json:"score"`
}

// Top returns the n highest scores, ties broken by ascending vertex id.
func Top(scores []float64, n int) []TopVertex {
	all := make([]TopVertex, len(scores))
	for v, s := range scores {
		all[v] = TopVertex{graph.VertexID(v), s}
	}
	slices.SortStableFunc(all, func(a, b TopVertex) int { return cmp.Compare(b.Score, a.Score) })
	return all[:max(0, min(n, len(all)))]
}

// Execute runs the request on g with the given number of workers under env.
func Execute(g *graph.Graph, workers int, r Request, env Env) (*Outcome, error) {
	if err := r.Validate(workers); err != nil {
		return nil, err
	}
	model := cloud.DefaultCostModel(cloud.LargeVM())
	if env.MemoryMiB > 0 {
		model.Spec = model.Spec.WithMemory(env.MemoryMiB << 20)
	}
	n := g.NumVertices()
	sub := r.Model == "subgraph"
	switch r.Algorithm {
	case "pagerank":
		spec := PageRank{Iterations: r.Iterations, Damping: 0.85}.Spec(g, workers)
		return execute(spec, sub, model, env, func(res *core.JobResult[float64], o *Outcome) {
			o.ScoreName, o.Scores = "rank", Ranks(res, n)
		})
	case "bc":
		sched, err := core.ParseSwathScheduler(g, r.Roots, r.Swath, r.Initiate, model.Spec.MemoryBytes)
		if err != nil {
			return nil, err
		}
		return execute(BC(g, workers, sched), sub, model, env, func(res *core.JobResult[BCMsg], o *Outcome) {
			o.ScoreName, o.Scores = "betweenness", BCScores(res, n)
		})
	case "apsp":
		sched, err := core.ParseSwathScheduler(g, r.Roots, r.Swath, r.Initiate, model.Spec.MemoryBytes)
		if err != nil {
			return nil, err
		}
		return execute(APSP(g, workers, sched), sub, model, env, func(_ *core.JobResult[APSPMsg], o *Outcome) {
			o.Summary = fmt.Sprintf("computed distances from %d roots", r.Roots)
		})
	case "sssp":
		spec := SSSP(g, workers, 0)
		if sub {
			spec = SSSPSubgraph(g, workers, 0)
		}
		return execute(spec, false, model, env, func(res *core.JobResult[uint32], o *Outcome) {
			reach, ecc := 0, int32(0)
			for _, d := range SSSPDistances(res, n) {
				if d >= 0 {
					reach, ecc = reach+1, max(ecc, d)
				}
			}
			o.Summary = fmt.Sprintf("reached %d/%d vertices, eccentricity %d", reach, n, ecc)
		})
	case "wsssp":
		wg := graph.RandomWeights(g, 1, 10, 99)
		spec := WeightedSSSP(wg, workers, 0)
		if sub {
			spec = WeightedSSSPSubgraph(wg, workers, 0)
		}
		return execute(spec, false, model, env, func(res *core.JobResult[float64], o *Outcome) {
			reach, ecc := 0, 0.0
			for _, d := range WeightedDistances(res, n) {
				if !math.IsInf(d, 1) {
					reach, ecc = reach+1, max(ecc, d)
				}
			}
			o.Summary = fmt.Sprintf("reached %d/%d vertices, weighted eccentricity %.2f", reach, n, ecc)
		})
	case "wcc":
		spec := WCC(g, workers)
		if sub {
			spec = WCCSubgraph(g, workers)
		}
		return execute(spec, false, model, env, func(res *core.JobResult[uint32], o *Outcome) {
			o.Summary = fmt.Sprintf("%d connected components", distinct(WCCLabels(res, n)))
		})
	case "lpa":
		return execute(LPA(g, workers, r.Iterations), sub, model, env, func(res *core.JobResult[uint32], o *Outcome) {
			o.Summary = fmt.Sprintf("%d communities", distinct(LPALabels(res, n)))
		})
	}
	return nil, fmt.Errorf("algorithm %q has no entry in the catalog", r.Algorithm)
}

// execute runs spec under env, through the vertex adapter when adapt is
// set, across every suspension, and reads the finished job into an Outcome.
func execute[M any](spec core.JobSpec[M], adapt bool, model cloud.CostModel, env Env,
	read func(*core.JobResult[M], *Outcome)) (*Outcome, error) {
	if adapt {
		core.UseVertexAdapter(&spec)
	}
	spec.Assignment = env.Assignment
	spec.CostModel = model
	spec.Tracer = env.Tracer
	spec.Metrics = env.Metrics
	spec.Queues = env.Queues
	spec.ElasticController = env.Elastic
	spec.Repartitioner = env.Repartitioner
	spec.RecoveryMode = env.RecoveryMode
	spec.CheckpointEvery = env.CheckpointEvery
	if env.Elastic != nil && spec.CheckpointEvery <= 0 {
		spec.CheckpointEvery = 4
	}
	spec.BarrierPreempt = env.BarrierPreempt
	spec.OnStep = env.OnStep
	for {
		res, err := core.Run(spec)
		if err != nil {
			return nil, err
		}
		if res.Suspended != nil {
			// The engine's suspension contract: hand the same spec (same
			// scheduler and controller instances) back with Resume set.
			env.OnSuspend(res.Suspended)
			spec.Resume = res.Suspended
			continue
		}
		o := &Outcome{
			Steps:          res.Steps,
			Supersteps:     res.Supersteps,
			SimSeconds:     res.SimSeconds,
			WallSeconds:    res.WallSeconds,
			CostDollars:    res.CostDollars,
			VMSeconds:      res.VMSeconds,
			ScaleEvents:    res.ScaleEvents,
			Preemptions:    res.Preemptions,
			PreemptSeconds: res.PreemptSeconds,
		}
		read(res, o)
		return o, nil
	}
}

// distinct counts the distinct labels.
func distinct(labels []int32) int {
	seen := make(map[int32]struct{}, len(labels))
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
