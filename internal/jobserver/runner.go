package jobserver

import (
	"pregelnet/internal/algorithms"
	"pregelnet/internal/elastic"
	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
)

// executeJob runs one validated request to completion under env (the
// server's observers, queue namespace and preemption callbacks) and
// summarizes it.
func executeJob(req JobRequest, env algorithms.Env) (*Summary, error) {
	g := graph.Dataset(req.Graph)
	env.Assignment = partition.ByName(req.Partitioner).Partition(g, req.Workers)
	env.MemoryMiB = req.MemoryMiB
	if req.ElasticHigh > 0 {
		ctrl, err := elastic.NewLiveController(req.Workers, req.ElasticHigh,
			elastic.ThresholdPolicy{Fraction: req.ElasticThreshold})
		if err != nil {
			return nil, err
		}
		env.Elastic = ctrl
	}
	out, err := algorithms.Execute(g, req.Workers, req.job(), env)
	if err != nil {
		return nil, err
	}
	finalWorkers := req.Workers
	for i := range out.Steps {
		if out.Steps[i].Workers > 0 {
			finalWorkers = out.Steps[i].Workers
		}
	}
	sum := &Summary{
		Supersteps:     out.Supersteps,
		Messages:       out.Messages(),
		SimSeconds:     out.SimSeconds,
		CostDollars:    out.CostDollars,
		WallSeconds:    out.WallSeconds,
		VMSeconds:      out.VMSeconds,
		FinalWorkers:   finalWorkers,
		ScaleEvents:    out.ScaleEvents,
		Preemptions:    out.Preemptions,
		PreemptSeconds: out.PreemptSeconds,
		Extra:          out.Summary,
	}
	if out.Scores != nil {
		sum.TopVertices = algorithms.Top(out.Scores, 10)
	}
	return sum, nil
}
