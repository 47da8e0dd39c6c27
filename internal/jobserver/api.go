package jobserver

import (
	"fmt"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
)

// JobRequest is the submission payload.
type JobRequest struct {
	// Algorithm: pagerank | bc | apsp | sssp | wsssp | wcc | lpa (the
	// algorithm catalog, algorithms.Names).
	Algorithm string `json:"algorithm"`
	// Graph: built-in dataset name (sd | wg | cp | lj).
	Graph string `json:"graph"`
	// Workers is the partition worker count (default 8).
	Workers int `json:"workers,omitempty"`
	// Partitioner: hash | chunk | metis | ldg (default hash).
	Partitioner string `json:"partitioner,omitempty"`
	// Roots bounds bc/apsp traversal sources (default 25).
	Roots int `json:"roots,omitempty"`
	// Iterations for pagerank/lpa (default 30/10).
	Iterations int `json:"iterations,omitempty"`
	// Model selects the programming model: vertex | subgraph (default
	// vertex). Under subgraph, the relaxation traversals (sssp, wsssp, wcc)
	// run their partition-centric ports — local convergence between
	// barriers, boundary-only messages — and the rest run their vertex
	// programs under the engine's adapter, so results match the vertex model
	// either way.
	Model string `json:"model,omitempty"`
	// Swath: none | adaptive | sampling (bc/apsp; default adaptive).
	Swath string `json:"swath,omitempty"`
	// Initiate: seq | dynamic | staticN (default dynamic).
	Initiate string `json:"initiate,omitempty"`
	// MemoryMiB caps per-worker memory (0 = default spec).
	MemoryMiB int64 `json:"memoryMiB,omitempty"`
	// ElasticHigh enables live elastic scaling: the job starts at Workers
	// and a threshold controller may resize it between Workers and
	// ElasticHigh at any superstep barrier (0 = fixed worker count).
	ElasticHigh int `json:"elasticHigh,omitempty"`
	// ElasticThreshold is the scale-out trigger: fraction of the peak
	// active-vertex count seen so far (default 0.5, the paper's §VIII value).
	ElasticThreshold float64 `json:"elasticThreshold,omitempty"`
	// Tenant is the submitting tenant; admission caps, fleet accounting,
	// and quota billing are tracked per tenant (default "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority orders jobs for scheduling, 0 (lowest, the default) to 9.
	// A queued higher-priority job may preempt a running lower-priority
	// one at a superstep barrier; the preempted job resumes later with
	// bit-identical results.
	Priority int `json:"priority,omitempty"`
}

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	// StatePreempted marks a job suspended at a superstep barrier to make
	// room for a higher-priority one; the scheduler resumes it when the
	// fleet has room again.
	StatePreempted JobState = "preempted"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
)

// jobStates lists every lifecycle state, for metrics enumeration.
var jobStates = []JobState{StateQueued, StateRunning, StatePreempted, StateDone, StateFailed}

// Summary is the completed-job report returned by the status endpoint.
type Summary struct {
	Supersteps  int     `json:"supersteps"`
	Messages    int64   `json:"messages"`
	SimSeconds  float64 `json:"simSeconds"`
	CostDollars float64 `json:"costDollars"`
	WallSeconds float64 `json:"wallSeconds"`
	// VMSeconds is the billed VM time (workers integrated over simulated
	// time, including resize migration and acquisition charges).
	VMSeconds float64 `json:"vmSeconds,omitempty"`
	// FinalWorkers is the worker count at the last superstep; differs from
	// the request's Workers only when live elastic scaling resized the job.
	FinalWorkers int `json:"finalWorkers,omitempty"`
	// ScaleEvents lists the live resizes performed at superstep barriers.
	ScaleEvents []core.ScaleEvent `json:"scaleEvents,omitempty"`
	// Preemptions counts how many times the scheduler suspended this job
	// at a barrier; PreemptSeconds is the billed suspend/resume overhead
	// (kept out of SimSeconds, so the per-superstep timeline matches an
	// uninterrupted run exactly).
	Preemptions    int     `json:"preemptions,omitempty"`
	PreemptSeconds float64 `json:"preemptSeconds,omitempty"`
	// TopVertices are the ten best-scoring vertices of pagerank and bc.
	TopVertices []algorithms.TopVertex `json:"topVertices,omitempty"`
	// Extra is the result of the other algorithms in one line.
	Extra string `json:"extra,omitempty"`
}

// validate normalizes a request in place, filling defaults and rejecting
// out-of-range values.
func validate(req *JobRequest) error {
	if req.Workers == 0 {
		req.Workers = 8
	}
	if req.Workers < 1 || req.Workers > 64 {
		return fmt.Errorf("workers %d out of range [1,64]", req.Workers)
	}
	if req.Partitioner == "" {
		req.Partitioner = "hash"
	}
	if partition.ByName(req.Partitioner) == nil {
		return fmt.Errorf("unknown partitioner %q", req.Partitioner)
	}
	if req.Roots <= 0 {
		req.Roots = 25
	}
	if req.Iterations <= 0 {
		if req.Algorithm == "lpa" {
			req.Iterations = 10
		} else {
			req.Iterations = 30
		}
	}
	if req.Model == "" {
		req.Model = "vertex"
	}
	if req.Swath == "" {
		req.Swath = "adaptive"
	}
	if req.Initiate == "" {
		req.Initiate = "dynamic"
	}
	if err := req.job().Validate(req.Workers); err != nil {
		return err
	}
	if graph.Dataset(req.Graph) == nil {
		return fmt.Errorf("unknown graph %q (want sd|wg|cp|lj)", req.Graph)
	}
	if req.ElasticHigh != 0 {
		if req.ElasticHigh <= req.Workers || req.ElasticHigh > 64 {
			return fmt.Errorf("elasticHigh %d out of range (%d,64]", req.ElasticHigh, req.Workers)
		}
		if req.ElasticThreshold == 0 {
			req.ElasticThreshold = 0.5
		}
		if req.ElasticThreshold < 0 || req.ElasticThreshold > 1 {
			return fmt.Errorf("elasticThreshold %g out of range [0,1]", req.ElasticThreshold)
		}
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.Priority < 0 || req.Priority > 9 {
		return fmt.Errorf("priority %d out of range [0,9]", req.Priority)
	}
	return nil
}

// job is the catalog request a validated JobRequest names.
func (req *JobRequest) job() algorithms.Request {
	return algorithms.Request{Algorithm: req.Algorithm, Model: req.Model, Roots: req.Roots,
		Iterations: req.Iterations, Swath: req.Swath, Initiate: req.Initiate}
}

// slotsNeeded is the fleet reservation a request demands: its full elastic
// range, so a mid-job scale-out can never oversubscribe the deployment.
func slotsNeeded(req *JobRequest) int {
	if req.ElasticHigh > req.Workers {
		return req.ElasticHigh
	}
	return req.Workers
}
