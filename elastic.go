package pregelnet

import (
	"pregelnet/internal/core"
	"pregelnet/internal/elastic"
	"pregelnet/internal/transport"
)

// Elastic-scaling analysis (paper §VIII), live elastic scaling, and
// data-plane transports.

type (
	// ElasticProfile pairs two runs of the same job at different fixed
	// worker counts, aligned by superstep.
	ElasticProfile = elastic.Profile
	// ScalingPolicy chooses a worker count per superstep.
	ScalingPolicy = elastic.Policy
	// ScalingEstimate is a policy's projected runtime and VM-second cost.
	ScalingEstimate = elastic.Estimate
	// ElasticController decides, at every superstep barrier, the worker
	// count for the next superstep (JobSpec.ElasticController). See
	// LiveScaling / LiveThresholdScaling for policy-driven controllers.
	ElasticController = core.ElasticController
	// ElasticControllerFunc adapts a function to ElasticController.
	ElasticControllerFunc = core.ElasticControllerFunc
	// ScaleEvent records one live resize performed at a superstep barrier
	// (JobResult.ScaleEvents).
	ScaleEvent = core.ScaleEvent
	// Network is a data plane connecting BSP workers.
	Network = transport.Network
)

// LiveScaling adapts an offline ScalingPolicy to a live ElasticController:
// the policy is consulted at every superstep barrier with a profile grown
// from the run's own per-superstep stats, and its choice (clamped to the
// low/high pair) becomes the worker count for the next superstep. Set the
// result on JobSpec.ElasticController; the program must implement
// core.StateCodec (all built-in algorithms do).
func LiveScaling(low, high int, policy ScalingPolicy) (ElasticController, error) {
	return elastic.NewLiveController(low, high, policy)
}

// LiveThresholdScaling runs the paper's §VIII dynamic heuristic live: scale
// out to `high` workers when a superstep's active vertices exceed fraction
// of the peak seen so far, scale in to `low` otherwise (the paper uses 0.5).
func LiveThresholdScaling(low, high int, fraction float64) (ElasticController, error) {
	return elastic.NewLiveController(low, high, elastic.ThresholdPolicy{Fraction: fraction})
}

// NewElasticProfile builds a profile from per-superstep stats of a low- and
// a high-worker-count run of the same job.
func NewElasticProfile(workersLow int, low []StepStats, workersHigh int, high []StepStats) (*ElasticProfile, error) {
	return elastic.NewProfile(workersLow, low, workersHigh, high)
}

// FixedScaling always uses n workers.
func FixedScaling(n int) ScalingPolicy { return elastic.FixedPolicy(n) }

// ThresholdScaling scales out when a superstep's active vertices exceed the
// given fraction of the run's peak (the paper uses 0.5).
func ThresholdScaling(fraction float64) ScalingPolicy {
	return elastic.ThresholdPolicy{Fraction: fraction}
}

// OracleScaling picks the faster worker count per superstep (ideal bound).
func OracleScaling() ScalingPolicy { return elastic.OraclePolicy{} }

// EvaluateScaling projects a policy over a profile.
func EvaluateScaling(p *ElasticProfile, policy ScalingPolicy) ScalingEstimate {
	return elastic.Evaluate(p, policy)
}

// CompareScalingPolicies evaluates fixed-low, fixed-high, dynamic-50% and
// oracle scaling — the paper's Fig 16 scenarios.
func CompareScalingPolicies(p *ElasticProfile) []ScalingEstimate {
	return elastic.CompareAll(p)
}

// NewTCPNetwork starts a loopback TCP data plane for n workers (real
// sockets, length-prefixed bulk batches, per-superstep reconnection).
func NewTCPNetwork(n int) (*transport.TCPNetwork, error) { return transport.NewTCPNetwork(n) }

// NewChannelNetwork returns the in-process data plane (the default).
func NewChannelNetwork(n, buffer int) Network { return transport.NewChannelNetwork(n, buffer) }
