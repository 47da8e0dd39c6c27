package elastic

import (
	"fmt"

	"pregelnet/internal/core"
)

// LiveController adapts an offline scaling Policy to the engine's live
// core.ElasticController interface: instead of replaying a recorded
// 4-vs-8-worker profile, it grows a profile superstep by superstep from the
// stats the manager hands it at each barrier and asks the policy where the
// *next* superstep should run. This turns the paper's §VIII what-if
// projection into an actual deployment decision.
//
// The live profile has a single measured column — the run itself — so both
// Profile columns alias the live stats. Activity-driven policies
// (ThresholdPolicy: scale out when active vertices exceed a fraction of the
// peak seen so far) work unchanged; time-comparing policies (OraclePolicy)
// degenerate to the low count because both columns carry identical timings,
// and need a recorded profile instead.
//
// After a checkpoint rollback the engine re-runs supersteps and consults
// the controller again, so replayed supersteps append duplicate entries to
// the live profile. That is harmless for threshold decisions: the policy
// only reads the latest entry and the running peak, and a maximum is
// unaffected by duplicates.
type LiveController struct {
	p      *Profile
	policy Policy
	// consults counts Workers calls; decisions counts returns that differed
	// from the current count (for reporting/tests).
	consults  int
	decisions int
}

// NewLiveController returns a live controller that chooses between the low
// and high worker counts with the given policy. The job should start at one
// of the two counts; anything else is treated as "low" by the first
// decision's clamp.
func NewLiveController(low, high int, policy Policy) (*LiveController, error) {
	if low < 1 {
		return nil, fmt.Errorf("elastic: low worker count %d must be >= 1", low)
	}
	if low >= high {
		return nil, fmt.Errorf("elastic: low worker count %d must be < high %d", low, high)
	}
	if policy == nil {
		return nil, fmt.Errorf("elastic: nil policy")
	}
	return &LiveController{
		p:      &Profile{WorkersLow: low, WorkersHigh: high},
		policy: policy,
	}, nil
}

// Workers implements core.ElasticController: fold the just-completed
// superstep's stats into the live profile and return the policy's (clamped)
// choice for the next superstep.
func (c *LiveController) Workers(prev *core.StepStats, current int) int {
	if prev == nil {
		return current
	}
	c.consults++
	c.p.Low = append(c.p.Low, *prev)
	c.p.High = append(c.p.High, *prev)
	w := c.p.ClampWorkers(c.policy.Workers(c.p, c.p.Steps()-1))
	if w != current {
		c.decisions++
	}
	return w
}

// Profile returns the profile accumulated so far (both columns alias the
// live run's stats). Useful for post-run reporting.
func (c *LiveController) Profile() *Profile { return c.p }

// Consults returns how many barrier decisions the controller made and how
// many asked for a different worker count than the one running.
func (c *LiveController) Consults() (total, changed int) {
	return c.consults, c.decisions
}

var _ core.ElasticController = (*LiveController)(nil)
