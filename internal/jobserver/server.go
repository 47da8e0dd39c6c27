// Package jobserver implements the paper's web front end (Fig 1) grown into
// a multi-tenant graph-job service: tenants submit BSP jobs over HTTP and
// the server multiplexes them over one shared simulated VM fleet. A
// priority scheduler admits jobs against per-tenant caps and dollar quotas,
// runs several concurrently, and preempts a running lower-priority job at a
// superstep barrier when a higher-priority one is waiting — the preempted
// job suspends through the engine's live-migration protocol and later
// resumes with bit-identical results. Progress streams to clients over SSE;
// shutdown drains every accepted job before returning.
package jobserver

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/observe"
)

// Config sizes the service. Zero values take the listed defaults.
type Config struct {
	// FleetVMs is the shared worker-VM pool every job draws slots from
	// (default 64). A job reserves max(Workers, ElasticHigh) slots while
	// running and frees them while preempted.
	FleetVMs int
	// MaxConcurrent bounds how many jobs execute at once (default 4).
	MaxConcurrent int
	// QueueDepth bounds jobs waiting to start, across all tenants
	// (default 128). Submissions beyond it get 429.
	QueueDepth int
	// TenantCap bounds one tenant's in-flight jobs — queued, running, or
	// preempted (default 8). Submissions beyond it get 429.
	TenantCap int
	// DefaultQuotaDollars is the simulated spend ceiling per tenant
	// (0 = unlimited). A tenant at or over quota gets 429 on submit;
	// already-admitted jobs run to completion.
	DefaultQuotaDollars float64
	// QuotaDollars overrides the default quota for specific tenants.
	QuotaDollars map[string]float64
}

func (c Config) withDefaults() Config {
	if c.FleetVMs == 0 {
		c.FleetVMs = 64
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 128
	}
	if c.TenantCap == 0 {
		c.TenantCap = 8
	}
	return c
}

// JobStatus is the externally visible job record (the polled JSON shape),
// a plain snapshot detached from the server's live scheduling state.
type JobStatus struct {
	ID      int        `json:"id"`
	Request JobRequest `json:"request"`
	State   JobState   `json:"state"`
	Error   string     `json:"error,omitempty"`
	Result  *Summary   `json:"result,omitempty"`
	// Preemptions counts completed barrier suspensions so far (also in
	// the final Result for finished jobs).
	Preemptions int `json:"preemptions,omitempty"`
}

// job is the server's record of one submission. Scheduling fields are
// guarded by Server.mu; preemptFlag is read lock-free at every superstep
// barrier by the job's BarrierPreempt hook.
type job struct {
	ID      int
	Request JobRequest
	State   JobState
	Error   string
	Result  *Summary

	// recorder is the job's flight recorder, attached at submission so the
	// trace endpoint works for queued, running, failed, and finished jobs
	// alike; it survives job failure by construction.
	recorder *observe.Recorder
	// tracer feeds the recorder; handed to the job spec when the job runs.
	tracer *observe.Tracer
	// queues is the running job's control plane, sampled live by /metrics.
	queues *cloud.QueueService
	// events is the job's SSE stream.
	events *eventLog
	// slots is the fleet reservation the job holds while running.
	slots int
	// preemptFlag asks the job to suspend at its next superstep barrier.
	preemptFlag atomic.Bool
	// resumeGranted means the scheduler has re-reserved the preempted
	// job's slots; its goroutine may leave the suspension wait.
	resumeGranted bool
	// resumeSlots is the reservation a preempted job needs to resume; it
	// can differ from the request's (elastic scaling may have resized the
	// job before it was preempted).
	resumeSlots int
	// preemptions counts completed suspensions, for events and metrics.
	preemptions int
}

// statusLocked snapshots the job for JSON encoding; caller holds Server.mu.
func (j *job) statusLocked() JobStatus {
	return JobStatus{ID: j.ID, Request: j.Request, State: j.State,
		Error: j.Error, Result: j.Result, Preemptions: j.preemptions}
}

// Server is the multi-tenant job service.
type Server struct {
	cfg   Config
	fleet *cloud.Fleet
	// metrics is the server-wide registry all jobs' engine instruments
	// accumulate into.
	metrics *observe.Metrics

	mu   sync.Mutex
	cond *sync.Cond // broadcast on every job state change
	// draining rejects new submissions while accepted jobs finish. Checked
	// under mu by admission, so a submit can never race past a Close (the
	// old web role took the admission decision outside its lock and could
	// send on a closed channel).
	draining bool
	jobs     map[int]*job
	order    []int
	nextID   int
	// spend is each tenant's accumulated simulated bill.
	spend map[string]float64
	wg    sync.WaitGroup
}

// New builds a server. The fleet must seat at least one worker.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	fleet, err := cloud.NewFleet(cfg.FleetVMs)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		fleet:   fleet,
		metrics: observe.NewMetrics(),
		jobs:    make(map[int]*job),
		spend:   make(map[string]float64),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Close drains the server: new submissions are rejected with 503 while
// every accepted job — queued, running, or preempted — runs to a terminal
// state. It blocks until the last job finishes.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	// Preempted jobs and queued work still schedule during a drain; only
	// admission stops.
	s.schedule()
	for !s.allTerminalLocked() {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) allTerminalLocked() bool {
	for _, j := range s.jobs {
		if j.State != StateDone && j.State != StateFailed {
			return false
		}
	}
	return true
}

// quota returns the tenant's spend ceiling (0 = unlimited).
func (s *Server) quota(tenant string) float64 {
	if q, ok := s.cfg.QuotaDollars[tenant]; ok {
		return q
	}
	return s.cfg.DefaultQuotaDollars
}

// admissionError is a rejected submission with its HTTP status.
type admissionError struct {
	status int
	msg    string
}

func (e *admissionError) Error() string { return e.msg }

// submit admits a validated request, returning the new job's id or an
// admissionError. Everything — draining flag, queue depth, tenant cap,
// quota — is checked under mu, so the decision cannot race with Close or
// with competing submissions.
func (s *Server) submit(req JobRequest) (int, error) {
	if n := slotsNeeded(&req); n > s.fleet.Capacity() {
		return 0, &admissionError{400,
			fmt.Sprintf("job needs %d VMs, fleet has %d", n, s.fleet.Capacity())}
	}
	tracer, rec := observe.NewTraceRecorder(observe.DefaultRecorderCapacity)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, &admissionError{503, "server is draining"}
	}
	queued, inFlight := 0, 0
	for _, j := range s.jobs {
		switch j.State {
		case StateQueued:
			queued++
		case StateRunning, StatePreempted:
		default:
			continue
		}
		if j.Request.Tenant == req.Tenant {
			inFlight++
		}
	}
	if queued >= s.cfg.QueueDepth {
		return 0, &admissionError{429,
			fmt.Sprintf("submission queue full (%d jobs waiting)", queued)}
	}
	if inFlight >= s.cfg.TenantCap {
		return 0, &admissionError{429,
			fmt.Sprintf("tenant %q has %d jobs in flight (cap %d)", req.Tenant, inFlight, s.cfg.TenantCap)}
	}
	if q := s.quota(req.Tenant); q > 0 && s.spend[req.Tenant] >= q {
		return 0, &admissionError{429,
			fmt.Sprintf("tenant %q over quota ($%.4f of $%.4f spent)", req.Tenant, s.spend[req.Tenant], q)}
	}
	id := s.nextID
	s.nextID++
	j := &job{ID: id, Request: req, State: StateQueued,
		recorder: rec, tracer: tracer, events: newEventLog()}
	s.jobs[id] = j
	s.order = append(s.order, id)
	j.events.append(Event{Type: "state", State: StateQueued}, false)
	s.schedule()
	return id, nil
}

// schedule is the scheduler's single decision pass, called under mu after
// every event that could unblock work: submit, finish, suspension, drain.
// It seats as many waiting jobs as fleet slots and the concurrency cap
// allow, in priority order (FIFO within a priority; a preempted job
// outranks a queued one at equal priority so suspended work finishes
// first). When the best waiting job cannot be seated it may preempt: the
// lowest-priority running job with strictly lower priority is flagged to
// suspend at its next barrier, one victim at a time — each suspension
// re-enters schedule, which converges (flag another victim or seat the
// waiter) without ever suspending more jobs than the waiter needs.
func (s *Server) schedule() {
	running, preempting := 0, false
	for _, j := range s.jobs {
		// A granted-but-not-yet-woken preempted job already holds slots
		// and is about to run; count it, or a second pass would seat one
		// job too many.
		if j.State == StateRunning || (j.State == StatePreempted && j.resumeGranted) {
			running++
			if j.preemptFlag.Load() {
				preempting = true
			}
		}
	}

	// Waiting jobs: queued, plus preempted-and-not-yet-granted.
	var waiting []*job
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State == StateQueued || (j.State == StatePreempted && !j.resumeGranted) {
			waiting = append(waiting, j)
		}
	}
	sort.SliceStable(waiting, func(a, b int) bool {
		ja, jb := waiting[a], waiting[b]
		if ja.Request.Priority != jb.Request.Priority {
			return ja.Request.Priority > jb.Request.Priority
		}
		if (ja.State == StatePreempted) != (jb.State == StatePreempted) {
			return ja.State == StatePreempted
		}
		return ja.ID < jb.ID
	})

	for _, j := range waiting {
		slots := slotsNeeded(&j.Request)
		if j.State == StatePreempted && j.resumeSlots > 0 {
			slots = j.resumeSlots
		}
		if running < s.cfg.MaxConcurrent && s.fleet.TryReserve(j.Request.Tenant, slots) {
			j.slots = slots
			running++
			if j.State == StatePreempted {
				j.resumeGranted = true
				s.cond.Broadcast()
			} else {
				j.State = StateRunning
				s.wg.Add(1)
				go s.runJob(j)
			}
			continue
		}
		// Cannot seat the best waiting job — the concurrency cap or the
		// fleet is full. Either blocker is preemptible: suspending a
		// strictly lower-priority running job frees its seat as well as
		// its slots. Flag at most one victim, then stop scanning, so
		// lower-priority jobs cannot steal the capacity a suspension is
		// about to free (strict priority order, no backfill past a blocked
		// head).
		if !preempting {
			if v := s.preemptVictim(j.Request.Priority); v != nil {
				v.preemptFlag.Store(true)
			}
		}
		break
	}
}

// preemptVictim picks the running job to suspend for a waiter at the given
// priority: the lowest-priority running job whose priority is strictly
// lower (newest submission breaks ties — it has made the least progress).
func (s *Server) preemptVictim(waiterPriority int) *job {
	var victim *job
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State != StateRunning || j.preemptFlag.Load() {
			continue
		}
		if j.Request.Priority >= waiterPriority {
			continue
		}
		if victim == nil || j.Request.Priority < victim.Request.Priority ||
			(j.Request.Priority == victim.Request.Priority && j.ID > victim.ID) {
			victim = j
		}
	}
	return victim
}

// runJob executes one admitted job on its own goroutine, cycling through
// suspend/resume as the scheduler demands, then records the outcome, bills
// the tenant, and frees the job's fleet slots.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()

	queues := cloud.NewQueueService()
	s.mu.Lock()
	j.queues = queues
	req := j.Request
	s.mu.Unlock()
	j.events.append(Event{Type: "state", State: StateRunning}, false)

	summary, err := executeJob(req, algorithms.Env{
		Tracer:  j.tracer,
		Metrics: s.metrics,
		Queues:  queues,
		BarrierPreempt: func(int) bool {
			return j.preemptFlag.Load()
		},
		OnStep: func(st core.StepStats) {
			j.events.append(Event{Type: "superstep", Superstep: st.Superstep,
				ActiveVertices: st.ActiveVertices, Messages: st.TotalSent(),
				SimSeconds: st.SimSeconds}, false)
		},
		OnSuspend: func(susp *core.Suspension) {
			s.waitForResume(j, susp)
		},
	})

	s.mu.Lock()
	s.fleet.Release(req.Tenant, j.slots)
	j.slots = 0
	if err != nil {
		j.State = StateFailed
		j.Error = err.Error()
	} else {
		j.State = StateDone
		j.Result = summary
		s.spend[req.Tenant] += summary.CostDollars
	}
	s.schedule()
	s.cond.Broadcast()
	s.mu.Unlock()

	if err != nil {
		j.events.append(Event{Type: "error", State: StateFailed, Error: err.Error()}, true)
	} else {
		j.events.append(Event{Type: "result", State: StateDone, Result: summary}, true)
	}
}

// waitForResume parks a just-suspended job: it frees the job's fleet slots,
// lets the scheduler seat whoever the suspension was for, and blocks until
// the scheduler re-reserves slots for this job. Runs on the job's
// goroutine, between two core.Run calls.
func (s *Server) waitForResume(j *job, susp *core.Suspension) {
	s.mu.Lock()
	j.State = StatePreempted
	j.preemptions++
	s.fleet.Release(j.Request.Tenant, j.slots)
	j.slots = 0
	j.preemptFlag.Store(false)
	// The resumed deployment may differ from the original request: live
	// elastic scaling can have resized the job before it was preempted.
	j.resumeSlots = susp.Workers()
	if j.Request.ElasticHigh > j.resumeSlots {
		j.resumeSlots = j.Request.ElasticHigh
	}
	j.events.append(Event{Type: "preempt", State: StatePreempted,
		Superstep: susp.ResumeSuperstep()}, false)
	s.schedule()
	s.cond.Broadcast()
	for !j.resumeGranted {
		s.cond.Wait()
	}
	j.resumeGranted = false
	j.resumeSlots = 0
	j.State = StateRunning
	j.events.append(Event{Type: "resume", State: StateRunning,
		Superstep: susp.ResumeSuperstep()}, false)
	s.mu.Unlock()
}
