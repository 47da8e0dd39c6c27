package jobserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"pregelnet/internal/cloud"
	"pregelnet/internal/observe"
)

// Handler returns the HTTP routes:
//
//	POST /jobs             submit a JobRequest, returns {"id": N}
//	GET  /jobs             list all jobs
//	GET  /jobs/{id}        poll one job
//	GET  /jobs/{id}/events stream the job's progress as SSE
//	GET  /jobs/{id}/trace  dump the job's flight recorder (?format=jsonl|chrome)
//	GET  /metrics          Prometheus text exposition
//	GET  /healthz          liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// decodeRequest reads a POST /jobs body: one JSON JobRequest, validated and
// normalized.
func decodeRequest(body io.Reader) (JobRequest, error) {
	var req JobRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, fmt.Errorf("bad request: %w", err)
	}
	return req, validate(&req)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, err := s.submit(req)
	if err != nil {
		var adm *admissionError
		if errors.As(err, &adm) {
			http.Error(w, adm.msg, adm.status)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"id":%d}`+"\n", id)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, s.jobs[id].statusLocked())
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(list)
}

// jobByID returns a snapshot copy of the job, or writes a 400/404.
func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return nil, false
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return nil, false
	}
	return j, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	cp := j.statusLocked()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&cp)
}

// handleEvents streams the job's progress over SSE: a replay of the
// retained history (states, per-superstep stats, preemptions) followed by
// live events until the job ends or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	serveSSE(w, r, j.events)
}

// handleHealthz is the liveness probe: the server answers as long as its
// HTTP listener and mux are alive (jobs run on separate goroutines).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the Prometheus text exposition. Engine counters and
// histograms accumulate into the server-wide registry as jobs run. Queue
// gauges are sampled at scrape time from EVERY running job's control plane
// and aggregated by queue name (depths and redeliveries sum; ages take the
// max), because with a concurrent scheduler there is no longer a single
// "the" running job. Job-state gauges are exported both globally and per
// tenant, alongside fleet occupancy and quota spend.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	type tenantCounts struct{ states map[JobState]int }
	s.mu.Lock()
	states := map[JobState]int{}
	tenants := map[string]*tenantCounts{}
	var running []*cloud.QueueService
	for _, j := range s.jobs {
		states[j.State]++
		tc := tenants[j.Request.Tenant]
		if tc == nil {
			tc = &tenantCounts{states: map[JobState]int{}}
			tenants[j.Request.Tenant] = tc
		}
		tc.states[j.State]++
		if j.State == StateRunning && j.queues != nil {
			running = append(running, j.queues)
		}
	}
	spend := make(map[string]float64, len(s.spend))
	for t, d := range s.spend {
		spend[t] = d
	}
	s.mu.Unlock()

	for _, st := range jobStates {
		s.metrics.Gauge("pregel_jobs", "Jobs by lifecycle state.",
			observe.Label{Name: "state", Value: string(st)}).Set(float64(states[st]))
	}
	tenantNames := make([]string, 0, len(tenants))
	for t := range tenants {
		tenantNames = append(tenantNames, t)
	}
	sort.Strings(tenantNames)
	for _, t := range tenantNames {
		for _, st := range jobStates {
			s.metrics.Gauge("pregel_tenant_jobs", "Jobs by tenant and lifecycle state.",
				observe.Label{Name: "tenant", Value: t},
				observe.Label{Name: "state", Value: string(st)}).Set(float64(tenants[t].states[st]))
		}
		s.metrics.Gauge("pregel_tenant_spend_dollars",
			"Accumulated simulated spend per tenant.",
			observe.Label{Name: "tenant", Value: t}).Set(spend[t])
		s.metrics.Gauge("pregel_tenant_quota_dollars",
			"Configured spend ceiling per tenant (0 = unlimited).",
			observe.Label{Name: "tenant", Value: t}).Set(s.quota(t))
	}

	s.metrics.Gauge("pregel_fleet_vms", "Total VM slots in the shared fleet.").
		Set(float64(s.fleet.Capacity()))
	s.metrics.Gauge("pregel_fleet_vms_in_use", "VM slots reserved by running jobs.").
		Set(float64(s.fleet.InUse()))
	usage := s.fleet.TenantUsage()
	for _, t := range s.fleet.Tenants() {
		s.metrics.Gauge("pregel_fleet_tenant_vms", "VM slots reserved per tenant.",
			observe.Label{Name: "tenant", Value: t}).Set(float64(usage[t]))
	}

	// Aggregate queue stats across all running jobs. Each job has its own
	// queue namespace with colliding names (step-0, barrier, ...), so the
	// per-name gauges describe the whole deployment's control plane.
	type agg struct {
		depth, leased int
		redeliveries  uint64
		oldestAge     float64
	}
	byName := map[string]*agg{}
	for _, qs := range running {
		for name, st := range qs.Stats() {
			a := byName[name]
			if a == nil {
				a = &agg{}
				byName[name] = a
			}
			a.depth += st.Depth
			a.leased += st.Leased
			a.redeliveries += st.Redeliveries
			if age := st.OldestAge.Seconds(); age > a.oldestAge {
				a.oldestAge = age
			}
		}
	}
	for name, a := range byName {
		l := observe.Label{Name: "queue", Value: name}
		s.metrics.Gauge("pregel_queue_depth",
			"Visible messages in the queue (summed across running jobs).", l).Set(float64(a.depth))
		s.metrics.Gauge("pregel_queue_leased",
			"Messages hidden by an outstanding visibility lease (summed across running jobs).", l).Set(float64(a.leased))
		s.metrics.Gauge("pregel_queue_oldest_age_seconds",
			"Age of the oldest visible message (max across running jobs).", l).Set(a.oldestAge)
		s.metrics.Gauge("pregel_queue_redeliveries",
			"Messages redelivered after a visibility-timeout expiry (summed across running jobs).", l).Set(float64(a.redeliveries))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// handleTrace dumps a job's flight recorder. It works for running jobs (the
// recorder is a concurrent ring buffer) and for failed ones (the ring holds
// the events leading up to the failure). ?format=chrome emits a Chrome
// trace_event file loadable in chrome://tracing or Perfetto; the default is
// one JSON event per line.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(w, r)
	if !ok {
		return
	}
	var events []observe.Event
	if j.recorder != nil {
		events = j.recorder.Snapshot()
	}
	switch r.URL.Query().Get("format") {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = observe.WriteJSONL(w, events)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = observe.WriteChromeTrace(w, events)
	default:
		http.Error(w, "unknown format (want jsonl|chrome)", http.StatusBadRequest)
	}
}
