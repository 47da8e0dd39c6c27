package jobserver

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/cloud"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustValidate normalizes a request the way handleSubmit would.
func mustValidate(t *testing.T, req JobRequest) JobRequest {
	t.Helper()
	if err := validate(&req); err != nil {
		t.Fatal(err)
	}
	return req
}

// isolatedRun executes the request alone, outside any scheduler, as the
// bit-identical baseline.
func isolatedRun(t *testing.T, req JobRequest) *Summary {
	t.Helper()
	sum, err := executeJob(req, algorithms.Env{Queues: cloud.NewQueueService()})
	if err != nil {
		t.Fatalf("isolated run: %v", err)
	}
	return sum
}

// waitTerminal polls until the job leaves the scheduler, failing the test
// on timeout.
func waitTerminal(t *testing.T, s *Server, id int) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		st := s.jobs[id].statusLocked()
		s.mu.Unlock()
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %d did not finish", id)
	return JobStatus{}
}

// normalized strips the fields a scheduler legitimately changes — real
// wall time and preemption billing — leaving everything that must be
// bit-identical to an isolated run.
func normalized(sum *Summary) Summary {
	cp := *sum
	cp.WallSeconds = 0
	cp.Preemptions = 0
	cp.PreemptSeconds = 0
	cp.CostDollars = 0
	cp.VMSeconds = 0
	return cp
}

// summariesMatch compares a scheduled job's summary against its isolated
// baseline: everything must be exactly equal except TopVertices scores,
// which get a relative 1e-9 tolerance. Float-scored algorithms (pagerank,
// bc) run several compute slots per worker, whose batches to one peer
// interleave in a goroutine-scheduling dependent order, so their sums are
// only ULP-stable with or without a concurrent scheduler; integer-state
// algorithms compare bit-exactly through this same helper.
func summariesMatch(got, want Summary) bool {
	gt, wt := got.TopVertices, want.TopVertices
	if len(gt) != len(wt) {
		return false
	}
	for i := range gt {
		if gt[i].Vertex != wt[i].Vertex {
			return false
		}
		a, b := gt[i].Score, wt[i].Score
		if a != b && math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
			return false
		}
	}
	got.TopVertices, want.TopVertices = nil, nil
	return reflect.DeepEqual(got, want)
}

// soakRequests is TestConcurrentTenantsSoak's mixed load.
var soakRequests = []JobRequest{
	{Algorithm: "pagerank", Graph: "sd", Workers: 4, Iterations: 12, Tenant: "acme"},
	{Algorithm: "sssp", Graph: "sd", Workers: 3, Tenant: "acme", Priority: 2},
	{Algorithm: "wcc", Graph: "sd", Workers: 4, Tenant: "globex"},
	{Algorithm: "lpa", Graph: "sd", Workers: 2, Iterations: 6, Tenant: "globex", Priority: 4},
	{Algorithm: "bc", Graph: "sd", Workers: 3, Roots: 6, Swath: "none", Tenant: "initech"},
	{Algorithm: "pagerank", Graph: "sd", Workers: 2, Iterations: 8, Tenant: "initech", Priority: 1},
	{Algorithm: "wcc", Graph: "sd", Workers: 2, Tenant: "acme", Priority: 3},
	{Algorithm: "sssp", Graph: "sd", Workers: 4, Tenant: "globex", Priority: 9},
}

// TestConcurrentTenantsSoak drives the scheduler with a mixed-tenant,
// mixed-priority, mixed-algorithm load and verifies every job's summary is
// bit-identical to running that job alone. Run with -race in CI.
func TestConcurrentTenantsSoak(t *testing.T) {
	reqs := slices.Clone(soakRequests)
	base := make([]*Summary, len(reqs))
	for i := range reqs {
		reqs[i] = mustValidate(t, reqs[i])
		base[i] = isolatedRun(t, reqs[i])
	}

	s := newTestServer(t, Config{FleetVMs: 10, MaxConcurrent: 4, TenantCap: 4})
	ids := make([]int, len(reqs))
	for i, req := range reqs {
		id, err := s.submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		st := waitTerminal(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %d (%s/%s): state %s, error %q", id,
				st.Request.Tenant, st.Request.Algorithm, st.State, st.Error)
		}
		got, want := normalized(st.Result), normalized(base[i])
		if !summariesMatch(got, want) {
			t.Errorf("job %d (%s) diverged from isolated run:\n got %+v\nwant %+v",
				id, st.Request.Algorithm, got, want)
		}
	}
	s.Close()
	if s.fleet.InUse() != 0 {
		t.Errorf("fleet still holds %d slots after all jobs finished", s.fleet.InUse())
	}
	// Quota billing accumulated per tenant.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tenant := range []string{"acme", "globex", "initech"} {
		if s.spend[tenant] <= 0 {
			t.Errorf("tenant %q has zero accumulated spend", tenant)
		}
	}
}

// TestPriorityPreemptsAtBarrier fills the fleet with a low-priority job,
// then submits a high-priority one: the scheduler must suspend the first
// at a superstep barrier, run the second, resume the first, and the
// preempted job's results must be bit-identical to an isolated run. Both
// jobs use integer-state algorithms (min-combiners), so the comparison is
// exact — no float tolerance anywhere.
func TestPriorityPreemptsAtBarrier(t *testing.T) {
	low := mustValidate(t, JobRequest{Algorithm: "apsp", Graph: "sd",
		Workers: 8, Roots: 60, Tenant: "batch"})
	high := mustValidate(t, JobRequest{Algorithm: "sssp", Graph: "sd",
		Workers: 8, Tenant: "interactive", Priority: 9})
	baseLow := isolatedRun(t, low)
	baseHigh := isolatedRun(t, high)

	s := newTestServer(t, Config{FleetVMs: 8, MaxConcurrent: 2})
	lowID, err := s.submit(low)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	lowEvents := s.jobs[lowID].events
	s.mu.Unlock()
	// Let the victim get past its first barrier before the challenger
	// arrives, so the suspension tests a mid-run cut.
	deadline := time.Now().Add(30 * time.Second)
	for {
		batch, _, _ := lowEvents.since(0)
		steps := 0
		for _, e := range batch {
			if e.Type == "superstep" {
				steps++
			}
		}
		if steps >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("low-priority job never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	highID, err := s.submit(high)
	if err != nil {
		t.Fatal(err)
	}

	stHigh := waitTerminal(t, s, highID)
	stLow := waitTerminal(t, s, lowID)
	if stHigh.State != StateDone || stLow.State != StateDone {
		t.Fatalf("states: high %s (%s), low %s (%s)", stHigh.State, stHigh.Error, stLow.State, stLow.Error)
	}
	if stLow.Result.Preemptions < 1 {
		t.Fatalf("low-priority job was never preempted (fleet was full; it must have been)")
	}
	if stLow.Result.PreemptSeconds <= 0 {
		t.Errorf("PreemptSeconds = %v, want > 0", stLow.Result.PreemptSeconds)
	}
	if got, want := normalized(stLow.Result), normalized(baseLow); !reflect.DeepEqual(got, want) {
		t.Errorf("preempted job diverged from isolated run:\n got %+v\nwant %+v", got, want)
	}
	if got, want := normalized(stHigh.Result), normalized(baseHigh); !reflect.DeepEqual(got, want) {
		t.Errorf("preempting job diverged from isolated run:\n got %+v\nwant %+v", got, want)
	}
	// The event stream must record the suspension and the resume.
	events, _, _ := lowEvents.since(0)
	var sawPreempt, sawResume bool
	for _, e := range events {
		switch e.Type {
		case "preempt":
			sawPreempt = true
		case "resume":
			sawResume = true
		}
	}
	if !sawPreempt || !sawResume {
		t.Errorf("event log missing preempt/resume (preempt=%v resume=%v)", sawPreempt, sawResume)
	}
	s.Close()
}

// TestPreemptionAtConcurrencyCap is the regression test for the other way
// a high-priority job can be blocked: the fleet has plenty of slots but
// every MaxConcurrent seat is taken. Suspending a victim must free its
// seat, not just its VMs.
func TestPreemptionAtConcurrencyCap(t *testing.T) {
	low := mustValidate(t, JobRequest{Algorithm: "apsp", Graph: "sd",
		Workers: 4, Roots: 40, Tenant: "batch"})
	high := mustValidate(t, JobRequest{Algorithm: "sssp", Graph: "sd",
		Workers: 4, Tenant: "interactive", Priority: 9})
	baseLow := isolatedRun(t, low)

	// 16 slots for two 4-worker jobs: only the single seat is contended.
	s := newTestServer(t, Config{FleetVMs: 16, MaxConcurrent: 1})
	lowID, err := s.submit(low)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	lowEvents := s.jobs[lowID].events
	s.mu.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for {
		batch, _, _ := lowEvents.since(0)
		steps := 0
		for _, e := range batch {
			if e.Type == "superstep" {
				steps++
			}
		}
		if steps >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("low-priority job never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	highID, err := s.submit(high)
	if err != nil {
		t.Fatal(err)
	}

	stHigh := waitTerminal(t, s, highID)
	stLow := waitTerminal(t, s, lowID)
	if stHigh.State != StateDone || stLow.State != StateDone {
		t.Fatalf("states: high %s (%s), low %s (%s)", stHigh.State, stHigh.Error, stLow.State, stLow.Error)
	}
	if stLow.Result.Preemptions < 1 {
		t.Fatalf("low-priority job was never preempted (the seat was contended; it must have been)")
	}
	if got, want := normalized(stLow.Result), normalized(baseLow); !reflect.DeepEqual(got, want) {
		t.Errorf("preempted job diverged from isolated run:\n got %+v\nwant %+v", got, want)
	}
	s.Close()
}

// TestAdmissionControl exercises the three 429 paths: queue overflow,
// per-tenant in-flight cap, and quota exhaustion — plus the 400 for a job
// the fleet can never seat.
func TestAdmissionControl(t *testing.T) {
	t.Run("queue overflow", func(t *testing.T) {
		s := newTestServer(t, Config{FleetVMs: 2, MaxConcurrent: 1, QueueDepth: 1})
		req := mustValidate(t, JobRequest{Algorithm: "pagerank", Graph: "sd",
			Workers: 2, Iterations: 40, Tenant: "a"})
		if _, err := s.submit(req); err != nil { // seats immediately
			t.Fatal(err)
		}
		if _, err := s.submit(req); err != nil { // queued
			t.Fatal(err)
		}
		_, err := s.submit(req)
		adm, ok := err.(*admissionError)
		if !ok || adm.status != 429 {
			t.Fatalf("third submit: err %v, want 429 queue overflow", err)
		}
		s.Close()
	})
	t.Run("tenant cap", func(t *testing.T) {
		s := newTestServer(t, Config{FleetVMs: 8, MaxConcurrent: 4, TenantCap: 1})
		req := mustValidate(t, JobRequest{Algorithm: "pagerank", Graph: "sd",
			Workers: 2, Iterations: 40, Tenant: "capped"})
		if _, err := s.submit(req); err != nil {
			t.Fatal(err)
		}
		_, err := s.submit(req)
		adm, ok := err.(*admissionError)
		if !ok || adm.status != 429 {
			t.Fatalf("second submit: err %v, want 429 tenant cap", err)
		}
		other := req
		other.Tenant = "other"
		if _, err := s.submit(other); err != nil {
			t.Fatalf("other tenant must not be capped: %v", err)
		}
		s.Close()
	})
	t.Run("quota exhausted", func(t *testing.T) {
		s := newTestServer(t, Config{FleetVMs: 4, DefaultQuotaDollars: 1e-9})
		req := mustValidate(t, JobRequest{Algorithm: "sssp", Graph: "sd",
			Workers: 2, Tenant: "spender"})
		id, err := s.submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job failed: %s", st.Error)
		}
		_, err = s.submit(req)
		adm, ok := err.(*admissionError)
		if !ok || adm.status != 429 {
			t.Fatalf("over-quota submit: err %v, want 429", err)
		}
		s.Close()
	})
	t.Run("oversized job", func(t *testing.T) {
		s := newTestServer(t, Config{FleetVMs: 4})
		req := mustValidate(t, JobRequest{Algorithm: "sssp", Graph: "sd", Workers: 8})
		_, err := s.submit(req)
		adm, ok := err.(*admissionError)
		if !ok || adm.status != 400 {
			t.Fatalf("oversized submit: err %v, want 400", err)
		}
		s.Close()
	})
}

// TestDrainUnderLoad closes the server while jobs are queued and running:
// every accepted job must still reach done, and post-drain submissions
// must get 503.
func TestDrainUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{FleetVMs: 4, MaxConcurrent: 1})
	req := mustValidate(t, JobRequest{Algorithm: "pagerank", Graph: "sd",
		Workers: 2, Iterations: 20, Tenant: "drain"})
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := s.submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Close() // blocks until all three finish
	for _, id := range ids {
		s.mu.Lock()
		st := s.jobs[id].statusLocked()
		s.mu.Unlock()
		if st.State != StateDone {
			t.Fatalf("job %d after drain: state %s (%s)", id, st.State, st.Error)
		}
	}
	_, err := s.submit(req)
	adm, ok := err.(*admissionError)
	if !ok || adm.status != 503 {
		t.Fatalf("submit after drain: err %v, want 503", err)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	data  Event
}

// readSSE consumes an SSE stream until it ends, returning the frames.
func readSSE(t *testing.T, body *bufio.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		}
	}
}

// TestSSERoundTrip submits a job over HTTP and follows its event stream to
// the terminal result, checking replay, per-superstep progress, and
// sequence contiguity.
func TestSSERoundTrip(t *testing.T) {
	s := newTestServer(t, Config{FleetVMs: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"algorithm":"pagerank","graph":"sd","workers":4,"iterations":10,"tenant":"sse"}`))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	stream, err := http.Get(fmt.Sprintf("%s/jobs/%d/events", ts.URL, submitted.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, bufio.NewReader(stream.Body))
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	steps := 0
	for i, e := range events {
		if e.id != fmt.Sprint(i) || e.data.Seq != i {
			t.Fatalf("event %d has id %q seq %d; stream must be contiguous from 0", i, e.id, e.data.Seq)
		}
		if e.event == "superstep" {
			if e.data.Superstep != steps {
				t.Fatalf("superstep event out of order: got %d, want %d", e.data.Superstep, steps)
			}
			steps++
		}
	}
	last := events[len(events)-1]
	if last.event != "result" || last.data.Result == nil {
		t.Fatalf("stream did not end in a result event: %+v", last)
	}
	// 10 pagerank iterations: 11 supersteps (final halt round), each
	// streamed live before the result.
	if steps != 11 || last.data.Result.Supersteps != 11 {
		t.Fatalf("streamed %d superstep events, result says %d; want 11",
			steps, last.data.Result.Supersteps)
	}
}

// TestMetricsAggregation checks the multi-job /metrics shape: global and
// per-tenant job-state gauges plus fleet occupancy.
func TestMetricsAggregation(t *testing.T) {
	s := newTestServer(t, Config{FleetVMs: 8, MaxConcurrent: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tenant := range []string{"acme", "globex"} {
		req := mustValidate(t, JobRequest{Algorithm: "sssp", Graph: "sd",
			Workers: 2, Tenant: tenant})
		id, err := s.submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, id)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := fmt.Fprint(body, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		`pregel_jobs{state="done"} 2`,
		`pregel_tenant_jobs{state="done",tenant="acme"} 1`,
		`pregel_tenant_jobs{state="done",tenant="globex"} 1`,
		`pregel_tenant_spend_dollars{tenant="acme"}`,
		`pregel_fleet_vms 8`,
		`pregel_fleet_vms_in_use 0`,
		`pregel_supersteps_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	s.Close()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := bufio.NewReader(resp.Body)
	for {
		line, err := buf.ReadString('\n')
		sb.WriteString(line)
		if err != nil {
			return sb.String()
		}
	}
}

// TestModelAdmission covers the model field's validation: bad values are
// rejected at submit time, the default is vertex.
func TestModelAdmission(t *testing.T) {
	bad := JobRequest{Algorithm: "sssp", Graph: "sd", Model: "giraffe"}
	if err := validate(&bad); err == nil || !strings.Contains(err.Error(), "model") {
		t.Fatalf("bad model: err = %v, want model validation error", err)
	}
	def := mustValidate(t, JobRequest{Algorithm: "sssp", Graph: "sd"})
	if def.Model != "vertex" {
		t.Fatalf("default model = %q, want vertex", def.Model)
	}
	sub := mustValidate(t, JobRequest{Algorithm: "wcc", Graph: "sd", Model: "subgraph"})
	if sub.Model != "subgraph" {
		t.Fatalf("model = %q, want subgraph", sub.Model)
	}
}

// TestSubgraphModelJobs runs traversals under model=subgraph through the
// full executeJob path and checks they agree with the vertex model: same
// component count for wcc, no more supersteps for sssp, and the adapter
// path (pagerank has no native subgraph port) reproduces the vertex ranks.
func TestSubgraphModelJobs(t *testing.T) {
	base := JobRequest{Graph: "sd", Workers: 4, Partitioner: "metis"}

	ssspV := base
	ssspV.Algorithm = "sssp"
	vsum := isolatedRun(t, mustValidate(t, ssspV))
	ssspS := ssspV
	ssspS.Model = "subgraph"
	ssum := isolatedRun(t, mustValidate(t, ssspS))
	if ssum.Supersteps > vsum.Supersteps {
		t.Errorf("subgraph sssp took %d supersteps, vertex %d", ssum.Supersteps, vsum.Supersteps)
	}

	wccV := base
	wccV.Algorithm = "wcc"
	wccS := wccV
	wccS.Model = "subgraph"
	vw := isolatedRun(t, mustValidate(t, wccV))
	sw := isolatedRun(t, mustValidate(t, wccS))
	if vw.Extra != sw.Extra {
		t.Errorf("wcc: subgraph %q vs vertex %q", sw.Extra, vw.Extra)
	}

	prV := base
	prV.Algorithm = "pagerank"
	prV.Iterations = 10
	prS := prV
	prS.Model = "subgraph"
	vp := isolatedRun(t, mustValidate(t, prV))
	sp := isolatedRun(t, mustValidate(t, prS))
	// The adapter serializes compute within a partition, so sum-combiner
	// association order differs from the parallel vertex path: ranks agree
	// to ULP scale, not bit-exactly.
	for i := range vp.TopVertices {
		v, s := vp.TopVertices[i], sp.TopVertices[i]
		if v.Vertex != s.Vertex || math.Abs(v.Score-s.Score) > 1e-12*(1+math.Abs(v.Score)) {
			t.Errorf("pagerank rank %d: adapter %v vs vertex %v", i, s, v)
		}
	}
}
