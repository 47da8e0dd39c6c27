package jobserver

// HTTP API tests against a single-job server (MaxConcurrent 1): the paper's
// Fig 1 web role, one manager VM running one job at a time.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pregelnet/internal/observe"
)

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) int {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var out struct{ ID int }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func awaitJob(t *testing.T, ts *httptest.Server, id int) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return &st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return nil
}

func TestSubmitAndCompletePageRank(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := postJob(t, ts, JobRequest{Algorithm: "pagerank", Graph: "sd", Workers: 4, Iterations: 10})
	st := awaitJob(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.Supersteps != 11 {
		t.Fatalf("result = %+v", st.Result)
	}
	if len(st.Result.TopVertices) != 10 {
		t.Errorf("top vertices = %d", len(st.Result.TopVertices))
	}
	if st.Result.TopVertices[0].Score < st.Result.TopVertices[9].Score {
		t.Error("top vertices not sorted")
	}
}

func TestSubmitBCWithSwaths(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := postJob(t, ts, JobRequest{
		Algorithm: "bc", Graph: "sd", Workers: 4, Roots: 10,
		Partitioner: "metis", Swath: "adaptive", Initiate: "dynamic",
	})
	st := awaitJob(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Result.Messages == 0 || st.Result.SimSeconds <= 0 {
		t.Errorf("result = %+v", st.Result)
	}
}

// invalidRequests are rejected at submission.
var invalidRequests = []JobRequest{
	{Algorithm: "nope", Graph: "sd"},
	{Algorithm: "pagerank", Graph: "nope"},
	{Algorithm: "pagerank", Graph: "sd", Workers: 1000},
	{Algorithm: "pagerank", Graph: "sd", Partitioner: "nope"},
}

func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, req := range invalidRequests {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed json: status = %d", resp.StatusCode)
	}
}

func TestListAndNotFound(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts, JobRequest{Algorithm: "sssp", Graph: "sd", Workers: 2})
	postJob(t, ts, JobRequest{Algorithm: "wcc", Graph: "sd", Workers: 2})

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != 0 || list[1].ID != 1 {
		t.Errorf("list = %+v", list)
	}

	resp, err = http.Get(ts.URL + "/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs/abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status = %d", resp.StatusCode)
	}
}

func TestFailedJobReportsError(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// A tiny memory ceiling forces a blowout failure.
	id := postJob(t, ts, JobRequest{Algorithm: "bc", Graph: "sd", Workers: 2, Roots: 20,
		Swath: "none", MemoryMiB: 1})
	st := awaitJob(t, ts, id)
	if st.State != StateFailed || st.Error == "" {
		t.Errorf("state=%s err=%q, want failed with message", st.State, st.Error)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := postJob(t, ts, JobRequest{Algorithm: "pagerank", Graph: "sd", Workers: 3, Iterations: 5})
	if st := awaitJob(t, ts, id); st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	exp := string(body)
	for _, frag := range []string{
		"# TYPE pregel_jobs gauge",
		`pregel_jobs{state="done"} 1`,
		"# TYPE pregel_supersteps_total counter",
		"pregel_batches_sent_total",
		"pregel_queue_wait_seconds_bucket",
	} {
		if !strings.Contains(exp, frag) {
			t.Errorf("exposition missing %q:\n%s", frag, exp)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := postJob(t, ts, JobRequest{Algorithm: "sssp", Graph: "sd", Workers: 2})
	if st := awaitJob(t, ts, id); st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}

	// Default format: JSONL, one event per line, readable by the exporter's
	// own decoder, including the top-level job span.
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/trace", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	events, err := observe.ReadJSONL(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading jsonl trace: %v", err)
	}
	jobs := 0
	for _, e := range events {
		if e.Kind == observe.KindJob {
			jobs++
		}
	}
	if len(events) == 0 || jobs != 1 {
		t.Errorf("jsonl trace: %d events, %d job spans", len(events), jobs)
	}

	// Chrome format round-trips through the trace_event decoder.
	resp, err = http.Get(fmt.Sprintf("%s/jobs/%d/trace?format=chrome", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	chromeEvents, err := observe.ReadChromeTrace(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading chrome trace: %v", err)
	}
	if len(chromeEvents) != len(events) {
		t.Errorf("chrome trace has %d events, jsonl has %d", len(chromeEvents), len(events))
	}

	// Unknown format and unknown job are client errors.
	resp, err = http.Get(fmt.Sprintf("%s/jobs/%d/trace?format=bogus", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus format status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/jobs/999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job trace status = %d", resp.StatusCode)
	}
}

func TestElasticJobScalesAndReports(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := postJob(t, ts, JobRequest{
		Algorithm: "bc", Graph: "sd", Workers: 2, Roots: 8,
		Swath: "none", ElasticHigh: 5,
	})
	st := awaitJob(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Result.ScaleEvents) == 0 {
		t.Fatalf("no scale events: %+v", st.Result)
	}
	for _, ev := range st.Result.ScaleEvents {
		if ev.FromWorkers == ev.ToWorkers || ev.MigratedBytes <= 0 {
			t.Errorf("bad scale event %+v", ev)
		}
	}
	if st.Result.VMSeconds <= 0 {
		t.Errorf("VMSeconds = %g, want > 0", st.Result.VMSeconds)
	}
	if st.Result.FinalWorkers != 2 && st.Result.FinalWorkers != 5 {
		t.Errorf("FinalWorkers = %d, want 2 or 5", st.Result.FinalWorkers)
	}
	// The defaulted threshold must round-trip into the stored request.
	if st.Request.ElasticThreshold != 0.5 {
		t.Errorf("ElasticThreshold = %g, want defaulted 0.5", st.Request.ElasticThreshold)
	}
}

// invalidElasticRequests have an elastic range submission rejects.
var invalidElasticRequests = []JobRequest{
	{Algorithm: "bc", Graph: "sd", Workers: 4, ElasticHigh: 4},   // high == low
	{Algorithm: "bc", Graph: "sd", Workers: 4, ElasticHigh: 2},   // high < low
	{Algorithm: "bc", Graph: "sd", Workers: 4, ElasticHigh: 100}, // over cap
	{Algorithm: "bc", Graph: "sd", Workers: 2, ElasticHigh: 5, ElasticThreshold: 1.5},
}

func TestElasticValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, req := range invalidElasticRequests {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
}
