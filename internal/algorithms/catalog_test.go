package algorithms

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pregelnet/internal/graph"
)

// TestCatalogModelsAgree runs every catalog algorithm under both models on
// SD' with two workers. Integer-state results must print the same summary
// line; pagerank and bc (float sums whose order depends on the model) must
// rank the same top vertices with scores equal to 1e-9 relative.
func TestCatalogModelsAgree(t *testing.T) {
	g := graph.DatasetSD()
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			var outs [2]*Outcome
			for i, model := range []string{"vertex", "subgraph"} {
				req := Request{Algorithm: name, Model: model, Roots: 4, Iterations: 3,
					Swath: "adaptive", Initiate: "dynamic"}
				out, err := Execute(g, 2, req, Env{})
				if err != nil {
					t.Fatalf("%s: %v", model, err)
				}
				if len(out.Steps) == 0 || out.Messages() == 0 {
					t.Fatalf("%s: %d supersteps, %d messages", model, len(out.Steps), out.Messages())
				}
				outs[i] = out
			}
			v, s := outs[0], outs[1]
			if v.Scores == nil {
				if v.Summary == "" || s.Scores != nil || v.Summary != s.Summary {
					t.Fatalf("summary: vertex %q, subgraph %q", v.Summary, s.Summary)
				}
				return
			}
			if v.ScoreName == "" || v.ScoreName != s.ScoreName || v.Summary != "" {
				t.Fatalf("ranking %q/%q with summary %q", v.ScoreName, s.ScoreName, v.Summary)
			}
			for u := range v.Scores {
				a, b := v.Scores[u], s.Scores[u]
				if math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
					t.Fatalf("vertex %d: %s %v under vertex, %v under subgraph", u, v.ScoreName, a, b)
				}
			}
			vt, st := Top(v.Scores, 10), Top(s.Scores, 10)
			for i := range vt {
				if vt[i].Vertex != st[i].Vertex {
					t.Fatalf("top %d: vertex %d under vertex, %d under subgraph", i, vt[i].Vertex, st[i].Vertex)
				}
			}
		})
	}
}

func TestTopBreaksTiesByVertexID(t *testing.T) {
	got := Top([]float64{1, 3, 0, 3, 2, 3}, 4)
	want := []TopVertex{{1, 3}, {3, 3}, {5, 3}, {4, 2}}
	if !slices.Equal(got, want) {
		t.Errorf("Top = %v, want %v", got, want)
	}
	if got := Top([]float64{1, 2}, 5); len(got) != 2 {
		t.Errorf("Top past the end = %v", got)
	}
	if got := Top([]float64{1, 2}, -1); len(got) != 0 {
		t.Errorf("Top(-1) = %v", got)
	}
}

// TestCatalogRejectsBeforeRunning covers the requests Validate turns away
// before a graph is loaded; each used to panic in the command line tool.
func TestCatalogRejectsBeforeRunning(t *testing.T) {
	ok := Request{Algorithm: "bc", Model: "vertex", Roots: 4, Swath: "adaptive", Initiate: "dynamic"}
	for _, tc := range []struct {
		name    string
		edit    func(*Request)
		workers int
		want    string
	}{
		{"no workers", func(*Request) {}, 0, "workers 0"},
		{"negative roots", func(r *Request) { r.Roots = -3 }, 2, "roots -3"},
		{"zero roots", func(r *Request) { r.Roots = 0 }, 2, "roots 0"},
		{"unknown algorithm", func(r *Request) { r.Algorithm = "kcore" }, 2, "unknown algorithm"},
		{"unknown model", func(r *Request) { r.Model = "edge" }, 2, "unknown model"},
		{"unknown swath", func(r *Request) { r.Algorithm, r.Swath = "sssp", "bogus" }, 2, "unknown swath mode"},
		{"bad initiate", func(r *Request) { r.Algorithm, r.Initiate = "sssp", "static0" }, 2, "bad initiation"},
	} {
		req := ok
		tc.edit(&req)
		err := req.Validate(tc.workers)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := Execute(graph.Ring(8), tc.workers, req, Env{}); err == nil {
			t.Errorf("%s: Execute ran", tc.name)
		}
	}
	if err := ok.Validate(2); err != nil {
		t.Errorf("valid request: %v", err)
	}
}
