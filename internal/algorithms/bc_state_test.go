package algorithms

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"unsafe"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// checkedBC wraps the BC program and checks its per-vertex root states
// around every Compute call.
type checkedBC struct {
	*bcProgram
	t *testing.T

	mu     sync.Mutex
	reused int // opened states that took over a completed state's preds
}

// predsBase returns the first element of preds' backing array (nil when it
// has none), which two slots must never share.
func predsBase(preds []graph.VertexID) *graph.VertexID {
	if cap(preds) == 0 {
		return nil
	}
	return unsafe.SliceData(preds)
}

func (c *checkedBC) Compute(ctx *core.Context[BCMsg], msgs []BCMsg) {
	li := ctx.LocalIndex()
	before := c.states[li]
	spare := map[*graph.VertexID]bool{}
	for _, st := range before[len(before):cap(before)] {
		if p := predsBase(st.preds); p != nil {
			spare[p] = true
		}
	}
	c.bcProgram.Compute(ctx, msgs)
	states := c.states[li]
	seen := map[*graph.VertexID]int{}
	for i, st := range states[:cap(states)] {
		if i > 0 && i < len(states) && st.root <= states[i-1].root {
			c.t.Errorf("vertex %d superstep %d: root %d follows root %d", ctx.Vertex(), ctx.Superstep(), st.root, states[i-1].root)
		}
		p := predsBase(st.preds)
		if p == nil {
			continue
		}
		if j, dup := seen[p]; dup {
			c.t.Errorf("vertex %d superstep %d: slots %d and %d share preds storage", ctx.Vertex(), ctx.Superstep(), j, i)
		}
		seen[p] = i
		if i < len(states) && spare[p] && st.discovered == int32(ctx.Superstep()) {
			c.mu.Lock()
			c.reused++
			c.mu.Unlock()
		}
	}
	// The state survives a checkpoint record round trip in root order.
	rec := c.AppendVertex(nil, int32(li))
	fresh := &bcProgram{scores: make([]float64, len(c.scores)), states: make([][]bcRootState, len(c.states))}
	if _, err := fresh.ReadVertex(int32(li), rec); err != nil {
		c.t.Fatalf("vertex %d: reading its own record: %v", ctx.Vertex(), err)
	}
	for i := 1; i < len(fresh.states[li]); i++ {
		if fresh.states[li][i].root <= fresh.states[li][i-1].root {
			c.t.Errorf("vertex %d: ReadVertex left root %d after root %d", ctx.Vertex(), fresh.states[li][i].root, fresh.states[li][i-1].root)
		}
	}
	if got := fresh.AppendVertex(nil, int32(li)); !bytes.Equal(got, rec) {
		c.t.Errorf("vertex %d: record does not survive ReadVertex", ctx.Vertex())
	}
}

// TestBCRootStates: on a graph whose traversals overlap — roots injected a
// few supersteps apart, so one completes at a vertex while another is still
// forwarding through it — every Compute leaves a vertex's states in
// ascending root order, no two of its slots (recycled ones included) share
// preds storage, and the record round trip keeps the order. Scores still
// match the sequential reference, and states were recycled along the way.
func TestBCRootStates(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 9)
	roots := Sources(g, 24)
	var progs []*checkedBC
	var mu sync.Mutex
	spec := BC(g, 3, core.NewSwathRunner(roots, core.StaticSizer(4), core.StaticNInitiator(2)))
	spec.MaxSupersteps = 1000 // a program that corrupts its states may never finish
	newProg := spec.NewProgram
	spec.NewProgram = func(id int, g *graph.Graph, owned []graph.VertexID) core.VertexProgram[BCMsg] {
		c := &checkedBC{bcProgram: newProg(id, g, owned).(*bcProgram), t: t}
		mu.Lock()
		progs = append(progs, c)
		mu.Unlock()
		return c
	}
	res, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for _, c := range progs {
		reused += c.reused
	}
	if reused == 0 {
		t.Fatal("no traversal reused a completed traversal's state")
	}
	got := gather[float64](res, g.NumVertices(), func(p *checkedBC) []float64 { return p.scores })
	want := BCSequential(g, roots)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
			t.Fatalf("vertex %d: BC %v, want %v", v, got[v], want[v])
		}
	}
}
