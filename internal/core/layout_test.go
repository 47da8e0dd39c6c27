package core

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
)

// TestPackingRoundTrip: every (owner, local index) a layout places comes
// back out of its 4-byte place, at worker counts on both sides of a power
// of two.
func TestPackingRoundTrip(t *testing.T) {
	g := graph.Ring(50)
	for _, workers := range []int{1, 2, 3, 4, 5, 8, 9, 33} {
		a := partition.Hash{}.Partition(g, workers)
		lay := newLayout(a, workers, nil)
		for w, owned := range lay.owned {
			for li, v := range owned {
				p := lay.place[v]
				if int(lay.owner(p)) != w || int(lay.index(p)) != li {
					t.Fatalf("%d workers: vertex %d placed at (%d, %d), want (%d, %d)",
						workers, v, lay.owner(p), lay.index(p), w, li)
				}
			}
		}
	}
	for _, tc := range []struct{ workers, max int }{
		{1, 1 << 31}, {2, 1 << 31}, {3, 1 << 30}, {4, 1 << 30}, {5, 1 << 29}, {64, 1 << 26}, {1 << 16, 1 << 16},
	} {
		if got := packingFor(tc.workers).maxPartition(); got != tc.max {
			t.Errorf("%d workers: largest partition %d, want %d", tc.workers, got, tc.max)
		}
	}
}

// fixedPartitioner returns the same assignment for every worker count.
type fixedPartitioner partition.Assignment

func (fixedPartitioner) Name() string { return "fixed" }

func (f fixedPartitioner) Partition(*graph.Graph, int) partition.Assignment {
	return partition.Assignment(f)
}

// TestLayoutBound: an assignment with a partition larger than the layout's
// local-index bits can address is an error naming that partition, both when
// the job starts with it and when a resize would switch to it — never a
// silently truncated index. At 65,536 workers a place keeps 16 bits for the
// local index, so 65,537 vertices on one partition do not fit.
func TestLayoutBound(t *testing.T) {
	const workers = 1 << 16
	g := graph.Ring(workers + 1)
	crowded := make(partition.Assignment, g.NumVertices())
	for v := range crowded {
		crowded[v] = 3
	}

	spec := ckptSpec(g, workers, 0)
	spec.Assignment = crowded
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "partition 3 ") {
		t.Fatalf("start with an overfull partition: err %v, want one naming partition 3", err)
	}

	// The same graph at 2 workers fits; resizing to 65,536 would not.
	spec = ckptSpec(g, 2, 0)
	spec.ElasticController = stepAtController(1, workers)
	spec.Repartitioner = fixedPartitioner(crowded)
	res, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "partition 3 ") {
		t.Fatalf("resize to an overfull partition: err %v, want one naming partition 3", err)
	}
	if res == nil || len(res.ScaleEvents) != 0 || len(res.Owned) != 2 {
		t.Fatalf("failed resize: result %+v, want the 2-worker segment's and no scale event", res)
	}
}

// rawGraph builds a graph with exactly the given adjacency lists, in order,
// duplicates and self-loops kept (the Builder would sort and merge them),
// through the binary format, which takes a CSR as it is.
func rawGraph(t *testing.T, adj [][]graph.VertexID) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	arcs := 0
	for _, l := range adj {
		arcs += len(l)
	}
	buf.Write(binary.LittleEndian.AppendUint32(nil, 0x50474252)) // "PGBR"
	buf.Write(binary.LittleEndian.AppendUint32(nil, 0))          // no name
	buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(adj))))
	buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(arcs)))
	off := 0
	buf.Write(binary.LittleEndian.AppendUint64(nil, 0))
	for _, l := range adj {
		off += len(l)
		buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(off)))
	}
	for _, l := range adj {
		for _, v := range l {
			buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
		}
	}
	g, err := graph.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// spanMismatch returns the first (receiver, want, got) where the layout's
// spans for sender s's vertex li differ from u's adjacency filtered to each
// worker's vertices, as that worker's local indices, in order; ok is false
// when there is none.
func spanMismatch(lay *layout, g *graph.Graph, s int, li int32) (recv int, want, got []int32, ok bool) {
	u := lay.owned[s][li]
	for r := range lay.owned {
		want = want[:0]
		for _, v := range g.Neighbors(u) {
			if p := lay.place[v]; int(lay.owner(p)) == r {
				want = append(want, lay.index(p))
			}
		}
		if got = lay.span(r, s, li); !slices.Equal(got, want) {
			return r, want, got, true
		}
	}
	return 0, nil, nil, false
}

// TestMirrorSpans: a layout without a combiner holds, for every vertex and
// every worker, the vertex's out-neighbours on that worker as its local
// indices, in adjacency order — duplicate arcs twice, a self-loop in its
// owner's span, and an empty span where it has no neighbour. A job with a
// combiner builds none.
func TestMirrorSpans(t *testing.T) {
	g := rawGraph(t, [][]graph.VertexID{
		{5, 1, 1, 0, 3, 2, 1}, // duplicates, a self-loop, out of order
		{0, 4, 4},
		{}, // no neighbour anywhere
		{3, 3},
		{5, 0, 2},
		{1},
	})
	var dup, self, empty bool // the cases the graph is for, seen in some span
	for _, workers := range []int{1, 2, 3, 4} {
		for _, a := range []partition.Assignment{
			partition.Hash{}.Partition(g, workers),
			partition.Chunk{}.Partition(g, workers),
		} {
			lay := newLayout(a, workers, g)
			for s, owned := range lay.owned {
				for li, u := range owned {
					if r, want, got, bad := spanMismatch(lay, g, s, int32(li)); bad {
						t.Fatalf("%d workers, assignment %v: vertex %d's span on worker %d is %v, want %v",
							workers, a, u, r, got, want)
					}
					for r := range lay.owned {
						span := lay.span(r, s, int32(li))
						dup = dup || len(span) > len(slices.Compact(slices.Clone(span)))
						self = self || r == s && slices.Contains(span, int32(li))
						empty = empty || len(span) == 0 && g.OutDegree(u) > 0
					}
				}
			}
		}
	}
	if !dup || !self || !empty {
		t.Fatalf("coverage: a duplicate arc in a span %v, a self-loop %v, an empty span of a vertex with neighbours %v", dup, self, empty)
	}
	spec := JobSpec[float64]{Graph: g, NumWorkers: 2, Combiner: SumCombiner{}}
	spec.Assignment = partition.Hash{}.Partition(g, 2)
	if specLayout(&spec).mirrors != nil {
		t.Error("a job with a combiner got mirror spans")
	}
}

// spanCheckProgram is the checkpointable BFS program checking, at every
// vertex it computes, that the layout the vertex is computed under holds
// its mirror spans.
type spanCheckProgram struct {
	*ckptBFSProgram
	g       *graph.Graph
	bad     *atomic.Int64
	workers *atomic.Int64 // bit n set: a vertex computed under n workers
}

func (p spanCheckProgram) Compute(ctx *Context[uint32], msgs []uint32) {
	if _, _, _, bad := spanMismatch(ctx.w.lay, p.g, ctx.WorkerID(), ctx.local); bad {
		p.bad.Add(1)
	}
	for {
		old := p.workers.Load()
		if p.workers.CompareAndSwap(old, old|1<<ctx.NumWorkers()) {
			break
		}
	}
	p.ckptBFSProgram.Compute(ctx, msgs)
}

// TestMirrorSpansRebuiltOnResize: a job resized from 2 workers to 3 and
// back computes every vertex under a layout holding its mirror spans for
// the worker count and assignment of the moment, and its result is BFS's.
func TestMirrorSpansRebuiltOnResize(t *testing.T) {
	g := graph.ErdosRenyi(200, 800, 3)
	var bad, workers atomic.Int64
	spec := ckptSpec(g, 2, 0)
	spec.NewProgram = func(id int, g *graph.Graph, owned []graph.VertexID) VertexProgram[uint32] {
		return spanCheckProgram{newCkptBFSProgram(id, g, owned).(*ckptBFSProgram), g, &bad, &workers}
	}
	spec.ElasticController = ElasticControllerFunc(func(prev *StepStats, current int) int {
		switch {
		case prev == nil || prev.Superstep < 1:
			return 2
		case prev.Superstep < 3:
			return 3
		default:
			return 2
		}
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ScaleEvents) != 2 || workers.Load() != 1<<2|1<<3 {
		t.Fatalf("%d scale events, worker counts %b computed under; want 2 resizes and both 2 and 3 workers", len(res.ScaleEvents), workers.Load())
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d vertices computed under a layout without their mirror spans", n)
	}
	want := graph.BFS(g, 0)
	for w, prog := range res.Programs {
		p := prog.(spanCheckProgram)
		for li, v := range res.Owned[w] {
			if p.dist[li] != want[v] {
				t.Fatalf("vertex %d: dist %d after the resizes, want %d", v, p.dist[li], want[v])
			}
		}
	}
}
