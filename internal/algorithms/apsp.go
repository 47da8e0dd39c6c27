package algorithms

import (
	"encoding/binary"
	"sync/atomic"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// All-pairs shortest paths (unweighted): a multi-source BFS where each
// injected root floods its distance wave through the graph. Like BC it has
// the triangle-waveform message profile of Fig 3, but no backward phase, so
// its peak is lower (the paper measures 3M vs BC's 4.7M for one WG swath).
// The result state grows with roots × reachable vertices — the reason the
// paper could not fit LJ in worker memory for APSP.

// APSPMsg carries a root id and the distance the receiver should adopt.
type APSPMsg struct {
	Root uint32
	Dist uint32
}

// APSPCodec encodes APSPMsg in 8 bytes.
type APSPCodec struct{}

// Append implements core.Codec.
func (APSPCodec) Append(buf []byte, m APSPMsg) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:], m.Root)
	binary.LittleEndian.PutUint32(b[4:], m.Dist)
	return append(buf, b[:]...)
}

// Decode implements core.Codec.
func (APSPCodec) Decode(data []byte) (APSPMsg, int) {
	return APSPMsg{
		Root: binary.LittleEndian.Uint32(data[0:]),
		Dist: binary.LittleEndian.Uint32(data[4:]),
	}, 8
}

// Size implements core.Codec.
func (APSPCodec) Size(APSPMsg) int { return 8 }

type apspProgram struct {
	dists      []map[uint32]int32
	stateBytes atomic.Int64
	roots      []uint32 // AppendVertex scratch
}

// APSP builds the all-pairs-shortest-paths job over the scheduler's roots.
func APSP(g *graph.Graph, workers int, scheduler core.SwathScheduler) core.JobSpec[APSPMsg] {
	return core.JobSpec[APSPMsg]{
		Graph:      g,
		NumWorkers: workers,
		Codec:      APSPCodec{},
		Scheduler:  scheduler,
		NewProgram: func(_ int, _ *graph.Graph, owned []graph.VertexID) core.VertexProgram[APSPMsg] {
			return &apspProgram{dists: make([]map[uint32]int32, len(owned))}
		},
	}
}

// Compute implements core.VertexProgram.
func (p *apspProgram) Compute(ctx *core.Context[APSPMsg], msgs []APSPMsg) {
	li := ctx.LocalIndex()
	dists := p.dists[li]
	record := func(root uint32, d int32) bool {
		if dists == nil {
			dists = make(map[uint32]int32)
			p.dists[li] = dists
		}
		if _, ok := dists[root]; ok {
			return false // BFS: first arrival is shortest
		}
		dists[root] = d
		p.stateBytes.Add(16)
		return true
	}
	if ctx.IsInjected() {
		if record(uint32(ctx.Vertex()), 0) {
			ctx.SendToNeighbors(APSPMsg{Root: uint32(ctx.Vertex()), Dist: 1})
		}
	}
	for _, m := range msgs {
		if record(m.Root, int32(m.Dist)) {
			ctx.SendToNeighbors(APSPMsg{Root: m.Root, Dist: m.Dist + 1})
		}
	}
	ctx.VoteToHalt()
}

// StateBytes implements core.StateReporter.
func (p *apspProgram) StateBytes() int64 { return p.stateBytes.Load() }

// APSPDistances extracts the distance table: result[i][v] is the distance
// from roots[i] to vertex v (-1 when unreached).
func APSPDistances(res *core.JobResult[APSPMsg], n int, roots []graph.VertexID) [][]int32 {
	rootIdx := make(map[uint32]int, len(roots))
	for i, r := range roots {
		rootIdx[uint32(r)] = i
	}
	out := make([][]int32, len(roots))
	for i := range out {
		out[i] = make([]int32, n)
		for v := range out[i] {
			out[i][v] = -1
		}
	}
	for w, prog := range res.Programs {
		p := prog.(*apspProgram)
		for li, v := range res.Owned[w] {
			for root, d := range p.dists[li] {
				if i, ok := rootIdx[root]; ok {
					out[i][v] = d
				}
			}
		}
	}
	return out
}
