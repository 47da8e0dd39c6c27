package algorithms

import (
	"encoding/binary"
	"sort"
	"sync/atomic"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// k-core decomposition on BSP (Montresor, De Pellegrini, Miorandi: locality
// based distributed k-core): every vertex maintains a coreness estimate,
// initially its degree, and repeatedly lowers it to the largest k such that
// at least k neighbors claim an estimate ≥ k (an h-index over neighbor
// estimates). Estimates only decrease, so the fixpoint — reached in a few
// supersteps on small-world graphs — is the exact coreness.

// KCoreMsg announces the sender's current coreness estimate.
type KCoreMsg struct {
	From uint32
	Est  uint32
}

// KCoreCodec encodes KCoreMsg in 8 bytes.
type KCoreCodec struct{}

// Append implements core.Codec.
func (KCoreCodec) Append(buf []byte, m KCoreMsg) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:], m.From)
	binary.LittleEndian.PutUint32(b[4:], m.Est)
	return append(buf, b[:]...)
}

// Decode implements core.Codec.
func (KCoreCodec) Decode(data []byte) (KCoreMsg, int) {
	return KCoreMsg{
		From: binary.LittleEndian.Uint32(data[0:]),
		Est:  binary.LittleEndian.Uint32(data[4:]),
	}, 8
}

// Size implements core.Codec.
func (KCoreCodec) Size(KCoreMsg) int { return 8 }

type kcoreProgram struct {
	est      []uint32            // current estimate per local vertex
	nbrEst   []map[uint32]uint32 // latest neighbor estimates
	nbrCount []int
	// stateBytes is the running StateBytes total: 4 per vertex plus 16 per
	// neighbor estimate held. Compute slots insert concurrently, hence atomic.
	stateBytes atomic.Int64
}

// KCore builds the coreness-decomposition job.
func KCore(g *graph.Graph, workers int) core.JobSpec[KCoreMsg] {
	return core.JobSpec[KCoreMsg]{
		Graph:      g,
		NumWorkers: workers,
		Codec:      KCoreCodec{},
		NewProgram: func(_ int, gg *graph.Graph, owned []graph.VertexID) core.VertexProgram[KCoreMsg] {
			p := &kcoreProgram{
				est:      make([]uint32, len(owned)),
				nbrEst:   make([]map[uint32]uint32, len(owned)),
				nbrCount: make([]int, len(owned)),
			}
			for li, v := range owned {
				p.est[li] = uint32(gg.OutDegree(v))
				p.nbrCount[li] = gg.OutDegree(v)
			}
			p.stateBytes.Store(4 * int64(len(owned)))
			return p
		},
		ActivateAll: true,
	}
}

// Compute implements core.VertexProgram.
func (p *kcoreProgram) Compute(ctx *core.Context[KCoreMsg], msgs []KCoreMsg) {
	li := ctx.LocalIndex()
	if ctx.Superstep() == 0 {
		// Broadcast the initial degree estimate.
		ctx.SendToNeighbors(KCoreMsg{From: uint32(ctx.Vertex()), Est: p.est[li]})
		ctx.VoteToHalt()
		return
	}
	if p.nbrEst[li] == nil {
		p.nbrEst[li] = make(map[uint32]uint32, p.nbrCount[li])
	}
	for _, m := range msgs {
		if prev, ok := p.nbrEst[li][m.From]; !ok || m.Est < prev {
			p.nbrEst[li][m.From] = m.Est
			if !ok {
				p.stateBytes.Add(16)
			}
		}
	}
	// Recompute the h-index bound: largest k with >= k neighbors at >= k.
	// Unreported neighbors are assumed at their upper bound (they have not
	// lowered below our current view), approximated by our own estimate.
	ests := make([]uint32, 0, p.nbrCount[li])
	for _, u := range ctx.Neighbors() {
		if e, ok := p.nbrEst[li][uint32(u)]; ok {
			ests = append(ests, e)
		} else {
			ests = append(ests, p.est[li])
		}
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i] > ests[j] })
	var h uint32
	for i, e := range ests {
		k := uint32(i + 1)
		if e >= k {
			h = k
		} else {
			break
		}
	}
	if h < p.est[li] {
		p.est[li] = h
		ctx.SendToNeighbors(KCoreMsg{From: uint32(ctx.Vertex()), Est: h})
	}
	ctx.VoteToHalt()
}

// StateBytes implements core.StateReporter.
func (p *kcoreProgram) StateBytes() int64 { return p.stateBytes.Load() }

// Coreness extracts each vertex's core number.
func Coreness(res *core.JobResult[KCoreMsg], n int) []uint32 {
	out := make([]uint32, n)
	for w, prog := range res.Programs {
		p := prog.(*kcoreProgram)
		for li, v := range res.Owned[w] {
			out[v] = p.est[li]
		}
	}
	return out
}

// CorenessSequential is the reference peeling implementation.
func CorenessSequential(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.VertexID(v))
	}
	coreNum := make([]uint32, n)
	removed := make([]bool, n)
	// Peel vertices in increasing degree order (bucket queue).
	type entry struct{ v, d int }
	order := make([]entry, n)
	for v := 0; v < n; v++ {
		order[v] = entry{v, deg[v]}
	}
	for peeled := 0; peeled < n; peeled++ {
		// Find the minimum-degree unremoved vertex (O(n^2) total; fine for
		// test-scale reference use).
		best, bestDeg := -1, 1<<30
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		removed[best] = true
		coreNum[best] = uint32(bestDeg)
		if peeled > 0 {
			// Coreness is the running max of removal degrees.
			prev := order[peeled-1].v
			if coreNum[best] < coreNum[prev] {
				coreNum[best] = coreNum[prev]
			}
		}
		order[peeled] = entry{best, bestDeg}
		for _, u := range g.Neighbors(graph.VertexID(best)) {
			if !removed[u] && deg[u] > 0 {
				deg[u]--
			}
		}
	}
	return coreNum
}
