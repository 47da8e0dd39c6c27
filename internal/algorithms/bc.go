package algorithms

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// Betweenness centrality via Brandes' algorithm (the paper's stress case,
// §II.B): a breadth-first traversal rooted at every source counts shortest
// paths (sigma) on the way down, then walks back up the BFS tree
// accumulating dependency scores (delta). On BSP each traversal level is one
// superstep, so a root at injection step t evolves:
//
//	t+d   : vertices at distance d receive forward messages from all their
//	        predecessors at once, fix sigma and dist, record predecessors,
//	        ack all predecessors with one SendToAll, and forward to
//	        neighbors;
//	t+d+2 : acks from every successor have arrived, so the successor count
//	        is final; a vertex with zero successors (leaf) fires its
//	        backward contribution immediately;
//	later : when backward contributions from all successors have arrived,
//	        the vertex adds sigma_v * (1+delta_w)/sigma_w per successor w,
//	        accumulates delta into its centrality score, fires to its own
//	        predecessors, and frees the per-root state.
//
// Messages are O(|E|) per root in each direction, producing the triangle
// waveform of Fig 3 and the O(|V||E|) total the paper's swath heuristics
// exist to manage. Scores count ordered pairs (s,t), as Brandes' algorithm
// does before the optional halving for undirected graphs.

// BC message kinds.
const (
	bcForward  uint8 = iota // carries sender's sigma; Aux = receiver distance
	bcAck                   // notifies a predecessor it has a successor
	bcBackward              // carries (1+delta_w)/sigma_w
)

// BCMsg is the wire message for betweenness centrality.
type BCMsg struct {
	Root  uint32
	Kind  uint8
	From  uint32  // forward: sender vertex
	Aux   uint32  // forward: distance the receiver should adopt
	Value float64 // forward: sigma; backward: (1+delta)/sigma
}

// BCCodec encodes BCMsg in 21 bytes.
type BCCodec struct{}

// Append implements core.Codec.
func (BCCodec) Append(buf []byte, m BCMsg) []byte {
	var b [21]byte
	binary.LittleEndian.PutUint32(b[0:], m.Root)
	b[4] = m.Kind
	binary.LittleEndian.PutUint32(b[5:], m.From)
	binary.LittleEndian.PutUint32(b[9:], m.Aux)
	binary.LittleEndian.PutUint64(b[13:], math.Float64bits(m.Value))
	return append(buf, b[:]...)
}

// Decode implements core.Codec.
func (BCCodec) Decode(data []byte) (BCMsg, int) {
	return BCMsg{
		Root:  binary.LittleEndian.Uint32(data[0:]),
		Kind:  data[4],
		From:  binary.LittleEndian.Uint32(data[5:]),
		Aux:   binary.LittleEndian.Uint32(data[9:]),
		Value: math.Float64frombits(binary.LittleEndian.Uint64(data[13:])),
	}, 21
}

// Size implements core.Codec.
func (BCCodec) Size(BCMsg) int { return 21 }

// bcRootState is one vertex's state for one in-flight traversal. Its
// accounted size is bcStateBaseBytes plus 8 per predecessor.
type bcRootState struct {
	root       uint32
	dist       int32
	discovered int32 // superstep of discovery
	succ       int32
	back       int32
	sigma      float64
	delta      float64
	preds      []graph.VertexID
}

const bcStateBaseBytes = 72

func (st *bcRootState) bytes() int64 { return bcStateBaseBytes + int64(8*len(st.preds)) }

type bcProgram struct {
	scores []float64
	// states[li] holds li's in-flight traversals in ascending root order,
	// which is the order Compute sends in and AppendVertex writes. Slots
	// past the length are completed traversals kept for reuse: each owns its
	// preds storage, so slots only ever move by swapping, never by copying
	// one over another (two slots would then share a preds array).
	states     [][]bcRootState
	stateBytes atomic.Int64
}

// BC builds the betweenness-centrality job over the given source roots.
// Swath scheduling is supplied by the caller: pass core.NewAllAtOnce(roots)
// for the single-swath baseline or a core.SwathRunner for the heuristics.
func BC(g *graph.Graph, workers int, scheduler core.SwathScheduler) core.JobSpec[BCMsg] {
	return core.JobSpec[BCMsg]{
		Graph:      g,
		NumWorkers: workers,
		Codec:      BCCodec{},
		Scheduler:  scheduler,
		NewProgram: func(_ int, _ *graph.Graph, owned []graph.VertexID) core.VertexProgram[BCMsg] {
			return &bcProgram{
				scores: make([]float64, len(owned)),
				states: make([][]bcRootState, len(owned)),
			}
		},
	}
}

// findRoot returns the index of root's state in the ascending states, or
// the index it would be inserted at and false. It tries hint first: one
// sender's messages arrive in ascending root order, so a message's root is
// often the state after the previous message's.
func findRoot(states []bcRootState, root uint32, hint int) (int, bool) {
	if hint < len(states) && states[hint].root == root {
		return hint, true
	}
	lo, hi := 0, len(states)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if states[mid].root < root {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(states) && states[lo].root == root
}

// insertRoot opens a fresh state for root at index i of the ascending
// states, reusing the slot (and its preds capacity) just past the end when
// there is one. The slot rotates into place, so every slot keeps its own
// preds storage.
func insertRoot(states []bcRootState, i int, root uint32, dist, step int32) []bcRootState {
	if len(states) < cap(states) {
		states = states[:len(states)+1]
	} else {
		states = append(states, bcRootState{})
	}
	last := len(states) - 1
	free := states[last]
	copy(states[i+1:], states[i:last])
	states[i] = bcRootState{root: root, dist: dist, discovered: step, preds: free.preds[:0]}
	return states
}

// Compute implements core.VertexProgram.
func (p *bcProgram) Compute(ctx *core.Context[BCMsg], msgs []BCMsg) {
	li := ctx.LocalIndex()
	states := p.states[li]
	self := uint32(ctx.Vertex())
	step := int32(ctx.Superstep())
	var grew int64 // accounted bytes added by this call

	// Injection: this vertex becomes the root of a new traversal.
	if ctx.IsInjected() {
		if i, ok := findRoot(states, self, 0); !ok {
			states = insertRoot(states, i, self, 0, step)
			states[i].sigma = 1
			grew += bcStateBaseBytes
		}
	}

	i := -1
	for j := range msgs {
		m := &msgs[j]
		var ok bool
		i, ok = findRoot(states, m.Root, i+1)
		switch m.Kind {
		case bcForward:
			if !ok {
				states = insertRoot(states, i, m.Root, int32(m.Aux), step)
				grew += bcStateBaseBytes
			}
			st := &states[i]
			// Accept only messages for our own BFS level; anything else is a
			// cross or back edge discovered late.
			if int32(m.Aux) == st.dist && st.discovered == step {
				st.sigma += m.Value
				st.preds = append(st.preds, graph.VertexID(m.From))
				grew += 8
			}
		case bcAck:
			if ok {
				states[i].succ++
			}
		case bcBackward:
			if ok {
				st := &states[i]
				st.delta += st.sigma * m.Value
				st.back++
			}
		}
	}

	// Both loops below walk the roots in ascending order: they send messages
	// and accumulate floating-point scores, so replay after recovery must
	// repeat the original run's order. Newly discovered traversals ack their
	// predecessors, one ack per accepted forward (an ack only counts a
	// successor, so when it is sent cannot move a bit), and forward their
	// sigma down the tree.
	for i := range states {
		if st := &states[i]; st.discovered == step {
			ctx.SendToAll(st.preds, BCMsg{Root: st.root, Kind: bcAck})
			ctx.SendToNeighbors(BCMsg{Root: st.root, Kind: bcForward, From: self, Aux: uint32(st.dist + 1), Value: st.sigma})
		}
	}

	// Fire completed traversals: successor count is final two supersteps
	// after discovery, and every successor has contributed back. Kept states
	// swap down over completed ones, which end past the new length.
	kept := 0
	for i := range states {
		st := &states[i]
		if step < st.discovered+2 || st.back != st.succ {
			states[kept], states[i] = states[i], states[kept]
			kept++
			continue
		}
		if st.dist > 0 {
			p.scores[li] += st.delta
			ctx.SendToAll(st.preds, BCMsg{Root: st.root, Kind: bcBackward, Value: (1 + st.delta) / st.sigma})
		} else {
			// The root finished: the whole traversal is complete.
			ctx.Aggregate("bc/rootsDone", 1)
		}
		grew -= st.bytes()
	}
	p.states[li] = states[:kept]
	if grew != 0 {
		p.stateBytes.Add(grew)
	}

	if kept == 0 {
		ctx.VoteToHalt()
	}
}

// StateBytes implements core.StateReporter.
func (p *bcProgram) StateBytes() int64 {
	return p.stateBytes.Load() + int64(8*len(p.scores))
}

// BCScores extracts the accumulated centrality scores.
func BCScores(res *core.JobResult[BCMsg], n int) []float64 {
	return mergeFloat64(res, n, func(prog core.VertexProgram[BCMsg]) []float64 {
		return prog.(*bcProgram).scores
	})
}

// BCSequential is the reference Brandes implementation (unweighted), scoring
// ordered pairs from the given roots only. Used to validate the BSP version
// and to extrapolate full-graph results the way the paper samples roots.
func BCSequential(g *graph.Graph, roots []graph.VertexID) []float64 {
	n := g.NumVertices()
	scores := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	preds := make([][]graph.VertexID, n)
	order := make([]graph.VertexID, 0, n)
	for _, s := range roots {
		for i := 0; i < n; i++ {
			dist[i] = -1
			sigma[i] = 0
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		order = order[:0]
		dist[s] = 0
		sigma[s] = 1
		queue := []graph.VertexID{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				scores[w] += delta[w]
			}
		}
	}
	return scores
}
