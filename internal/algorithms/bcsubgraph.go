package algorithms

import (
	"sort"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// Subgraph-centric betweenness centrality. Where the vertex-centric bcProgram
// advances every root's BFS one level per superstep (supersteps ~ 2x the
// vertex-hop diameter), this port runs Brandes' two sweeps as *asynchronous
// relaxations* driven to local convergence inside each partition, so only
// boundary crossings cost a barrier:
//
//   forward  — (dist, sigma) relaxation: dist is a monotone min over
//              predecessors' dist+1, sigma the sum of shortest-path
//              predecessors' sigmas. Predecessor contributions are kept in a
//              list keyed (and sorted) by sender id with replace-not-add
//              semantics, so re-pushes after a sender's own sigma improves
//              update in place and sums stay deterministic.
//   backward — dependency relaxation down the recorded predecessor lists:
//              each reached vertex holds successor contributions
//              (1+delta_w)/sigma_w, again keyed by sender, so delta
//              converges to Brandes' dependency even though values arrive
//              and improve out of level order.
//
// Global phase transitions ride the aggregator plane (the only legal place
// for cross-superstep control state under the recovery contract — the
// manager logs and replays aggregates across rollbacks and resumes):
// every worker contributes its change count to "bcs/fwd" each forward
// superstep (zero included, so presence marks the phase), and the first
// superstep that observes Agg("bcs/fwd") == 0 starts the backward sweep;
// "bcs/back" repeats the pattern, and Agg("bcs/back") == 0 folds delta into
// the scores and halts. A sentinel (local index 0 on every worker) stays
// active through message-free convergence supersteps so the engine's halt
// detector does not end the job between phases.
//
// Scores are deterministic across runs, worker counts, and transports (all
// float accumulation iterates id-sorted lists), but only ULP-close to the
// vertex-centric implementation, which sums in message arrival order.

// bcsContrib is one neighbor's contribution, keyed by its vertex id.
// Forward: val is the sender's sigma. Backward: val is (1+delta)/sigma.
type bcsContrib struct {
	id  uint32
	val float64
}

// bcsState is one vertex's per-root traversal state.
type bcsState struct {
	dist  int32
	sigma float64
	delta float64
	fwd   []bcsContrib // shortest-path predecessors, sorted by id
	back  []bcsContrib // successor dependencies, sorted by id
}

const bcsStateBaseBytes = 88 // struct + map entry overhead; contribs add 16 each

// bcsItem is a worklist entry in the per-superstep fixpoint.
type bcsItem struct {
	root uint32
	li   int32
}

type bcSubgraph struct {
	scores     []float64
	states     []map[uint32]*bcsState
	stateBytes int64 // single-threaded program: no atomics needed

	// Per-superstep scratch, reused to keep the fixpoint allocation-free.
	// work is consumed as a FIFO queue with inWork deduplicating entries:
	// LIFO label-correcting re-relaxes (dist, sigma) in pathological order on
	// large connected partitions (exponential corrections on the metis
	// partitions of a mesh), while FIFO stays close to level order.
	work   []bcsItem
	inWork map[bcsItem]struct{}
	dirty  []bcsItem // vertices whose converged values must cross the boundary
	inSet  map[bcsItem]struct{}
	roots  []uint32 // sorted-key scratch for deterministic map iteration
}

// BCSubgraph builds the subgraph-centric betweenness-centrality job over the
// given roots. All roots traverse concurrently (the phase machine is global,
// so swath scheduling does not apply; partition-local convergence already
// provides the superstep compression swaths approximate).
func BCSubgraph(g *graph.Graph, workers int, roots []graph.VertexID) core.JobSpec[BCMsg] {
	return core.JobSpec[BCMsg]{
		Graph:      g,
		NumWorkers: workers,
		Codec:      BCCodec{},
		Scheduler:  core.NewAllAtOnce(roots),
		NewPartitionProgram: func(_ int, _ *graph.Graph, owned []graph.VertexID) core.PartitionProgram[BCMsg] {
			return &bcSubgraph{
				scores: make([]float64, len(owned)),
				states: make([]map[uint32]*bcsState, len(owned)),
				inWork: make(map[bcsItem]struct{}),
				inSet:  make(map[bcsItem]struct{}),
			}
		},
	}
}

// ComputePartition implements core.PartitionProgram. The phase is derived
// from the previous superstep's aggregates alone (recovery contract).
func (p *bcSubgraph) ComputePartition(pc *core.PartitionContext[BCMsg]) {
	fwd, fwdOk := pc.Agg("bcs/fwd")
	back, backOk := pc.Agg("bcs/back")
	switch {
	case backOk && back == 0:
		p.finish(pc)
		return // terminal: no sentinel, job halts at this barrier
	case backOk || (fwdOk && fwd == 0):
		p.backward(pc, !backOk)
	default:
		p.forward(pc)
	}
	if pc.NumLocal() > 0 {
		pc.Activate(0)
	}
}

func (p *bcSubgraph) state(li int32) map[uint32]*bcsState {
	if p.states[li] == nil {
		p.states[li] = make(map[uint32]*bcsState)
	}
	return p.states[li]
}

func (p *bcSubgraph) push(it bcsItem) {
	if _, ok := p.inWork[it]; !ok {
		p.inWork[it] = struct{}{}
		p.work = append(p.work, it)
	}
}

func (p *bcSubgraph) markDirty(it bcsItem) {
	if _, ok := p.inSet[it]; !ok {
		p.inSet[it] = struct{}{}
		p.dirty = append(p.dirty, it)
	}
}

func (p *bcSubgraph) resetScratch() {
	p.work = p.work[:0]
	clear(p.inWork)
	p.dirty = p.dirty[:0]
	clear(p.inSet)
}

// upsert inserts or replaces (id, val) in an id-sorted contribution list and
// reports whether the list changed. The returned slice replaces the input.
func upsert(list []bcsContrib, id uint32, val float64) ([]bcsContrib, bool) {
	i := sort.Search(len(list), func(k int) bool { return list[k].id >= id })
	if i < len(list) && list[i].id == id {
		if list[i].val == val {
			return list, false
		}
		list[i].val = val
		return list, true
	}
	list = append(list, bcsContrib{})
	copy(list[i+1:], list[i:])
	list[i] = bcsContrib{id: id, val: val}
	return list, true
}

// contribSum reduces an id-sorted contribution list; iteration order is the
// id order, making the float sum deterministic.
func contribSum(list []bcsContrib) float64 {
	var s float64
	for i := range list {
		s += list[i].val
	}
	return s
}

// applyForward merges one forward offer (pred `from` proposes distance nd
// with path count sg) into li's state for root, returning whether the state
// changed. dist is monotone non-increasing, so a smaller offer resets the
// predecessor list and an equal offer upserts; larger offers are stale.
func (p *bcSubgraph) applyForward(li int32, root uint32, nd int32, from uint32, sg float64) bool {
	states := p.state(li)
	st := states[root]
	if st == nil {
		st = &bcsState{dist: nd, sigma: sg, fwd: []bcsContrib{{id: from, val: sg}}}
		states[root] = st
		p.stateBytes += bcsStateBaseBytes + 16
		return true
	}
	switch {
	case nd < st.dist:
		p.stateBytes -= int64(16 * len(st.fwd))
		st.dist = nd
		st.fwd = append(st.fwd[:0], bcsContrib{id: from, val: sg})
		st.sigma = sg
		p.stateBytes += 16
		return true
	case nd == st.dist:
		list, changed := upsert(st.fwd, from, sg)
		if !changed {
			return false
		}
		if len(list) > len(st.fwd) {
			p.stateBytes += 16
		}
		st.fwd = list
		st.sigma = contribSum(st.fwd)
		return true
	default:
		return false
	}
}

func (p *bcSubgraph) forward(pc *core.PartitionContext[BCMsg]) {
	p.resetScratch()
	var changes, ops int64

	for _, li := range pc.Active() {
		if pc.Injected(li) {
			self := uint32(pc.VertexAt(li))
			if states := p.state(li); states[self] == nil {
				states[self] = &bcsState{dist: 0, sigma: 1}
				p.stateBytes += bcsStateBaseBytes
				changes++
				p.push(bcsItem{self, li})
				p.markDirty(bcsItem{self, li})
			}
		}
		for _, m := range pc.Messages(li) {
			if m.Kind != bcForward {
				continue
			}
			ops++
			if p.applyForward(li, m.Root, int32(m.Aux), m.From, m.Value) {
				changes++
				p.push(bcsItem{m.Root, li})
				p.markDirty(bcsItem{m.Root, li})
			}
		}
	}

	// Local fixpoint: relax (dist, sigma) over the partition's own edges
	// until nothing improves. FIFO consumption with dedup keeps relaxation
	// near level order; entries re-read current state at pop time, so a
	// queued-then-improved entry is processed once with its final values.
	for head := 0; head < len(p.work); head++ {
		it := p.work[head]
		delete(p.inWork, it)
		st := p.states[it.li][it.root]
		v := pc.VertexAt(it.li)
		nd, sg := st.dist+1, st.sigma
		for _, u := range pc.Neighbors(v) {
			ops++
			lu := pc.LocalIndex(u)
			if lu < 0 {
				continue
			}
			if p.applyForward(lu, it.root, nd, uint32(v), sg) {
				changes++
				p.push(bcsItem{it.root, lu})
				p.markDirty(bcsItem{it.root, lu})
			}
		}
	}

	// Boundary push: converged (dist, sigma) of every changed vertex goes to
	// its remote out-neighbors. Receivers treat repeats as no-op upserts.
	for _, it := range p.dirty {
		st := p.states[it.li][it.root]
		v := pc.VertexAt(it.li)
		msg := BCMsg{Root: it.root, Kind: bcForward, From: uint32(v), Aux: uint32(st.dist + 1), Value: st.sigma}
		for _, u := range pc.Neighbors(v) {
			if !pc.IsLocal(u) {
				pc.Send(u, msg)
			}
		}
	}

	pc.Aggregate("bcs/fwd", float64(changes))
	pc.AddComputeOps(ops)
	pc.VoteAllToHalt()
}

// applyBack merges one dependency contribution from successor `from` into
// li's state for root, returning whether delta changed (only then does the
// vertex's own contribution to its predecessors change).
func (p *bcSubgraph) applyBack(li int32, root, from uint32, val float64) bool {
	st := p.states[li][root]
	if st == nil {
		return false
	}
	list, changed := upsert(st.back, from, val)
	if !changed {
		return false
	}
	if len(list) > len(st.back) {
		p.stateBytes += 16
	}
	st.back = list
	delta := st.sigma * contribSum(st.back)
	if delta == st.delta {
		return false
	}
	st.delta = delta
	return true
}

// sortedRoots fills p.roots with li's root keys in ascending order, keeping
// every map iteration in this file deterministic.
func (p *bcSubgraph) sortedRoots(li int32) []uint32 {
	p.roots = sortedRoots(p.roots, p.states[li])
	return p.roots
}

func (p *bcSubgraph) backward(pc *core.PartitionContext[BCMsg], firstPush bool) {
	p.resetScratch()
	var changes, ops int64

	if firstPush {
		// Backward-start: the forward sweep just converged globally, so every
		// reached vertex announces its initial dependency (delta = 0) to its
		// predecessors. Counting each state as a change keeps "bcs/back"
		// nonzero whenever any traversal reached anything.
		for li := range p.states {
			for _, root := range p.sortedRoots(int32(li)) {
				changes++
				it := bcsItem{root, int32(li)}
				p.push(it)
				p.markDirty(it)
			}
		}
	} else {
		for _, li := range pc.Active() {
			for _, m := range pc.Messages(li) {
				if m.Kind != bcBackward {
					continue
				}
				ops++
				if p.applyBack(li, m.Root, m.From, m.Value) {
					changes++
					p.push(bcsItem{m.Root, li})
					p.markDirty(bcsItem{m.Root, li})
				}
			}
		}
	}

	// Local fixpoint: dependency propagation up the recorded predecessor
	// lists (a DAG — predecessors have strictly smaller dist — so this
	// converges even though deltas improve out of level order).
	for head := 0; head < len(p.work); head++ {
		it := p.work[head]
		delete(p.inWork, it)
		st := p.states[it.li][it.root]
		c := (1 + st.delta) / st.sigma
		v := uint32(pc.VertexAt(it.li))
		for _, pr := range st.fwd {
			ops++
			lu := pc.LocalIndex(graph.VertexID(pr.id))
			if lu < 0 {
				continue
			}
			if p.applyBack(lu, it.root, v, c) {
				changes++
				p.push(bcsItem{it.root, lu})
				p.markDirty(bcsItem{it.root, lu})
			}
		}
	}

	// Boundary push: converged dependency values go to remote predecessors.
	for _, it := range p.dirty {
		st := p.states[it.li][it.root]
		c := (1 + st.delta) / st.sigma
		v := uint32(pc.VertexAt(it.li))
		for _, pr := range st.fwd {
			u := graph.VertexID(pr.id)
			if !pc.IsLocal(u) {
				pc.Send(u, BCMsg{Root: it.root, Kind: bcBackward, From: v, Value: c})
			}
		}
	}

	pc.Aggregate("bcs/back", float64(changes))
	pc.AddComputeOps(ops)
	pc.VoteAllToHalt()
}

// finish folds converged dependencies into the centrality scores (roots
// excluded, matching Brandes) and frees all traversal state.
func (p *bcSubgraph) finish(pc *core.PartitionContext[BCMsg]) {
	for li := range p.states {
		for _, root := range p.sortedRoots(int32(li)) {
			if st := p.states[li][root]; st.dist > 0 {
				p.scores[li] += st.delta
			}
		}
		p.states[li] = nil
	}
	p.stateBytes = 0
	pc.VoteAllToHalt()
}

// StateBytes implements core.StateReporter.
func (p *bcSubgraph) StateBytes() int64 {
	return p.stateBytes + int64(8*len(p.scores))
}

// BCSubgraphScores extracts the accumulated centrality scores.
func BCSubgraphScores(res *core.JobResult[BCMsg], n int) []float64 {
	return mergeSubFloat64(res, n, func(prog core.PartitionProgram[BCMsg]) []float64 {
		return prog.(*bcSubgraph).scores
	})
}
