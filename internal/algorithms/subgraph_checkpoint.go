package algorithms

// Per-vertex state codec of subgraph BC, in the same field encoding as the
// vertex programs (checkpoint.go). Roots serialize in ascending order and
// contribution lists in their id-sorted order, so a restore is
// bit-identical — the property confined recovery and elastic migration rely
// on when they replay supersteps against restored partition-local state.

func appendContribs(dst []byte, list []bcsContrib) []byte {
	dst = appendU64(dst, uint64(len(list)))
	for _, c := range list {
		dst = appendF64(appendU64(dst, uint64(c.id)), c.val)
	}
	return dst
}

func (r *stateReader) contribs() []bcsContrib {
	n := r.count(16)
	if n == 0 {
		return nil
	}
	list := make([]bcsContrib, n)
	for i := range list {
		list[i] = bcsContrib{id: r.u32(), val: r.f64()}
	}
	return list
}

// bcsRootBytes is the smallest encoded bcsState: root, dist, sigma, delta
// and the two contribution counts.
const bcsRootBytes = 6 * 8

// AppendVertex implements core.StateCodec.
func (p *bcSubgraph) AppendVertex(dst []byte, li int32) []byte {
	dst = appendF64(dst, p.scores[li])
	states := p.states[li]
	dst = appendU64(dst, uint64(len(states)))
	for _, root := range p.sortedRoots(li) {
		st := states[root]
		dst = appendI32(appendU64(dst, uint64(root)), st.dist)
		dst = appendF64(appendF64(dst, st.sigma), st.delta)
		dst = appendContribs(appendContribs(dst, st.fwd), st.back)
	}
	return dst
}

// ReadVertex implements core.StateCodec.
func (p *bcSubgraph) ReadVertex(li int32, src []byte) (int, error) {
	r := stateReader{src: src}
	score := r.f64()
	n := r.count(bcsRootBytes)
	var states map[uint32]*bcsState
	if n > 0 {
		states = make(map[uint32]*bcsState, n)
	}
	var added int64
	var prev uint32
	for j := 0; j < n && r.err == nil; j++ {
		root := r.root(j, &prev)
		st := &bcsState{dist: r.i32(), sigma: r.f64(), delta: r.f64(), fwd: r.contribs(), back: r.contribs()}
		states[root] = st
		added += bcsStateBytes(st)
	}
	if r.err != nil {
		return 0, r.err
	}
	for _, st := range p.states[li] {
		added -= bcsStateBytes(st)
	}
	p.scores[li] = score
	p.states[li] = states
	p.stateBytes += added
	return r.n, nil
}

func bcsStateBytes(st *bcsState) int64 {
	return bcsStateBaseBytes + int64(16*(len(st.fwd)+len(st.back)))
}
