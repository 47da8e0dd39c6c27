package algorithms

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pregelnet/internal/core"
)

// Per-vertex state codecs (core.StateCodec) for every built-in vertex
// program: the state section of the engine's one checkpoint/migration
// record. Every field is a little-endian u64 slot (int32 and uint32 values
// widened, float64 values by bit pattern), and per-root states serialize in
// ascending root order, so each state has exactly one encoding. Readers
// accept only that encoding: counts are bounded by the bytes left before
// anything is allocated, 32-bit fields must fit in 32 bits, and roots must
// be strictly ascending.

func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

func appendI32(dst []byte, v int32) []byte { return appendU64(dst, uint64(uint32(v))) }

// stateReader parses one ReadVertex record. The first short or malformed
// field latches err and every later read returns zero, so a parser checks
// err once, before it commits anything.
type stateReader struct {
	src []byte
	n   int // bytes consumed
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *stateReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.src)-r.n < 8 {
		r.fail("state record truncated at byte %d of %d", r.n, len(r.src))
		return 0
	}
	v := binary.LittleEndian.Uint64(r.src[r.n:])
	r.n += 8
	return v
}

func (r *stateReader) f64() float64 { return math.Float64frombits(r.u64()) }

// u32 reads a 32-bit value from its u64 slot.
func (r *stateReader) u32() uint32 {
	v := r.u64()
	if v > math.MaxUint32 {
		r.fail("state field %#x overflows 32 bits", v)
		return 0
	}
	return uint32(v)
}

func (r *stateReader) i32() int32 { return int32(r.u32()) }

// count reads an element count and bounds it by the bytes left, at
// elemSize bytes per element, so no hostile count can size an allocation.
func (r *stateReader) count(elemSize int) int {
	v := r.u64()
	if left := (len(r.src) - r.n) / elemSize; v > uint64(left) {
		r.fail("state count %d exceeds the %d elements the record can hold", v, left)
		return 0
	}
	return int(v)
}

// root reads the j-th root of a per-root state list, which must exceed the
// previous root *prev.
func (r *stateReader) root(j int, prev *uint32) uint32 {
	k := r.u32()
	if j > 0 && k <= *prev {
		r.fail("root %d follows root %d: roots must ascend", k, *prev)
	}
	*prev = k
	return k
}

// sortedRoots returns m's keys in ascending order, in buf's storage.
func sortedRoots[V any](buf []uint32, m map[uint32]V) []uint32 {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// readI32 and readF64 are the whole ReadVertex of the single-field programs.
func readI32(dst *int32, src []byte) (int, error) {
	r := stateReader{src: src}
	if v := r.i32(); r.err == nil {
		*dst = v
	}
	return r.n, r.err
}

func readF64(dst *float64, src []byte) (int, error) {
	r := stateReader{src: src}
	if v := r.f64(); r.err == nil {
		*dst = v
	}
	return r.n, r.err
}

// AppendVertex implements core.StateCodec.
func (p *pageRankProgram) AppendVertex(dst []byte, li int32) []byte {
	return appendF64(dst, p.ranks[li])
}

// ReadVertex implements core.StateCodec.
func (p *pageRankProgram) ReadVertex(li int32, src []byte) (int, error) {
	return readF64(&p.ranks[li], src)
}

// AppendVertex implements core.StateCodec.
func (p *ssspProgram) AppendVertex(dst []byte, li int32) []byte { return appendI32(dst, p.dist[li]) }

// ReadVertex implements core.StateCodec.
func (p *ssspProgram) ReadVertex(li int32, src []byte) (int, error) { return readI32(&p.dist[li], src) }

// AppendVertex implements core.StateCodec.
func (p *wccProgram) AppendVertex(dst []byte, li int32) []byte { return appendI32(dst, p.label[li]) }

// ReadVertex implements core.StateCodec.
func (p *wccProgram) ReadVertex(li int32, src []byte) (int, error) { return readI32(&p.label[li], src) }

// AppendVertex implements core.StateCodec.
func (p *lpaProgram) AppendVertex(dst []byte, li int32) []byte { return appendI32(dst, p.label[li]) }

// ReadVertex implements core.StateCodec.
func (p *lpaProgram) ReadVertex(li int32, src []byte) (int, error) { return readI32(&p.label[li], src) }

// AppendVertex implements core.StateCodec: a root count, then (root,
// distance) pairs.
func (p *apspProgram) AppendVertex(dst []byte, li int32) []byte {
	dists := p.dists[li]
	dst = appendU64(dst, uint64(len(dists)))
	p.roots = sortedRoots(p.roots, dists)
	for _, root := range p.roots {
		dst = appendI32(appendU64(dst, uint64(root)), dists[root])
	}
	return dst
}

// ReadVertex implements core.StateCodec.
func (p *apspProgram) ReadVertex(li int32, src []byte) (int, error) {
	r := stateReader{src: src}
	n := r.count(16)
	var dists map[uint32]int32
	if n > 0 {
		dists = make(map[uint32]int32, n)
	}
	var prev uint32
	for j := 0; j < n && r.err == nil; j++ {
		root := r.root(j, &prev)
		dists[root] = r.i32()
	}
	if r.err != nil {
		return 0, r.err
	}
	p.stateBytes.Add(int64(16 * (n - len(p.dists[li]))))
	p.dists[li] = dists
	return r.n, nil
}

// bcRootBytes is the smallest encoded bcRootState: root, dist, discovered,
// succ, back, sigma, delta and the predecessor count.
const bcRootBytes = 8 * 8

// AppendVertex implements core.StateCodec. BC's per-vertex traversal state
// (distance, sigma, delta, predecessor lists, ack/backward counters) is
// fully serialized so an in-flight multi-root computation can resume.
func (p *bcProgram) AppendVertex(dst []byte, li int32) []byte {
	dst = appendF64(dst, p.scores[li])
	states := p.states[li]
	dst = appendU64(dst, uint64(len(states)))
	for i := range states {
		st := &states[i]
		dst = appendU64(dst, uint64(st.root))
		for _, v := range [...]int32{st.dist, st.discovered, st.succ, st.back} {
			dst = appendI32(dst, v)
		}
		dst = appendF64(appendF64(dst, st.sigma), st.delta)
		dst = appendU64(dst, uint64(len(st.preds)))
		for _, pred := range st.preds {
			dst = appendU64(dst, uint64(pred))
		}
	}
	return dst
}

// ReadVertex implements core.StateCodec.
func (p *bcProgram) ReadVertex(li int32, src []byte) (int, error) {
	r := stateReader{src: src}
	score := r.f64()
	n := r.count(bcRootBytes)
	var states []bcRootState
	if n > 0 {
		states = make([]bcRootState, n)
	}
	var added int64
	var prev uint32
	for j := 0; j < n && r.err == nil; j++ {
		st := &states[j]
		st.root = r.root(j, &prev)
		st.dist, st.discovered, st.succ, st.back = r.i32(), r.i32(), r.i32(), r.i32()
		st.sigma, st.delta = r.f64(), r.f64()
		st.preds = make([]uint32, r.count(8))
		for k := range st.preds {
			st.preds[k] = r.u32()
		}
		added += st.bytes()
	}
	if r.err != nil {
		return 0, r.err
	}
	for i := range p.states[li] {
		added -= p.states[li][i].bytes()
	}
	p.scores[li] = score
	p.states[li] = states
	p.stateBytes.Add(added)
	return r.n, nil
}

// Compile-time checks that every program can be checkpointed and migrated.
var (
	_ core.StateCodec = (*pageRankProgram)(nil)
	_ core.StateCodec = (*ssspProgram)(nil)
	_ core.StateCodec = (*wccProgram)(nil)
	_ core.StateCodec = (*lpaProgram)(nil)
	_ core.StateCodec = (*apspProgram)(nil)
	_ core.StateCodec = (*bcProgram)(nil)
)
