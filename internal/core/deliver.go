package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"

	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
	"pregelnet/internal/transport"
)

// The message path. Every producer of next-superstep messages writes only to
// buffers it owns, so no lock or shared atomic is taken per message:
//
//   - a compute slot stages its sends in its Context: with a combiner, one
//     combine stage per destination worker (this one included), a list of
//     sends that turns dense once it covers enough of the destination;
//     without, remote sends are encoded straight onto the wire and local
//     sends append to the slot's own run;
//   - the receive loop decodes each sender's in-order batches into that
//     sender's run.
//
// After the sentinel wait, one merge per worker (deliver) rebuilds the inbox
// from them in the canonical order: local slots in slot order, then remote
// senders in worker-id order, each in append order. Combiners fold in that
// same order, so at a fixed assignment and slot split a vertex sees the same
// messages in the same order, and float results are the same bits, whatever
// the transport's arrival order.

// run is one producer's messages for the next superstep, in the order it
// produced them. Exactly one goroutine appends to a run; the merge reads and
// empties it at the barrier. Entries live in fixed-size chunks that persist
// across supersteps, so a run grows without copying and what it allocates
// tracks its largest superstep, not twice that.
//
// An entry is one of:
//   - (li, m), one message for local vertex li;
//   - (^u, m), m for every vertex of the mirror span of the producer's
//     vertex u (its local index on the producing worker): a
//     SendToNeighbors call, staged as one entry by the sending slot's local
//     run or a broadcast record decoded into a receive run. A run holds one
//     producer's messages, so every span entry resolves through the one
//     mirror the run is bound to;
//   - (listEntry, m), m for every vertex of the run's next list: a
//     multicast record decoded into a receive run.
//
// The merge expands a span or a list where it stands, so a run delivers
// exactly what its messages one by one would have.
type run[M any] struct {
	chunks []*runChunk[M]
	n      int // entries held
	msgs   int // messages held: one per plain entry, one per vertex of a span or list
	// lists holds the list entries' local indices in entry order, each list
	// behind its length.
	lists []int32
	// mirror holds the spans of the producer's vertices on this worker;
	// nil for a run that takes no span entries.
	mirror *mirror
	// bytes is the inbox meter's share: encoded size + msgWireOverhead per
	// message.
	bytes int64
	// epoch is the batch epoch a receive run was filled under. A rollback
	// moves the worker's epoch, and the merge drops a run from any other
	// epoch, so a stale batch the receive loop was still decoding when the
	// restore wiped the inbox can never reach it.
	epoch int32
	// pointerFree skips zeroing dropped messages: M holds no pointers, so
	// stale ones pin nothing. The zero value zeroes.
	pointerFree bool
}

const runChunkLen = 1 << 9

// listEntry marks a list entry. No span entry collides with it: layouts
// build mirror spans only for graphs of at most math.MaxInt32 vertices, so
// a span's vertex u is below math.MaxInt32 and ^u above math.MinInt32.
const listEntry = math.MinInt32

type runChunk[M any] struct {
	lis  [runChunkLen]int32
	msgs [runChunkLen]M
}

// add appends one message for li, metering size bytes.
func (r *run[M]) add(li int32, m M, size int64) {
	r.put(li, m)
	r.msgs++
	r.bytes += size
}

// addSpan appends one entry standing for m to every vertex of the producer's
// vertex u's span, metering size bytes per message.
func (r *run[M]) addSpan(u int32, m M, size int64) {
	k := len(r.mirror.span(u))
	r.put(^u, m)
	r.msgs += k
	r.bytes += int64(k) * size
}

// addList appends one entry standing for m to every vertex of the list
// encoded in idx, 4-byte local indices as a multicast record carries them,
// metering size bytes per message.
func (r *run[M]) addList(idx []byte, m M, size int64) {
	k := len(idx) / listIndexLen
	r.lists = append(r.lists, int32(k))
	for i := 0; i < len(idx); i += listIndexLen {
		r.lists = append(r.lists, int32(binary.LittleEndian.Uint32(idx[i:])))
	}
	r.put(listEntry, m)
	r.msgs += k
	r.bytes += int64(k) * size
}

// list returns the list at offset at of r.lists and the offset of the next.
func (r *run[M]) list(at int) ([]int32, int) {
	k := int(r.lists[at])
	return r.lists[at+1 : at+1+k], at + 1 + k
}

// expand returns the vertices span or list entry li stands for, given the
// offset at of the run's next list, and the offset of the list after.
func (r *run[M]) expand(li int32, at int) ([]int32, int) {
	if li == listEntry {
		return r.list(at)
	}
	return r.mirror.span(^li), at
}

func (r *run[M]) put(li int32, m M) {
	c, i := r.n/runChunkLen, r.n%runChunkLen
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, new(runChunk[M]))
	}
	ch := r.chunks[c]
	ch.lis[i], ch.msgs[i] = li, m
	r.n++
}

// segs is the number of chunks holding entries; seg(c) returns chunk c's.
func (r *run[M]) segs() int { return (r.n + runChunkLen - 1) / runChunkLen }

func (r *run[M]) seg(c int) ([]int32, []M) {
	n := min(r.n-c*runChunkLen, runChunkLen)
	return r.chunks[c].lis[:n], r.chunks[c].msgs[:n]
}

// runPos is how much a run holds: what truncate restores.
type runPos struct {
	n, msgs, lists int
	bytes          int64
}

func (r *run[M]) pos() runPos { return runPos{r.n, r.msgs, len(r.lists), r.bytes} }

// truncate drops everything appended since the run was at p, zeroing the
// dropped messages (unless pointerFree) so they pin no memory.
func (r *run[M]) truncate(p runPos) {
	for c := p.n / runChunkLen; c < r.segs() && !r.pointerFree; c++ {
		_, msgs := r.seg(c)
		clear(msgs[max(p.n-c*runChunkLen, 0):])
	}
	r.n, r.msgs, r.lists, r.bytes = p.n, p.msgs, r.lists[:p.lists], p.bytes
}

func (r *run[M]) reset() { r.truncate(runPos{}) }

// countInto adds one to counts[li] for every message the run holds for li.
func (r *run[M]) countInto(counts []int64) {
	at := 0
	for c := range r.segs() {
		lis, _ := r.seg(c)
		for _, li := range lis {
			if li >= 0 {
				counts[li]++
				continue
			}
			var xs []int32
			xs, at = r.expand(li, at)
			for _, x := range xs {
				counts[x]++
			}
		}
	}
}

// hasPointers reports whether values of type t hold pointers the garbage
// collector traces, so stale copies of them must be zeroed to pin nothing.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// dense is a combine buffer over one worker's local indices: at most one
// message per vertex and how many were folded into it. It lists the
// 8-vertex blocks holding any, in first-fold order, so walking and clearing
// it cost O(touched blocks), never O(owned), for 4 bytes per 8 vertices.
type dense[M any] struct {
	val []M
	counts
}

// counts is a dense buffer's bookkeeping. It does not depend on M, so its
// mark is plain code that every fold loop inlines. n[li] counts the
// messages folded into val[li] (0: none) in one byte: each time a count
// would pass 255, li is appended to over, which stands for 255 of them, and
// n[li] restarts at 1. A block's eight counts are one little-endian word,
// zero while the block is empty.
type counts struct {
	n      []uint8
	over   []int32
	blocks []int32
}

func newDense[M any](n int) dense[M] {
	n = (n + 7) &^ 7
	return dense[M]{val: make([]M, n), counts: counts{n: make([]uint8, n), blocks: make([]int32, 0, n/8)}}
}

func (d *dense[M]) fold(li int32, m M, c Combiner[M]) {
	if d.mark(li) {
		d.val[li] = m
	} else {
		d.val[li] = c.Combine(d.val[li], m)
	}
}

// mark counts one more message for li and reports whether it is li's first,
// which the caller stores; any later one it folds into val[li]. Every fold
// loop shares it, so they differ only in that one operation.
func (d *counts) mark(li int32) (first bool) {
	if n := d.n[li]; n-1 < math.MaxUint8-1 { // 1..254: the common case, inlined
		d.n[li] = n + 1
		return false
	}
	return d.markRare(li)
}

// markRare is mark for a count of 0 (li's block may be new) or 255 (li
// joins over and its count restarts).
func (d *counts) markRare(li int32) (first bool) {
	if first = d.n[li] == 0; !first {
		d.over = append(d.over, li)
	} else if b := li &^ 7; binary.LittleEndian.Uint64(d.n[b:]) == 0 {
		d.blocks = append(d.blocks, b)
	}
	d.n[li] = 1
	return first
}

// each calls f for every vertex holding a message: block by block in
// first-fold order (ascending once blocks is sorted), ascending within one.
func (d *counts) each(f func(li int32)) {
	for _, b := range d.blocks {
		for li := b; li < b+8; li++ {
			if d.n[li] != 0 {
				f(li)
			}
		}
	}
}

func (d *dense[M]) reset() {
	for _, b := range d.blocks {
		clear(d.val[b : b+8]) // no stale references survive
		clear(d.n[b : b+8])
	}
	d.blocks, d.over = d.blocks[:0], d.over[:0]
}

// stage is a compute slot's combine buffer for one destination worker (this
// one included). It starts as a list of the slot's sends and turns into a
// dense buffer over the destination's local indices once one superstep's
// sends reach 1/denseFrac of them, staying dense from then on. So its memory
// follows what the slot sends: a sparse frontier never pays for a
// partition-sized buffer, and a slot that reaches most of a partition does
// not keep one entry per send.
type stage[M any] struct {
	list     []sent[M]
	keys     []uint64 // sort scratch for the list
	dense[M]          // val == nil while the stage is a list
}

type sent[M any] struct {
	li int32
	m  M
}

const denseFrac = 8

// add stages m for local index li of a destination with size vertices.
func (s *stage[M]) add(li int32, m M, c Combiner[M], size int) {
	if s.val != nil {
		s.fold(li, m, c)
		return
	}
	if s.list == nil {
		s.list = make([]sent[M], 0, min(size/denseFrac+1, 256))
	}
	s.list = append(s.list, sent[M]{li, m})
	if len(s.list)*denseFrac < size {
		return
	}
	s.dense = newDense[M](size)
	for _, e := range s.list {
		s.fold(e.li, e.m, c)
	}
	s.list, s.keys = nil, nil
}

func (s *stage[M]) empty() bool { return len(s.list) == 0 && len(s.blocks) == 0 }

// combined calls emit once per vertex staged this superstep with its
// messages folded in send order, so both forms give the same values. A list
// emits in ascending local index; a dense stage in first-send block order,
// or ascending when sorted is set.
func (s *stage[M]) combined(c Combiner[M], sorted bool, emit func(li int32, m M)) {
	if s.val != nil {
		if sorted {
			slices.Sort(s.blocks)
		}
		s.each(func(li int32) { emit(li, s.val[li]) })
		return
	}
	keys := slices.Grow(s.keys[:0], len(s.list))
	for i, e := range s.list {
		keys = append(keys, uint64(e.li)<<32|uint64(i))
	}
	slices.Sort(keys)
	for i := 0; i < len(keys); {
		li, m := int32(keys[i]>>32), s.list[uint32(keys[i])].m
		j := i + 1
		for ; j < len(keys) && int32(keys[j]>>32) == li; j++ {
			m = c.Combine(m, s.list[uint32(keys[j])].m)
		}
		emit(li, m)
		i = j
	}
	s.keys = keys
}

// countInto adds the number of messages staged for each vertex to traffic.
func (s *stage[M]) countInto(traffic []int64) {
	for _, e := range s.list {
		traffic[e.li]++
	}
	s.each(func(li int32) { traffic[li] += int64(s.n[li]) })
	for _, li := range s.over {
		traffic[li] += math.MaxUint8
	}
}

func (s *stage[M]) reset() {
	if s.val != nil {
		s.dense.reset()
		return
	}
	clear(s.list)
	s.list = s.list[:0]
}

// inbox holds the messages each owned vertex reads in the current superstep.
// With a combiner it is a dense buffer (at most one message per vertex);
// without, a CSR arena in pages: vertex li's messages are
// pages[pg[li]][lo[li]:hi[li]], with touched listing the vertices that have
// any. The merge rebuilds it in place at every barrier, once compute has
// consumed it, so there is one inbox, not a current and a next one.
//
// Pages persist across supersteps and are never copied: a superstep with
// more messages than any before adds pages, so the arena allocates its
// largest superstep's messages once (plus the unused tails of pages), not
// every size it passed on the way there.
type inbox[M any] struct {
	dense[M]
	pages      [][]M
	used       int // pages holding messages
	pg, lo, hi []int32
	touched    []int32
	bytes      int64 // Σ encoded size + msgWireOverhead: the memory model's inbox share
	// pointerFree skips zeroing the arena on reset (see run.pointerFree).
	pointerFree bool
}

// arenaPageLen is the messages an arena page holds, unless the whole
// superstep has fewer (then one page holds them all) or one vertex has more
// (then its page is as large as it needs, rounded up to whole pages).
const arenaPageLen = 1 << 12

func newInbox[M any](n int, combined, pointerFree bool) inbox[M] {
	if combined {
		return inbox[M]{dense: newDense[M](n)}
	}
	return inbox[M]{pg: make([]int32, n), lo: make([]int32, n), hi: make([]int32, n), pointerFree: pointerFree}
}

// each calls f for every vertex holding messages.
func (in *inbox[M]) each(f func(li int32)) {
	if in.n != nil {
		in.dense.each(f)
		return
	}
	for _, li := range in.touched {
		f(li)
	}
}

// msgs returns li's messages (nil when none). The slice aliases the inbox
// and is valid until the next merge.
func (in *inbox[M]) msgs(li int32) []M {
	if in.n != nil {
		if in.n[li] != 0 {
			return in.val[li : li+1 : li+1]
		}
		return nil
	}
	lo, hi := in.lo[li], in.hi[li]
	if lo == hi {
		return nil
	}
	return in.pages[in.pg[li]][lo:hi:hi]
}

func (in *inbox[M]) pending(li int32) bool {
	if in.n != nil {
		return in.n[li] != 0
	}
	return in.hi[li] > in.lo[li]
}

func (in *inbox[M]) reset() {
	if in.n != nil {
		in.dense.reset()
	} else {
		for _, li := range in.touched {
			in.lo[li], in.hi[li] = 0, 0
		}
		in.touched = in.touched[:0]
		for p := 0; p < in.used && !in.pointerFree; p++ {
			clear(in.pages[p])
		}
		in.used = 0
	}
	in.bytes = 0
}

// count counts one more message for li, listing li as touched at its first.
func (in *inbox[M]) count(li int32) {
	if in.hi[li] == 0 {
		in.touched = append(in.touched, li)
	}
	in.hi[li]++
}

// layout assigns each touched vertex its extent, given its message count in
// hi[li] and total messages in all: vertices fill pages in touched order, a
// vertex that does not fit in what is left of a page starting the next one.
// On return lo[li] = hi[li] is li's first slot.
func (in *inbox[M]) layout(total int) {
	size := min(total, arenaPageLen)
	p, off := -1, 0
	for _, li := range in.touched {
		n := int(in.hi[li])
		if p < 0 || off+n > len(in.pages[p]) {
			p, off = p+1, 0
			in.page(p, max(n, size))
		}
		in.pg[li], in.lo[li], in.hi[li] = int32(p), int32(off), int32(off)
		off += n
	}
	in.used = p + 1
}

// page makes page p hold at least want messages: the page already there, a
// later spare page swapped in, or a new one, in that order of preference.
// A page too small for want stays on as a spare.
func (in *inbox[M]) page(p, want int) {
	if p == len(in.pages) {
		in.pages = append(in.pages, nil)
	}
	if len(in.pages[p]) >= want {
		return
	}
	for q := p + 1; q < len(in.pages); q++ {
		if len(in.pages[q]) >= want {
			in.pages[p], in.pages[q] = in.pages[q], in.pages[p]
			return
		}
	}
	if in.pages[p] != nil {
		in.pages = append(in.pages, in.pages[p])
	}
	if want > arenaPageLen {
		want = (want + arenaPageLen - 1) &^ (arenaPageLen - 1)
	}
	in.pages[p] = make([]M, want)
}

// deliver is the barrier merge: once every peer's sentinel is in, it turns
// this superstep's staged output and receive runs into the next superstep's
// inbox, sets the wake bit of every vertex that got a message and counts
// vertexTraffic, in O(messages + touched vertices).
func (w *worker[M]) deliver() {
	span := w.tracer.Start(observe.KindDeliver, w.id, w.superstep)
	stages, runs := w.stageBuf[:0], w.runBuf[:0]
	for _, c := range w.slots {
		if w.combiner == nil {
			runs = append(runs, &c.localRun)
			continue
		}
		st := &c.stages[w.id]
		st.countInto(w.vertexTraffic)
		stages = append(stages, st)
	}
	epoch := w.epoch.Load()
	for from := range w.recv {
		if r := &w.recv[from]; r.epoch == epoch {
			runs = append(runs, r)
		} else {
			r.reset()
		}
	}
	w.in.reset()
	w.install(stages, runs)
	for _, st := range stages {
		st.reset()
	}
	if w.combiner != nil {
		for _, r := range runs {
			r.countInto(w.vertexTraffic)
		}
	} else {
		// An arena extent holds exactly li's messages, spans expanded: the
		// counts need no third pass over the runs.
		for _, li := range w.in.touched {
			w.vertexTraffic[li] += int64(w.in.hi[li] - w.in.lo[li])
		}
	}
	for _, r := range runs {
		r.reset()
	}
	vertices := 0
	w.in.each(func(li int32) {
		w.wakeNext.set(li)
		vertices++
	})
	clear(stages)
	clear(runs)
	w.stageBuf, w.runBuf = stages[:0], runs[:0]
	if span.Active() {
		span.End(observe.Int("vertices", int64(vertices)), observe.Int("bytes", w.in.bytes))
	}
}

// installState installs the messages readState staged in stateRun into the
// (empty) inbox.
func (w *worker[M]) installState() {
	w.install(nil, []*run[M]{&w.stateRun})
	w.stateRun.reset()
}

// install builds the (empty) inbox from combine stages and then runs, each
// in the given order: folded under a combiner, counting-sorted into the
// arena otherwise. Both are stable, so a vertex's messages keep the
// producers' order.
//
// The first non-empty stage, if it is a list, goes in without the key sort
// that pre-combining costs: folded into the empty inbox in send order, each
// vertex gets exactly the value combined would have emitted. Dense stages
// (combined walks their blocks, unsorted) and later stages, which exist
// only with several compute slots, go through combined, so each folds into
// the inbox as one message per vertex.
func (w *worker[M]) install(stages []*stage[M], runs []*run[M]) {
	want := recountDelivery(w, stages, runs)
	in := &w.in
	if w.combiner != nil {
		first := true
		for _, st := range stages {
			if st.empty() {
				continue
			}
			if first && st.val == nil {
				for _, e := range st.list {
					in.fold(e.li, e.m, w.combiner)
				}
			} else {
				st.combined(w.combiner, false, func(li int32, m M) { in.fold(li, m, w.combiner) })
			}
			first = false
		}
		for _, r := range runs {
			for c := range r.segs() {
				lis, msgs := r.seg(c)
				for i, li := range lis {
					in.fold(li, msgs[i], w.combiner)
				}
			}
		}
		in.dense.each(func(li int32) { in.bytes += int64(w.codec.Size(in.val[li])) + msgWireOverhead })
	} else {
		total := 0
		for _, r := range runs {
			at := 0
			for c := range r.segs() {
				lis, _ := r.seg(c)
				for _, li := range lis {
					if li >= 0 {
						in.count(li)
						continue
					}
					var xs []int32
					xs, at = r.expand(li, at)
					for _, x := range xs {
						in.count(x)
					}
				}
			}
			total += r.msgs
		}
		in.layout(total)
		for _, r := range runs {
			at := 0
			for c := range r.segs() {
				lis, msgs := r.seg(c)
				for i, li := range lis {
					if li >= 0 {
						in.pages[in.pg[li]][in.hi[li]] = msgs[i]
						in.hi[li]++
						continue
					}
					var xs []int32
					xs, at = r.expand(li, at)
					m := msgs[i]
					for _, x := range xs {
						in.pages[in.pg[x]][in.hi[x]] = m
						in.hi[x]++
					}
				}
			}
			in.bytes += r.bytes
		}
	}
	checkDelivery(w, want)
}

// processBatch consumes one in-order batch: sentinels bump the barrier
// count, data batches are decoded into their sender's run, and the batch's
// pooled payload and struct are recycled. A malformed batch is recorded as
// its superstep's receive error, which fails that superstep's check-in.
func (w *worker[M]) processBatch(b *transport.Batch) {
	if b.Count < 0 { // sentinel
		w.recvInv.noteSentinel(b)
		w.sentinelMu.Lock()
		w.sentinels[int(b.Superstep)]++
		w.sentinelCond.Broadcast()
		w.sentinelMu.Unlock()
		transport.PutBatch(b)
		return
	}
	logical, err := w.decodeBatch(b)
	if err != nil {
		logical = b.WireSize()
	}
	w.recvMu.Lock()
	w.recvBytes[int(b.Superstep)] += logical
	w.recvMsgs[int(b.Superstep)] += int64(b.Count)
	w.recvMu.Unlock()
	if err != nil {
		w.failRecv(b.Superstep, err)
	}
	releaseBatch(b)
}

// failRecv records err as its superstep's receive error, keeping the first.
func (w *worker[M]) failRecv(superstep int32, err error) {
	w.recvMu.Lock()
	if w.recvErr[int(superstep)] == nil {
		w.recvErr[int(superstep)] = err
	}
	w.recvMu.Unlock()
}

// decodeBatch appends a data batch's messages to its sender's run and
// returns the batch's logical size, what the cost model bills for it. The
// bytes are untrusted: the sender must be a peer and the payload must lead
// with a logical size; every record must fit in what is left, carry at
// most one kind flag and decode to exactly its size; a plain record must
// name a vertex this worker owns, a broadcast record a vertex the sender
// owns with a mirror span here, and a multicast record, in a job without a
// combiner, a list of at least one vertex this worker owns; the batch must
// carry Count messages, and its logical size must be their per-message
// records plus at most one batch header per message. On any failure — a
// codec panic included, caught once per batch — the run is left as it was.
func (w *worker[M]) decodeBatch(b *transport.Batch) (logical int64, err error) {
	if b.From < 0 || int(b.From) >= w.numWorkers || int(b.From) == w.id {
		return 0, fmt.Errorf("batch from unknown worker %d", b.From)
	}
	r := &w.recv[b.From]
	if r.epoch != b.Epoch {
		r.reset()
		r.epoch = b.Epoch
	}
	at := r.pos()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("decode panicked: %v", p)
		}
		if err != nil {
			r.truncate(at)
			err = fmt.Errorf("batch %d from worker %d for superstep %d: %w", b.Seq, b.From, b.Superstep, err)
		}
	}()
	data := b.Payload
	if len(data) < logicalSizeLen {
		return 0, fmt.Errorf("%d-byte payload has no logical size", len(data))
	}
	logical = logicalSize(data)
	data = data[logicalSizeLen:]
	var perMsg int64 // the records' bytes as one plain record per message
	for len(data) > 0 {
		if len(data) < msgWireOverhead {
			return 0, fmt.Errorf("%d trailing bytes", len(data))
		}
		v, size := readMsgHeader(data)
		data = data[msgWireOverhead:]
		kind := size & recordFlags
		size &^= recordFlags
		if kind == recordFlags {
			return 0, fmt.Errorf("record flagged both broadcast and multicast")
		}
		if size > len(data) {
			return 0, fmt.Errorf("message claims %d bytes, %d remain", size, len(data))
		}
		var (
			li int32
			ok bool
		)
		switch kind {
		case broadcastFlag:
			if li, err = w.mirrorSource(b.From, v); err != nil {
				return 0, err
			}
		case multicastFlag:
			if err = w.checkList(v, size, data); err != nil {
				return 0, err
			}
		default:
			if li, ok = w.local(v); !ok {
				return 0, fmt.Errorf("message for vertex %d, which worker %d does not own", v, w.id)
			}
		}
		m, n := w.codec.Decode(data[:size])
		if n != size {
			return 0, fmt.Errorf("message decoded %d of %d bytes", n, size)
		}
		data = data[size:]
		rec := int64(size) + msgWireOverhead
		switch kind {
		case broadcastFlag:
			r.addSpan(li, m, rec)
			perMsg += int64(len(r.mirror.span(li))) * rec
		case multicastFlag:
			k := int64(v)
			r.addList(data[:listIndexLen*k], m, rec)
			data = data[listIndexLen*k:]
			perMsg += k * rec
		default:
			r.add(li, m, rec)
			perMsg += rec
		}
	}
	got := r.msgs - at.msgs
	if got != int(b.Count) {
		return 0, fmt.Errorf("%d messages, header says %d", got, b.Count)
	}
	if hdrs := logical - perMsg; hdrs < 0 || hdrs%transport.BatchHeaderSize != 0 || hdrs/transport.BatchHeaderSize > int64(got) {
		return 0, fmt.Errorf("logical size %d is not %d bytes of records plus at most %d batch headers", logical, perMsg, got)
	}
	return logical, nil
}

// checkList checks a multicast record's list of k vertices, which follows
// the record's size-byte body at the head of data: it must list at least
// one vertex, fit in data, and name only local indices of this worker, in a
// job without a combiner, whose merge expands lists.
func (w *worker[M]) checkList(k graph.VertexID, size int, data []byte) error {
	if w.combiner != nil {
		return fmt.Errorf("multicast record, but this job combines its messages")
	}
	if k == 0 {
		return fmt.Errorf("multicast record lists no vertices")
	}
	if rest := len(data) - size; int64(k)*listIndexLen > int64(rest) {
		return fmt.Errorf("multicast record lists %d vertices, %d bytes remain", k, rest)
	}
	idx := data[size : size+listIndexLen*int(k)]
	for i := 0; i < len(idx); i += listIndexLen {
		if li := binary.LittleEndian.Uint32(idx[i:]); li >= uint32(len(w.owned)) {
			return fmt.Errorf("multicast record lists local index %d, worker %d owns %d vertices", li, w.id, len(w.owned))
		}
	}
	return nil
}

// mirrorSource returns the sender-local index of v, the vertex a broadcast
// record from worker from names: v must be from's, with neighbours here.
func (w *worker[M]) mirrorSource(from int32, v graph.VertexID) (int32, error) {
	if w.lay.mirrors == nil {
		return 0, fmt.Errorf("broadcast from vertex %d, but this job has no mirror spans", v)
	}
	if int(v) >= len(w.lay.place) || w.lay.owner(w.lay.place[v]) != from {
		return 0, fmt.Errorf("broadcast from vertex %d, which worker %d does not own", v, from)
	}
	li := w.lay.index(w.lay.place[v])
	if len(w.lay.span(w.id, int(from), li)) == 0 {
		return 0, fmt.Errorf("broadcast from vertex %d, which has no neighbour on worker %d", v, w.id)
	}
	return li, nil
}
