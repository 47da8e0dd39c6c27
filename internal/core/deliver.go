package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
// empties it at the barrier. Messages live in fixed-size chunks that persist
// across supersteps, so a run grows without copying and what it allocates
// tracks its largest superstep, not twice that.
type run[M any] struct {
	chunks []*runChunk[M]
	n      int // messages held
	// bytes is the inbox meter's share: encoded size + msgWireOverhead per
	// message.
	bytes int64
	// epoch is the batch epoch a receive run was filled under. A rollback
	// moves the worker's epoch, and the merge drops a run from any other
	// epoch, so a stale batch the receive loop was still decoding when the
	// restore wiped the inbox can never reach it.
	epoch int32
}

const runChunkLen = 1 << 9

type runChunk[M any] struct {
	lis  [runChunkLen]int32
	msgs [runChunkLen]M
}

func (r *run[M]) add(li int32, m M, size int64) {
	c, i := r.n/runChunkLen, r.n%runChunkLen
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, new(runChunk[M]))
	}
	ch := r.chunks[c]
	ch.lis[i], ch.msgs[i] = li, m
	r.n++
	r.bytes += size
}

// segs is the number of chunks holding messages; seg(c) returns chunk c's.
func (r *run[M]) segs() int { return (r.n + runChunkLen - 1) / runChunkLen }

func (r *run[M]) seg(c int) ([]int32, []M) {
	n := min(r.n-c*runChunkLen, runChunkLen)
	return r.chunks[c].lis[:n], r.chunks[c].msgs[:n]
}

// truncate drops everything appended after the run held n messages and
// bytes bytes, zeroing the dropped messages so they pin no memory.
func (r *run[M]) truncate(n int, bytes int64) {
	for c := n / runChunkLen; c < r.segs(); c++ {
		_, msgs := r.seg(c)
		clear(msgs[max(n-c*runChunkLen, 0):])
	}
	r.n, r.bytes = n, bytes
}

func (r *run[M]) reset() { r.truncate(0, 0) }

// dense is a combine buffer over one worker's local indices: at most one
// message per vertex and how many were folded into it. It lists the
// 8-vertex blocks holding any, in first-fold order, so walking and clearing
// it cost O(touched blocks), never O(owned), for 4 bytes per 8 vertices.
type dense[M any] struct {
	val []M
	// n[li] counts the messages folded into val[li] (0: none) in one byte:
	// each time a count would pass 255, li is appended to over, which stands
	// for 255 of them, and n[li] restarts at 1. A block's eight counts are
	// one little-endian word, zero while the block is empty.
	n      []uint8
	over   []int32
	blocks []int32
}

func newDense[M any](n int) dense[M] {
	n = (n + 7) &^ 7
	return dense[M]{val: make([]M, n), n: make([]uint8, n), blocks: make([]int32, 0, n/8)}
}

func (d *dense[M]) fold(li int32, m M, c Combiner[M]) {
	switch d.n[li] {
	case 0:
		if b := li &^ 7; binary.LittleEndian.Uint64(d.n[b:]) == 0 {
			d.blocks = append(d.blocks, b)
		}
		d.val[li] = m
	case math.MaxUint8:
		d.val[li] = c.Combine(d.val[li], m)
		d.over = append(d.over, li)
		d.n[li] = 1
		return
	default:
		d.val[li] = c.Combine(d.val[li], m)
	}
	d.n[li]++
}

// each calls f for every vertex holding a message: block by block in
// first-fold order (ascending once blocks is sorted), ascending within one.
func (d *dense[M]) each(f func(li int32)) {
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
// without, a CSR arena: vertex li's messages are arena[lo[li]:hi[li]], with
// touched listing the vertices that have any. The merge rebuilds it in place
// at every barrier, once compute has consumed it, so there is one inbox, not
// a current and a next one.
type inbox[M any] struct {
	dense[M]
	arena   []M
	lo, hi  []int32
	touched []int32
	bytes   int64 // Σ encoded size + msgWireOverhead: the memory model's inbox share
}

func newInbox[M any](n int, combined bool) inbox[M] {
	if combined {
		return inbox[M]{dense: newDense[M](n)}
	}
	return inbox[M]{lo: make([]int32, n), hi: make([]int32, n)}
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
	return in.arena[lo:hi:hi]
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
		clear(in.arena)
		in.arena = in.arena[:0]
	}
	in.bytes = 0
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
	for _, r := range runs {
		for c := range r.segs() {
			lis, _ := r.seg(c)
			for _, li := range lis {
				w.vertexTraffic[li]++
			}
		}
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
func (w *worker[M]) install(stages []*stage[M], runs []*run[M]) {
	want := recountDelivery(w, stages, runs)
	in := &w.in
	if w.combiner != nil {
		for _, st := range stages {
			st.combined(w.combiner, false, func(li int32, m M) { in.fold(li, m, w.combiner) })
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
		for _, r := range runs {
			for c := range r.segs() {
				lis, _ := r.seg(c)
				for _, li := range lis {
					if in.hi[li] == 0 {
						in.touched = append(in.touched, li)
					}
					in.hi[li]++
				}
			}
		}
		var n int32
		for _, li := range in.touched {
			count := in.hi[li]
			in.lo[li], in.hi[li] = n, n
			n += count
		}
		in.arena = slices.Grow(in.arena, int(n))[:n]
		for _, r := range runs {
			for c := range r.segs() {
				lis, msgs := r.seg(c)
				for i, li := range lis {
					in.arena[in.hi[li]] = msgs[i]
					in.hi[li]++
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
	err := w.decodeBatch(b)
	w.recvMu.Lock()
	w.recvBytes[int(b.Superstep)] += b.WireSize()
	w.recvMsgs[int(b.Superstep)] += int64(b.Count)
	w.recvMu.Unlock()
	if err != nil {
		w.failRecv(b.Superstep, err)
	}
	w.releaseRecv(b)
}

// failRecv records err as its superstep's receive error, keeping the first.
func (w *worker[M]) failRecv(superstep int32, err error) {
	w.recvMu.Lock()
	if w.recvErr[int(superstep)] == nil {
		w.recvErr[int(superstep)] = err
	}
	w.recvMu.Unlock()
}

// decodeBatch appends a data batch's messages to its sender's run. The bytes
// are untrusted: the sender must be a peer, every record must fit in what is
// left, name a vertex this worker owns and decode to exactly its size, and
// the batch must hold Count records. On any failure — a codec panic
// included, caught once per batch — the run is left as it was.
func (w *worker[M]) decodeBatch(b *transport.Batch) (err error) {
	if b.From < 0 || int(b.From) >= w.numWorkers || int(b.From) == w.id {
		return fmt.Errorf("batch from unknown worker %d", b.From)
	}
	r := &w.recv[b.From]
	if r.epoch != b.Epoch {
		r.reset()
		r.epoch = b.Epoch
	}
	n0, bytes0 := r.n, r.bytes
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("decode panicked: %v", p)
		}
		if err != nil {
			r.truncate(n0, bytes0)
			err = fmt.Errorf("batch %d from worker %d for superstep %d: %w", b.Seq, b.From, b.Superstep, err)
		}
	}()
	data := b.Payload
	for len(data) > 0 {
		if len(data) < msgWireOverhead {
			return fmt.Errorf("%d trailing bytes", len(data))
		}
		to, size := readMsgHeader(data)
		data = data[msgWireOverhead:]
		if size > len(data) {
			return fmt.Errorf("message claims %d bytes, %d remain", size, len(data))
		}
		li, ok := w.local(to)
		if !ok {
			return fmt.Errorf("message for vertex %d, which worker %d does not own", to, w.id)
		}
		m, n := w.codec.Decode(data[:size])
		if n != size {
			return fmt.Errorf("message decoded %d of %d bytes", n, size)
		}
		data = data[size:]
		r.add(li, m, int64(size)+msgWireOverhead)
	}
	if got := r.n - n0; got != int(b.Count) {
		return fmt.Errorf("%d messages, header says %d", got, b.Count)
	}
	return nil
}
