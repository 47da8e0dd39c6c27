// Fixture for the mapiter analyzer's engine scope: in the core package's
// message path — Context.Send, SendToNeighbors and the send kernel (send,
// the span send broadcast, appendRecord, appendBroadcast, stageRecord,
// encodeRemote, the fold kernels and the fold count's mark/markRare), a
// run's span add (addSpan), finishSlot, the barrier merge (deliver,
// install) and the receive-side decode (processBatch, decodeBatch) — a map
// range must not decide the wire order or the order combiners fold in.
package core

import "sort"

type VertexID uint32

type Combiner[M any] interface {
	Combine(a, b M) M
}

type Context[M any] struct {
	w      *worker[M]
	stage  map[VertexID]M
	costs  map[int]float64
	billed float64
}

type worker[M any] struct {
	combiner Combiner[M]
	fold     func(c *Context[M], places []place, m M)
	pending  map[int32]M
	stage    dense[M]
	inbox    []M
	bytes    float64
}

type place uint32

type counts struct{ n []uint8 }

func (c *Context[M]) encodeRemote(dest int, to VertexID, m M) {}

func (c *Context[M]) appendRecord(dest int, to VertexID, body []byte) {}

// The span send walking a hash-keyed set of mirror spans: the wire order
// and each run's order are the map's.
func (c *Context[M]) broadcast(m M, spans map[int][]int32, local *run[M]) {
	for dest, span := range spans { // want "message sends"
		c.appendBroadcast(dest, span, nil)
	}
	for _, span := range spans { // want "message sends"
		local.addSpan(span, m, 8)
	}
}

// A broadcast append metering its records in map order.
func (c *Context[M]) appendBroadcast(dest int, span []int32, body []byte) {
	for _, cost := range c.costs { // want "floating-point accumulation"
		c.billed += cost
	}
}

// A record writer staging per-vertex records in map order.
func (c *Context[M]) stageRecord(dest int, vertex, size uint32, k int64, body []byte) {
	for to := range c.stage { // want "message sends"
		c.appendRecord(dest, to, body)
	}
}

type run[M any] struct {
	spans [][]int32
	sizes map[int32]float64
	bytes float64
}

// A span add metering in map order.
func (r *run[M]) addSpan(span []int32, m M, size int64) {
	for _, s := range r.sizes { // want "floating-point accumulation"
		r.bytes += s
	}
}

// Outside the message path, a run's spans in map order are unconstrained.
func (r *run[M]) spansOf(byVertex map[int32][]int32) {
	for _, span := range byVertex {
		r.spans = append(r.spans, span)
	}
}

// The send kernel walking a hash-keyed destination set: the wire order is
// the map's.
func (c *Context[M]) send(dsts map[VertexID]int, m M, body []byte) {
	for to, dest := range dsts { // want "message sends"
		c.appendRecord(dest, to, body)
	}
}

// A map range feeding the kernel, one destination at a time.
func (c *Context[M]) SendToNeighbors(m M) {
	for to := range c.stage { // want "message sends"
		c.send(map[VertexID]int{to: 0}, m, nil)
	}
}

type dense[M any] struct{ val []M }

func (d *dense[M]) fold(li int32, m M) {}

// Send flushing a hash-keyed combine stage as it goes: the wire order is the
// map's.
func (c *Context[M]) Send(to VertexID, m M) {
	for v, staged := range c.stage { // want "message sends"
		c.encodeRemote(0, v, staged)
	}
}

// A combine map flushed onto the wire in map order.
func (w *worker[M]) finishSlot(c *Context[M]) {
	for to, m := range c.stage { // want "message sends"
		c.encodeRemote(1, to, m)
	}
}

// A merge that folds pending messages in map order.
func (w *worker[M]) install(runs map[int][]M) {
	for _, msgs := range runs { // want "combines"
		for _, m := range msgs {
			w.inbox[0] = w.combiner.Combine(w.inbox[0], m)
		}
	}
}

// The same through the engine's own fold.
func (w *worker[M]) deliver() {
	for li, m := range w.pending { // want "combines"
		w.stage.fold(li, m)
	}
}

// A receive-side decode metering bytes in map order.
func (w *worker[M]) processBatch(sizes map[int32]float64) {
	for _, s := range sizes { // want "floating-point accumulation"
		w.bytes += s
	}
}

// The sanctioned spelling: collect the keys, sort them, fold in that order.
// The key loop does no order-sensitive work.
func (w *worker[M]) decodeBatch() {
	keys := make([]int32, 0, len(w.pending))
	for li := range w.pending {
		keys = append(keys, li)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, li := range keys {
		w.inbox[li] = w.combiner.Combine(w.inbox[li], w.pending[li])
	}
}

// Outside the message path, map ranges are unconstrained.
func (w *worker[M]) drain(c *Context[M]) {
	for to, m := range c.stage {
		c.encodeRemote(2, to, m)
	}
}

// Resolved places fed to the job's fold kernel, through the worker's fold
// field, in map order.
func foldAny[M any](c *Context[M], byDest map[int][]place, m M) {
	for _, places := range byDest { // want "combines"
		c.w.fold(c, places, m)
	}
}

// A concrete fold kernel walking a map: its inlined sum is a float
// accumulation in map order.
func foldSum(c *Context[float64], pending map[int32]float64) {
	for li, m := range pending { // want "floating-point accumulation"
		c.w.inbox[li] += m
	}
}

// A kernel held in a variable.
var foldHeld func(c *Context[float64], places []place, m float64)

func (d *counts) mark(li int32) bool {
	d.n[li]++
	return d.n[li] == 1
}

// Fold counts taken in map order, and a fold kernel, held in a variable or
// the generic one instantiated, called from a map range.
func (d *counts) markRare(c *Context[float64], pending map[int32]bool, byDest map[int][]place) {
	for li := range pending { // want "combines"
		d.mark(li)
	}
	for _, places := range byDest { // want "combines"
		foldHeld(c, places, 1)
	}
	for _, places := range byDest { // want "combines"
		foldAny[float64](c, map[int][]place{0: places}, 1)
	}
}
