// Fixture for the mapiter analyzer's engine scope: in the core package's
// message path — Context.Send, finishSlot, the barrier merge (deliver,
// install) and the receive-side decode (processBatch, decodeBatch) — a map
// range must not decide the wire order or the order combiners fold in.
package core

import "sort"

type VertexID uint32

type Combiner[M any] interface {
	Combine(a, b M) M
}

type Context[M any] struct {
	w     *worker[M]
	stage map[VertexID]M
}

type worker[M any] struct {
	combiner Combiner[M]
	pending  map[int32]M
	inbox    []M
	bytes    float64
}

func (c *Context[M]) encodeRemote(dest int, to VertexID, m M) {}

func (w *worker[M]) fold(li int32, m M) {}

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
		w.fold(li, m)
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
