// Fixture for the mapiter analyzer: map iteration order is random per
// range statement, so compute paths must not let it reach message sends,
// aggregator updates, or floating-point accumulation.
package mapiter

import (
	"sort"

	"pregelvetstub/core"
)

type vertex struct {
	weights map[core.VertexID]float64
	total   float64
}

// Sends in map order: message order feeds combiners and the replay log.
func (v *vertex) Compute(ctx *core.Context[float64]) {
	for dst, w := range v.weights { // want "message sends"
		ctx.Send(dst, w)
	}
}

// One message to every vertex of a list, lists taken in map order: the
// multicast records' order is the map's.
type ackVertex struct {
	preds map[uint32][]core.VertexID
}

func (v *ackVertex) Compute(ctx *core.Context[float64]) {
	for root, preds := range v.preds { // want "message sends"
		ctx.SendToAll(preds, float64(root))
	}
}

// Aggregator folds in map order.
type aggVertex struct {
	counts map[string]float64
}

func (v *aggVertex) Compute(ctx *core.Context[float64]) {
	for _, c := range v.counts { // want "aggregator updates"
		ctx.Aggregate("total", c)
	}
}

// Floating-point accumulation is not associative: sum order changes bits.
type accumProg struct {
	pending map[int32]float64
	total   float64
}

func (p *accumProg) ComputePartition(pc *core.PartitionContext[float64]) {
	for _, w := range p.pending { // want "floating-point accumulation"
		p.total += w
	}
}

// Combine methods are compute paths too (combiners run on the send path and
// replay with it); the x = x + w selector spelling is the same accumulation.
type sumCombiner struct {
	pending map[int64]float64
	acc     float64
}

func (c *sumCombiner) Combine(m float64) float64 {
	for _, w := range c.pending { // want "floating-point accumulation"
		c.acc = c.acc + w
	}
	return c.acc + m
}

// The sanctioned idiom: collect keys, sort, range the slice. The key
// collection loop does no order-sensitive work, and the send loop is not a
// map range.
func (v *vertex) computeSorted(ctx *core.Context[float64]) {
	keys := make([]core.VertexID, 0, len(v.weights))
	for dst := range v.weights {
		keys = append(keys, dst)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, dst := range keys {
		ctx.Send(dst, v.weights[dst])
	}
}

// Order-insensitive map work passes: integer counting commutes exactly.
func (v *vertex) countEdges() int {
	n := 0
	for range v.weights {
		n++
	}
	return n
}

// A provably commutative float fold can opt out with a reasoned allow.
type maxVertex struct {
	weights map[core.VertexID]float64
	best    float64
}

// Compute folds with max, which is order-insensitive.
//
//pregelvet:allow mapiter max is commutative and exact, order cannot matter
func (v *maxVertex) Compute(ctx *core.Context[float64]) {
	for dst, w := range v.weights {
		if w > v.best {
			v.best = w
		}
		ctx.Send(dst, v.best)
	}
}

// Outside compute paths, map ranges are unconstrained.
func freeFunc(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}
