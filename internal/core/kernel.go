package core

// The combiner branch of the send kernel. Context.send resolves a call's
// destinations into places, then hands them to the worker's fold kernel,
// picked once per job by foldKernel: for SumCombiner a loop with the sum
// inlined, for any other combiner the stage's own add and fold through the
// Combiner interface. foldSum folds each message exactly as dense.fold
// does — the same operands in the same order, val[li] first — so both
// kernels leave the same bits, −0 and NaN included.

// foldFunc stages m for every resolved destination in places.
type foldFunc[M any] func(c *Context[M], places []place, m M)

// foldKernel returns the fold kernel for a job's combiner (nil without one).
func foldKernel[M any](comb Combiner[M]) foldFunc[M] {
	switch any(comb).(type) {
	case nil:
		return nil
	case SumCombiner:
		return any(foldFunc[float64](foldSum)).(foldFunc[M])
	}
	return foldAny[M]
}

// foldAny is the fold kernel for any combiner.
func foldAny[M any](c *Context[M], places []place, m M) {
	pk, owned, comb := c.w.lay.packing, c.w.lay.owned, c.w.combiner
	for _, p := range places {
		dest, li := pk.owner(p), pk.index(p)
		c.stages[dest].add(li, m, comb, len(owned[dest]))
	}
}

// foldSum is foldAny for SumCombiner, with stage.add's dense branch written
// out and the sum inlined.
func foldSum(c *Context[float64], places []place, m float64) {
	pk, owned, comb := c.w.lay.packing, c.w.lay.owned, c.w.combiner
	for _, p := range places {
		dest, li := pk.owner(p), pk.index(p)
		if st := &c.stages[dest]; st.val == nil {
			st.add(li, m, comb, len(owned[dest]))
		} else if st.mark(li) {
			st.val[li] = m
		} else {
			st.val[li] = st.val[li] + m
		}
	}
}
