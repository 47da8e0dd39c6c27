//go:build pregel_invariants

package core

import (
	"fmt"

	"pregelnet/internal/transport"
)

// Runtime receive-path invariants, compiled in with -tags pregel_invariants.
// They assert the two properties the ordered-stream machinery exists to
// provide, so a regression (or a faulty transport) fails loudly at the
// receive site instead of corrupting a superstep barrier:
//
//   - exactly-once sentinels: a sender's barrier sentinel for a given
//     (epoch, superstep) is processed at most once — a duplicate means dedup
//     let a retried frame through, which would release a barrier early;
//   - stream monotonicity: after processing seq N, nothing ≤ N may still be
//     held pending — a violation means a frame would be processed twice or
//     dropped.
//
// State is touched only by the worker's single receive goroutine, so there
// is no locking. Unsequenced sentinels (Seq 0, raw transport users) are
// outside the ordering contract and are not tracked.

type sentinelKey struct {
	from  int32
	step  int32
	epoch int32
}

type recvInvariants struct {
	seen map[sentinelKey]struct{}
}

func (inv *recvInvariants) noteSentinel(b *transport.Batch) {
	if b.Seq == 0 {
		return
	}
	k := sentinelKey{from: b.From, step: b.Superstep, epoch: b.Epoch}
	if inv.seen == nil {
		inv.seen = make(map[sentinelKey]struct{})
	}
	if _, dup := inv.seen[k]; dup {
		panic(fmt.Sprintf("core: duplicate sentinel from worker %d for superstep %d (epoch %d): a retried frame slipped past stream dedup and would release a barrier early",
			b.From, b.Superstep, b.Epoch))
	}
	inv.seen[k] = struct{}{}
}

func (inv *recvInvariants) checkStream(from, next int32, pending map[int32]*transport.Batch) {
	for seq := range pending {
		if seq <= next {
			panic(fmt.Sprintf("core: receive stream from worker %d holds pending seq %d with next=%d: the gap-fill drain went backwards",
				from, seq, next))
		}
	}
}

// Frontier invariants: the wake-set active list and activeAfter equal what a
// dense pass over the whole partition computes. Each check is that dense
// pass, so it runs on the worker goroutine at the points the engine reads
// the frontier, when nothing else writes halted flags or current inboxes.

// checkFrontier panics unless active is exactly the dense scan's list.
func checkFrontier[M any](w *worker[M], active []int32) {
	j := 0
	for i := range w.owned {
		li := int32(i)
		want := w.in.pending(li) || !w.halted[li] || w.injectedThisStep(li)
		got := j < len(active) && active[j] == li
		if want != got {
			panic(fmt.Sprintf("core: frontier invariant: worker %d superstep %d: vertex %d (local %d) active=%v in the dense scan, %v in the wake-set list",
				w.id, w.superstep, w.owned[li], li, want, got))
		}
		if got {
			j++
		}
	}
	if j != len(active) {
		panic(fmt.Sprintf("core: frontier invariant: worker %d superstep %d: wake-set list has %d entries, dense scan %d",
			w.id, w.superstep, len(active), j))
	}
}

func (s wakeSet) has(li int32) bool { return s.words[li>>6].Load()&(1<<uint(li&63)) != 0 }

// checkActiveAfter panics unless n is the dense count of !halted vertices,
// naming the first running vertex whose wake bit is missing.
func checkActiveAfter[M any](w *worker[M], n int64) {
	var dense int64
	for i, h := range w.halted {
		if h {
			continue
		}
		if !w.wakeCur.has(int32(i)) {
			panic(fmt.Sprintf("core: frontier invariant: worker %d superstep %d: vertex %d (local %d) is not halted but was never woken",
				w.id, w.superstep, w.owned[i], i))
		}
		dense++
	}
	if dense != n {
		panic(fmt.Sprintf("core: frontier invariant: worker %d superstep %d: activeAfter %d, dense count %d",
			w.id, w.superstep, n, dense))
	}
}

// Delivery invariants: the merge installs exactly what its producers staged.
// recountDelivery counts, before the merge, how many messages each owned
// vertex is owed — every run entry, a span or list entry once per vertex of
// its span or list, and every staged combine slot — and panics on a local
// index the worker does not own, a span entry naming a vertex its producer
// lacks or a list entry without a list; checkDelivery then
// compares every vertex's installed messages with that count (at most one,
// and one exactly when owed any, under a combiner) and checks that the
// arena extents are disjoint. A vertex holding messages nobody sent it — an
// extent or flag the previous merge failed to clear — or missing some fails
// here, not as a wrong result supersteps later.

func recountDelivery[M any](w *worker[M], stages []*stage[M], runs []*run[M]) []int32 {
	want := make([]int32, len(w.owned))
	owe := func(li int32, what string) {
		if li < 0 || int(li) >= len(want) {
			panic(fmt.Sprintf("core: delivery invariant: worker %d superstep %d: %s names local index %d of %d",
				w.id, w.superstep, what, li, len(want)))
		}
		want[li]++
	}
	for _, st := range stages {
		for _, e := range st.list {
			owe(e.li, "a combine stage")
		}
		st.dense.each(func(li int32) { owe(li, "a combine stage") })
	}
	for _, r := range runs {
		at := 0
		for c := range r.segs() {
			lis, _ := r.seg(c)
			for _, li := range lis {
				if li >= 0 {
					owe(li, "a run")
					continue
				}
				if li == listEntry {
					if at >= len(r.lists) || at+1+int(r.lists[at]) > len(r.lists) {
						panic(fmt.Sprintf("core: delivery invariant: worker %d superstep %d: a run's list entry has no list",
							w.id, w.superstep))
					}
					var xs []int32
					xs, at = r.list(at)
					for _, x := range xs {
						owe(x, "a run's list")
					}
					continue
				}
				if r.mirror == nil || int(^li) >= len(r.mirror.off)-1 {
					panic(fmt.Sprintf("core: delivery invariant: worker %d superstep %d: a run entry names the span of vertex %d, which its producer does not have",
						w.id, w.superstep, ^li))
				}
				for _, x := range r.mirror.span(^li) {
					owe(x, "a run's span")
				}
			}
		}
	}
	return want
}

func checkDelivery[M any](w *worker[M], want []int32) {
	var total, installed int
	for i, n := range want {
		got := len(w.in.msgs(int32(i)))
		exp := int(n)
		if w.combiner != nil {
			exp = min(exp, 1)
		}
		if got != exp {
			panic(fmt.Sprintf("core: delivery invariant: worker %d superstep %d: vertex %d (local %d) holds %d messages, its producers sent %d",
				w.id, w.superstep, w.owned[i], i, got, n))
		}
		total += exp
		installed += got
	}
	if w.combiner == nil {
		// Extents follow touched order through the pages, inside their page
		// and without overlapping.
		pg, end := int32(-1), int32(0)
		for _, li := range w.in.touched {
			p, lo, hi := w.in.pg[li], w.in.lo[li], w.in.hi[li]
			if p < pg || p == pg && lo < end || p >= int32(w.in.used) || int(hi) > len(w.in.pages[p]) {
				panic(fmt.Sprintf("core: delivery invariant: worker %d superstep %d: local %d's extent [%d:%d] of page %d overlaps or leaves the arena",
					w.id, w.superstep, li, lo, hi, p))
			}
			pg, end = p, hi
		}
	}
	touched := 0
	w.in.each(func(int32) { touched++ })
	if touched > installed {
		panic(fmt.Sprintf("core: delivery invariant: worker %d superstep %d: %d vertices touched, %d messages installed",
			w.id, w.superstep, touched, installed))
	}
}
