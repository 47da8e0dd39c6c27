package core

import (
	"math"
	"slices"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// TestStageFormsAgree: a combine stage that stays a list and one that turns
// dense after its first few sends yield the same vertices in the same
// (ascending) order, the same folded bits and the same per-vertex counts,
// including a count past the one-byte counter. The values mix magnitudes,
// so any fold out of send order changes the sums.
func TestStageFormsAgree(t *testing.T) {
	const size = 64
	type sendRec struct {
		li int32
		m  float64
	}
	var sends []sendRec
	x := uint32(1)
	for i := range 2000 {
		x = x*1664525 + 1013904223
		li := int32(x>>8) % size
		if i%3 == 0 {
			li = 5 // 600+ sends: the count overflows its byte twice
		}
		m := float64(x>>16) * math.Pow(10, float64(int(x>>4)%20-10))
		sends = append(sends, sendRec{li, m})
	}
	var list, dense stage[float64]
	for _, s := range sends {
		list.add(s.li, s.m, SumCombiner{}, math.MaxInt32) // never reaches 1/denseFrac
		dense.add(s.li, s.m, SumCombiner{}, size)
	}
	if list.val != nil || dense.val == nil {
		t.Fatalf("forms: list dense=%v, dense dense=%v", list.val != nil, dense.val != nil)
	}
	type out struct {
		li   int32
		bits uint64
	}
	collect := func(s *stage[float64]) []out {
		var got []out
		s.combined(SumCombiner{}, true, func(li int32, m float64) { got = append(got, out{li, math.Float64bits(m)}) })
		return got
	}
	var want []out
	sums := map[int32]float64{}
	counts := make([]int64, size)
	for _, s := range sends {
		if _, ok := sums[s.li]; ok {
			sums[s.li] += s.m
		} else {
			sums[s.li] = s.m
		}
		counts[s.li]++
	}
	for li := range int32(size) {
		if m, ok := sums[li]; ok {
			want = append(want, out{li, math.Float64bits(m)})
		}
	}
	if got := collect(&list); !slices.Equal(got, want) {
		t.Fatalf("list form: %v, want %v", got, want)
	}
	if got := collect(&dense); !slices.Equal(got, want) {
		t.Fatalf("dense form: %v, want %v", got, want)
	}
	for _, s := range []*stage[float64]{&list, &dense} {
		traffic := make([]int64, size)
		s.countInto(traffic)
		if !slices.Equal(traffic, counts) {
			t.Fatalf("counts %v, want %v", traffic, counts)
		}
		s.reset()
		if !s.empty() {
			t.Fatal("stage not empty after reset")
		}
	}
	if got := collect(&dense); len(got) != 0 {
		t.Fatalf("dense form after reset: %v", got)
	}
}

// TestArenaPages: the no-combiner inbox lays a superstep's messages out in
// pages without copying them. A vertex with more than a page's worth gets a
// page of its own, every vertex reads its messages in producer order, and
// repeating a superstep's shape reuses the pages it already has.
func TestArenaPages(t *testing.T) {
	spec := JobSpec[float64]{Graph: graph.Ring(8), NumWorkers: 1, Codec: Float64Codec{}, NewProgram: idleProgram[float64]}
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChannelNetwork(1, 64)
	defer net.Close()
	w := testWorker(t, &s, net, 0)
	ctx := w.slotContext(0)
	// send queues counts[li] messages for each li, round robin, and merges.
	send := func(counts []int) {
		for i := range slices.Max(counts) {
			for li, n := range counts {
				if i < n {
					ctx.localRun.add(int32(li), float64(li*100000+i), 16)
				}
			}
		}
		w.deliver()
	}
	step := func(counts []int) {
		t.Helper()
		send(counts)
		for li, n := range counts {
			got := w.in.msgs(int32(li))
			ok := len(got) == n
			for i := 0; ok && i < n; i++ {
				ok = got[i] == float64(li*100000+i)
			}
			if !ok {
				t.Fatalf("vertex %d: %d messages, want %d in send order", li, len(got), n)
			}
		}
	}
	step([]int{3, 0, 4, 0, 0, 0, 0, 3})
	if len(w.in.pages) != 1 || len(w.in.pages[0]) != 10 {
		t.Fatalf("a 10-message superstep laid out %d pages, the first of %d", len(w.in.pages), len(w.in.pages[0]))
	}
	hub := []int{3000, 5000, 10, 0, 2000, 1, 0, 2}
	step(hub)
	if p := w.in.pages[w.in.pg[1]]; len(p) != 2*arenaPageLen {
		t.Fatalf("the 5000-message vertex got a page of %d", len(p))
	}
	before := slices.Clone(w.in.pages)
	// A repeat allocates no more than a one-message merge (nothing, unless
	// the build's invariants allocate their recount).
	base := testing.AllocsPerRun(3, func() { send([]int{1}) })
	if allocs := testing.AllocsPerRun(3, func() { send(hub) }); allocs > base {
		t.Fatalf("repeating a superstep allocated %v times, a one-message merge %v", allocs, base)
	}
	if !slices.EqualFunc(before, w.in.pages, func(a, b []float64) bool { return &a[0] == &b[0] }) {
		t.Fatal("repeating a superstep replaced pages")
	}
	step(hub)
}
