package core

import (
	"math"
	"slices"
	"testing"
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
