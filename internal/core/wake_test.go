package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// wakeSizes straddle the word (64) and summary-word (4096) boundaries.
var wakeSizes = []int{1, 63, 64, 65, 4095, 4096, 4097, 262144}

// wakeBits returns the indices a pass over s visits, requiring ascending
// order.
func wakeBits(t *testing.T, s wakeSet) []int32 {
	t.Helper()
	var got []int32
	s.eachWord(func(wi int, x uint64) { got = appendBits(got, wi, x) })
	if !slices.IsSorted(got) {
		t.Fatalf("eachWord is not ascending: %v", got)
	}
	return got
}

// drainBits drains s and returns the indices it handed over.
func drainBits(s wakeSet) []int32 {
	var got []int32
	s.drain(func(wi int, x uint64) { got = appendBits(got, wi, x) })
	return got
}

func appendBits(dst []int32, wi int, x uint64) []int32 {
	for ; x != 0; x &= x - 1 {
		dst = append(dst, int32(wi<<6+bits.TrailingZeros64(x)))
	}
	return dst
}

// edgeIndices returns the indices of n vertices at word and summary-word
// edges, plus a few hundred seeded ones, ascending and deduplicated.
func edgeIndices(n int) []int32 {
	var lis []int32
	for _, li := range []int{0, 1, 62, 63, 64, 65, 127, 4031, 4095, 4096, 4097, 8191, n - 2, n - 1} {
		if li >= 0 && li < n {
			lis = append(lis, int32(li))
		}
	}
	rng := rand.New(rand.NewSource(int64(n)))
	for range min(n, 300) {
		lis = append(lis, int32(rng.Intn(n)))
	}
	slices.Sort(lis)
	return slices.Compact(lis)
}

// TestWakeSet: set, eachWord, fill and drain (the frontier's consume) agree
// with the plain set of indices at sizes around the word and summary
// boundaries, and drain leaves the set empty.
func TestWakeSet(t *testing.T) {
	for _, n := range wakeSizes {
		s := newWakeSet(n)
		if got := wakeBits(t, s); len(got) != 0 {
			t.Fatalf("n=%d: a new set holds %v", n, got)
		}
		want := edgeIndices(n)
		for _, li := range want {
			s.set(li)
			s.set(li) // setting twice is setting once
		}
		if got := wakeBits(t, s); !slices.Equal(got, want) {
			t.Fatalf("n=%d: eachWord after set = %v, want %v", n, got, want)
		}
		if got := drainBits(s); !slices.Equal(got, want) {
			t.Fatalf("n=%d: drain = %v, want %v", n, got, want)
		}
		if got := wakeBits(t, s); len(got) != 0 {
			t.Fatalf("n=%d: drain left %v", n, got)
		}
		for i := range s.sum {
			if s.sum[i].Load() != 0 {
				t.Fatalf("n=%d: drain left summary word %d = %#x", n, i, s.sum[i].Load())
			}
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		s.fill(n)
		if got := wakeBits(t, s); !slices.Equal(got, all) {
			t.Fatalf("n=%d: eachWord after fill visits %d indices, want 0..%d", n, len(got), n-1)
		}
		if got := drainBits(s); !slices.Equal(got, all) {
			t.Fatalf("n=%d: drain after fill did not hand over 0..%d", n, n-1)
		}
	}
}

// TestWakeSetConcurrentSet: four goroutines set overlapping indices at
// once, as compute slots do; run with -race.
func TestWakeSetConcurrentSet(t *testing.T) {
	const n, setters = 262144, 4
	s := newWakeSet(n)
	var wg sync.WaitGroup
	for g := range setters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every setter writes every word's neighbourhood: indices 3 apart
			// from its own offset, so words and summary words are shared.
			for li := g; li < n; li += 3 {
				s.set(int32(li))
			}
		}()
	}
	wg.Wait()
	got := wakeBits(t, s)
	if len(got) != n {
		t.Fatalf("%d of %d indices set", len(got), n)
	}
}

// TestFrontierVisitsInjectionsInEmptyWords: scheduler injections into
// words that hold no wake bit join the frontier, in ascending order with
// the woken vertices, and leave it once the injection set is gone.
func TestFrontierVisitsInjectionsInEmptyWords(t *testing.T) {
	const n = 3 * 4096
	spec := bfsSpec(graph.Ring(n), 1, 0)
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChannelNetwork(1, 64)
	t.Cleanup(func() { net.Close() })
	w := testWorker(t, &s, net, 0)
	if active := w.frontier(); len(active) != 0 { // the wake-all pass: all halted
		t.Fatalf("active = %v, want none", active)
	}
	// Vertex 70 runs on; 71 shares its word, the other injections are alone
	// in theirs.
	li70, _ := w.local(70)
	w.halted[li70] = false
	w.wakeCur.set(li70)
	inject := []graph.VertexID{9000, 5, 4200, 71}
	want := []int32{li70}
	for _, v := range inject {
		li, _ := w.local(v)
		want = append(want, li)
	}
	slices.Sort(want)
	if err := w.inject(inject); err != nil {
		t.Fatal(err)
	}
	if got := w.frontier(); !slices.Equal(got, want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
	w.wakeCur.set(li70)
	if err := w.inject(nil); err != nil {
		t.Fatal(err)
	}
	if got := w.frontier(); !slices.Equal(got, []int32{li70}) {
		t.Fatalf("frontier after the injections = %v, want [%d]", got, li70)
	}
	if err := w.inject([]graph.VertexID{n}); err == nil {
		t.Fatal("injecting a vertex outside the graph succeeded")
	}
}
