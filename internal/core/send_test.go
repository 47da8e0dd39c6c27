package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// refSend is the per-message Send the send kernel replaced, kept as the
// kernel's differential reference: one placement lookup, then a combine
// stage, the slot's local run, or a record encoded straight onto the
// staging payload, message by message.
func refSend[M any](c *Context[M], to graph.VertexID, m M) {
	c.computeOps++
	w := c.w
	p := w.lay.place[to]
	dest, li := int(w.lay.owner(p)), w.lay.index(p)
	if w.combiner != nil {
		if dest == w.id {
			c.sentLocal++
		}
		c.stages[dest].add(li, m, w.combiner, len(w.lay.owned[dest]))
		return
	}
	if dest == w.id {
		c.sentLocal++
		c.localRun.add(li, m, int64(w.codec.Size(m))+msgWireOverhead)
		return
	}
	c.sentRemote++
	buf := c.outRemoteBuf[dest]
	if buf == nil {
		buf = transport.GetPayload(0)
	}
	buf = appendMsgHeader(buf, to, w.codec.Size(m))
	buf = w.codec.Append(buf, m)
	c.outRemoteBuf[dest] = buf
	c.outRemoteCnt[dest]++
	if len(buf) >= w.flushBytes {
		w.flushSlotBuffer(c, dest)
	}
}

// refSendToNeighbors is today's SendToNeighbors loop over refSend.
func refSendToNeighbors[M any](c *Context[M], m M) {
	for _, v := range c.Neighbors() {
		refSend(c, v, m)
	}
}

// slotOutput is everything a compute slot's sends leave behind: the batches
// it flushed, its staging payloads and counts, its local run, its combine
// stages and its counters. Messages are compared by their bits, so −0 and
// NaN payloads count.
type slotOutput struct {
	batches  []string
	staged   [][]byte
	counts   []int32
	run      []string
	stages   []string
	counters [4]int64
}

func captureSlot[M any](w *worker[M], c *Context[M]) slotOutput {
	out := slotOutput{batches: captureBatches(w)}
	for dest, buf := range c.outRemoteBuf {
		out.staged = append(out.staged, bytes.Clone(buf))
		out.counts = append(out.counts, c.outRemoteCnt[dest])
	}
	for seg := range c.localRun.segs() {
		lis, msgs := c.localRun.seg(seg)
		for i, li := range lis {
			out.run = append(out.run, fmt.Sprintf("%d:%x", li, msgBits(msgs[i])))
		}
	}
	out.run = append(out.run, fmt.Sprintf("bytes %d", c.localRun.bytes))
	for dest := range c.stages {
		st := &c.stages[dest]
		desc := fmt.Sprintf("dest %d list", dest)
		for _, e := range st.list {
			desc += fmt.Sprintf(" %d:%x", e.li, msgBits(e.m))
		}
		desc += fmt.Sprintf(" dense %v over %v", st.val != nil, st.over)
		if st.val != nil {
			desc += fmt.Sprintf(" blocks %v n %v val", st.blocks, st.n)
			for _, m := range st.val {
				desc += fmt.Sprintf(" %x", msgBits(m))
			}
		}
		out.stages = append(out.stages, desc)
	}
	out.counters = [4]int64{c.computeOps, c.sentLocal, c.sentRemote, c.remoteBytesOut}
	return out
}

// captureBatches drains the batches waiting in w's outboxes.
func captureBatches[M any](w *worker[M]) []string {
	var out []string
	for _, ob := range w.outboxes {
		for ob != nil && len(ob.ch) > 0 {
			b := (<-ob.ch).batch
			out = append(out, fmt.Sprintf("%d->%d step %d: %d msgs %x", b.From, b.To, b.Superstep, b.Count, b.Payload))
		}
	}
	return out
}

func msgBits[M any](m M) uint64 {
	switch v := any(m).(type) {
	case float64:
		return math.Float64bits(v)
	case uint32:
		return uint64(v)
	}
	panic(fmt.Sprintf("msgBits: %T", m))
}

// plusCombiner adds like SumCombiner, but is the user's own type, so the
// kernel must fold it through the Combiner interface; calls, when set,
// counts the Combine calls.
type plusCombiner struct{ calls *int }

func (c plusCombiner) Combine(a, b float64) float64 {
	if c.calls != nil {
		*c.calls++
	}
	return a + b
}

// minCombiner keeps the smaller of two float64 messages, like weighted
// SSSP's combiner, so −0 against +0 and NaN operands show the fold order.
type minCombiner struct{}

func (minCombiner) Combine(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// foldKernelOf returns the code pointer of the fold kernel a worker of a
// job with comb runs.
func foldKernelOf[M any](t *testing.T, comb Combiner[M]) uintptr {
	t.Helper()
	var codec Codec[M]
	switch c := any(&codec).(type) {
	case *Codec[float64]:
		*c = Float64Codec{}
	case *Codec[uint32]:
		*c = Uint32Codec{}
	}
	spec := JobSpec[M]{Graph: graph.Ring(4), NumWorkers: 1, Codec: codec, Combiner: comb, NewProgram: idleProgram[M]}
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChannelNetwork(1, 4)
	defer net.Close()
	return reflect.ValueOf(testWorker(t, &s, net, 0).fold).Pointer()
}

// kernelCoverage records that the kernel test reached the paths it is for.
type kernelCoverage struct{ midDense, midFlush, over bool }

// TestSendKernelMatchesReference drives the send kernel and the reference
// loop with the same sends — neighbour sends from every vertex, hubs
// included, mixed with single sends and four sends per vertex to one hub —
// on twin workers, and requires byte-identical flushed batches, staging
// payloads, local runs and combine stages, both after the sends and after
// the slot's combined output is encoded. It covers no combiner, the
// engine's SumCombiner (its own fold loop) and MinUint32Combiner, and two
// user combiners on float64, a min and a sum, with −0, NaN payloads and
// ±Inf among the float operands, 1–3 workers, 1–4 compute slots, and flush
// thresholds from exactly three records to the default. It also checks that a stage turned dense inside
// one neighbour list, that flushes fell inside one, and that a vertex took
// more than 255 folds in one stage.
func TestSendKernelMatchesReference(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 11)
	var cov kernelCoverage
	for _, comb := range []Combiner[float64]{nil, SumCombiner{}, minCombiner{}, plusCombiner{}} {
		checkSendKernel(t, g, comb, Float64Codec{}, floatMsg, &cov)
	}
	checkSendKernel(t, g, Combiner[uint32](MinUint32Combiner{}), Uint32Codec{}, func(v graph.VertexID, li, k int) uint32 {
		return uint32(v)*2654435761 + uint32(li%5+k)
	}, &cov)
	if !cov.midDense || !cov.midFlush || !cov.over {
		t.Fatalf("coverage: a stage turned dense inside one neighbour list: %v; a flush fell inside one: %v; a vertex took over 255 folds: %v",
			cov.midDense, cov.midFlush, cov.over)
	}
}

// TestFoldKernelChoice: SumCombiner gets its own fold loop, and any other
// combiner, one on float64 included, is folded through its Combine method.
func TestFoldKernelChoice(t *testing.T) {
	if foldKernel[float64](nil) != nil {
		t.Error("a job without a combiner got a fold kernel")
	}
	if got, want := foldKernelOf(t, Combiner[float64](SumCombiner{})), reflect.ValueOf(foldSum).Pointer(); got != want {
		t.Errorf("SumCombiner: fold kernel %s, want %s", runtime.FuncForPC(got).Name(), runtime.FuncForPC(want).Name())
	}

	g := graph.Star(8)
	for _, byPointer := range []bool{false, true} {
		calls := new(int)
		var comb Combiner[float64] = plusCombiner{calls}
		if byPointer {
			comb = &plusCombiner{calls}
		}
		spec := JobSpec[float64]{Graph: g, NumWorkers: 1, Codec: Float64Codec{}, Combiner: comb, NewProgram: idleProgram[float64]}
		s, err := spec.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		net := transport.NewChannelNetwork(1, 64)
		w := testWorker(t, &s, net, 0)
		ctx := w.slotContext(0)
		for range 40 { // enough sends to one vertex to turn its stage dense
			ctx.Send(1, 0.5)
		}
		if ctx.stages[0].val == nil || *calls != 39 {
			t.Errorf("%T: dense stage %v, %d Combine calls for 40 sends to one vertex, want 39", comb, ctx.stages[0].val != nil, *calls)
		}
		net.Close()
	}
}

// floatMsg is vertex v's k-th message in the kernel test: mostly finite
// values of very different magnitudes, so a changed fold order changes the
// sum, and one in ten a −0, +0, ±Inf or one of two NaN payloads, so a
// swapped operand order changes the bits.
func floatMsg(v graph.VertexID, li, k int) float64 {
	specials := [...]float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)}
	if li%10 == 0 {
		return specials[(li/10+k)%len(specials)]
	}
	m := float64(v)*1.5 + math.Pow(10, float64(li%7)-3)
	if k != 0 {
		m = -m
	}
	return m
}

func checkSendKernel[M any](t *testing.T, g *graph.Graph, comb Combiner[M], codec Codec[M],
	msg func(v graph.VertexID, li, k int) M, cov *kernelCoverage) {
	t.Helper()
	const hub = 0
	for workers := 1; workers <= 3; workers++ {
		for slots := 1; slots <= 4; slots++ {
			for _, flush := range []int{48, 1000, 64 << 10} {
				name := fmt.Sprintf("combiner=%T/workers=%d/slots=%d/flush=%d", comb, workers, slots, flush)
				spec := JobSpec[M]{Graph: g, NumWorkers: workers, Codec: codec,
					Combiner: comb, FlushBytes: flush, OutboxDepth: 1 << 14, NewProgram: idleProgram[M]}
				s, err := spec.withDefaults()
				if err != nil {
					t.Fatal(err)
				}
				net := transport.NewChannelNetwork(workers, 64)
				kernel, ref := testWorker(t, &s, net, 0), testWorker(t, &s, net, 0)
				for slot := range slots {
					kc, rc := kernel.slotContext(slot), ref.slotContext(slot)
					for li := slot; li < len(kernel.owned); li += slots {
						v := kernel.owned[li]
						for _, c := range []*Context[M]{kc, rc} {
							c.vertex, c.local = v, int32(li)
						}
						before := queued(kernel)
						dense := kc.stages != nil && kc.stages[0].val != nil
						m := msg(v, li, 0)
						kc.SendToNeighbors(m)
						refSendToNeighbors(rc, m)
						if kc.stages != nil && !dense && kc.stages[0].val != nil {
							cov.midDense = true
						}
						if queued(kernel) >= before+2 {
							cov.midFlush = true
						}
						to := graph.VertexID((int(v)*7 + 3) % g.NumVertices())
						kc.Send(to, msg(v, li, 1))
						refSend(rc, to, msg(v, li, 1))
						for k := range 4 {
							kc.Send(hub, msg(v, li, k))
							refSend(rc, hub, msg(v, li, k))
						}
					}
					for i := range kc.stages {
						cov.over = cov.over || len(kc.stages[i].over) > 0
					}
					got, want := captureSlot(kernel, kc), captureSlot(ref, rc)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: slot %d: kernel output differs from the per-message reference:\nkernel %+v\nref    %+v", name, slot, got, want)
					}
					kernel.finishSlot(kc)
					ref.finishSlot(rc)
					if got, want := captureBatches(kernel), captureBatches(ref); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: slot %d: encoded stage output differs from the reference's:\nkernel %v\nref    %v", name, slot, got, want)
					}
				}
				net.Close()
			}
		}
	}
}

// queued counts the batches waiting in w's outboxes.
func queued[M any](w *worker[M]) int {
	n := 0
	for _, ob := range w.outboxes {
		if ob != nil {
			n += len(ob.ch)
		}
	}
	return n
}

// TestPointerMessagesAreZeroed: message buffers skip zeroing only for a
// pointer-free M. A run and an arena of a pointer-carrying M are zeroed on
// reset, so stale messages pin nothing.
func TestPointerMessagesAreZeroed(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		ptrs bool
	}{
		{reflect.TypeFor[float64](), false},
		{reflect.TypeFor[[4]uint32](), false},
		{reflect.TypeFor[struct {
			A uint32
			B float64
		}](), false},
		{reflect.TypeFor[[0]*int](), false},
		{reflect.TypeFor[*int](), true},
		{reflect.TypeFor[string](), true},
		{reflect.TypeFor[[]byte](), true},
		{reflect.TypeFor[struct {
			A int
			B [2]map[int]int
		}](), true},
		{reflect.TypeFor[any](), true},
	} {
		if got := hasPointers(tc.typ); got != tc.ptrs {
			t.Errorf("hasPointers(%v) = %v, want %v", tc.typ, got, tc.ptrs)
		}
	}

	type msg = ptrMsg
	spec := JobSpec[msg]{Graph: graph.Ring(8), NumWorkers: 1, Codec: pointerCodec{}, NewProgram: idleProgram[msg]}
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChannelNetwork(1, 64)
	defer net.Close()
	w := testWorker(t, &s, net, 0)
	if w.pointerFree || w.in.pointerFree || w.stateRun.pointerFree || w.slotContext(0).localRun.pointerFree {
		t.Fatal("a pointer-carrying message type is marked pointer-free")
	}
	x := 7
	ctx := w.slotContext(0)
	for li := range int32(8) {
		ctx.localRun.add(li, msg{&x}, 16)
	}
	chunk := ctx.localRun.chunks[0]
	w.deliver()
	if slices.ContainsFunc(chunk.msgs[:8], func(m msg) bool { return m.p != nil }) {
		t.Fatal("a run of a pointer-carrying M kept messages after reset")
	}
	page := w.in.pages[0]
	if !slices.ContainsFunc(page, func(m msg) bool { return m.p != nil }) {
		t.Fatal("the merge installed no messages")
	}
	w.in.reset()
	if slices.ContainsFunc(page, func(m msg) bool { return m.p != nil }) {
		t.Fatal("an arena of a pointer-carrying M kept messages after reset")
	}

	fspec := JobSpec[float64]{Graph: graph.Ring(8), NumWorkers: 1, Codec: Float64Codec{}, NewProgram: idleProgram[float64]}
	if fspec, err = fspec.withDefaults(); err != nil {
		t.Fatal(err)
	}
	fw := testWorker(t, &fspec, net, 0)
	if !fw.pointerFree || !fw.in.pointerFree || !fw.recv[0].pointerFree || !fw.slotContext(0).localRun.pointerFree {
		t.Fatal("a float64 message buffer is not marked pointer-free")
	}
}

// idleProgram is a program for workers whose compute the test drives itself.
func idleProgram[M any](int, *graph.Graph, []graph.VertexID) VertexProgram[M] {
	return computeFunc[M](func(*Context[M], []M) {})
}

// ptrMsg is a pointer-carrying message type; pointerCodec stands in for
// its codec, which a one-worker job never calls on the wire.
type ptrMsg struct{ p *int }

type pointerCodec struct{}

func (pointerCodec) Append(buf []byte, _ ptrMsg) []byte { return buf }
func (pointerCodec) Decode([]byte) (ptrMsg, int)        { return ptrMsg{}, 0 }
func (pointerCodec) Size(ptrMsg) int                    { return 0 }
