package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
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
	dest, li := int(p.worker), p.li
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
// stages and its counters.
type slotOutput struct {
	batches  []string
	staged   [][]byte
	counts   []int32
	run      []string
	stages   []string
	counters [4]int64
}

func captureSlot(w *worker[float64], c *Context[float64]) slotOutput {
	var out slotOutput
	for _, ob := range w.outboxes {
		for ob != nil && len(ob.ch) > 0 {
			b := (<-ob.ch).batch
			out.batches = append(out.batches, fmt.Sprintf("%d->%d step %d: %d msgs %x", b.From, b.To, b.Superstep, b.Count, b.Payload))
		}
	}
	for dest, buf := range c.outRemoteBuf {
		out.staged = append(out.staged, bytes.Clone(buf))
		out.counts = append(out.counts, c.outRemoteCnt[dest])
	}
	for seg := range c.localRun.segs() {
		lis, msgs := c.localRun.seg(seg)
		for i, li := range lis {
			out.run = append(out.run, fmt.Sprintf("%d:%x", li, math.Float64bits(msgs[i])))
		}
	}
	out.run = append(out.run, fmt.Sprintf("bytes %d", c.localRun.bytes))
	for dest := range c.stages {
		st := &c.stages[dest]
		desc := fmt.Sprintf("dest %d list %v dense %v over %v", dest, st.list, st.val != nil, st.over)
		if st.val != nil {
			desc += fmt.Sprintf(" blocks %v n %v val %v", st.blocks, st.n, st.val)
		}
		out.stages = append(out.stages, desc)
	}
	out.counters = [4]int64{c.computeOps, c.sentLocal, c.sentRemote, c.remoteBytesOut}
	return out
}

// TestSendKernelMatchesReference drives the send kernel and the reference
// loop with the same sends — neighbour sends from every vertex, hubs
// included, mixed with single sends — on twin workers, and requires
// byte-identical flushed batches, staging payloads, local runs and combine
// stages. It covers a combiner and none, 1–3 workers, 1–4 compute slots,
// and flush thresholds from exactly three records to the default. It also
// checks that a stage turned dense inside one neighbour list and that
// flushes fell inside one.
func TestSendKernelMatchesReference(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 11)
	var midDense, midFlush bool
	for _, combiner := range []Combiner[float64]{nil, SumCombiner{}} {
		for workers := 1; workers <= 3; workers++ {
			for slots := 1; slots <= 4; slots++ {
				for _, flush := range []int{48, 1000, 64 << 10} {
					name := fmt.Sprintf("combiner=%v/workers=%d/slots=%d/flush=%d", combiner != nil, workers, slots, flush)
					spec := JobSpec[float64]{Graph: g, NumWorkers: workers, Codec: Float64Codec{},
						Combiner: combiner, FlushBytes: flush, OutboxDepth: 1 << 14, NewProgram: idleProgram[float64]}
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
							m := float64(v)*1.5 + math.Pow(10, float64(li%7)-3)
							for _, c := range []*Context[float64]{kc, rc} {
								c.vertex, c.local = v, int32(li)
							}
							before := queued(kernel)
							dense := kc.stages != nil && kc.stages[0].val != nil
							kc.SendToNeighbors(m)
							refSendToNeighbors(rc, m)
							if kc.stages != nil && !dense && kc.stages[0].val != nil {
								midDense = true
							}
							if queued(kernel) >= before+2 {
								midFlush = true
							}
							to := graph.VertexID((int(v)*7 + 3) % g.NumVertices())
							kc.Send(to, -m)
							refSend(rc, to, -m)
						}
						got, want := captureSlot(kernel, kc), captureSlot(ref, rc)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: slot %d: kernel output differs from the per-message reference:\nkernel %+v\nref    %+v", name, slot, got, want)
						}
					}
					net.Close()
				}
			}
		}
	}
	if !midDense || !midFlush {
		t.Fatalf("coverage: a stage turned dense inside one neighbour list: %v; a flush fell inside one: %v", midDense, midFlush)
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
