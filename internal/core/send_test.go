package core

import (
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
// stage, the slot's local run, or a record of its own on wire, message by
// message.
func refSend[M any](c *Context[M], wire *refWire, to graph.VertexID, m M) {
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
	wire.add(dest, w.codec.Append(appendMsgHeader(nil, to, w.codec.Size(m)), m))
}

// refSendToNeighbors is the per-edge SendToNeighbors loop over refSend. It
// notes when a per-message batch closed inside a neighbour list, with more
// of the list still to go to the same worker: a batch boundary inside a
// mirror span.
func refSendToNeighbors[M any](c *Context[M], wire *refWire, m M) {
	nbrs := c.Neighbors()
	owner := func(v graph.VertexID) int32 { return c.w.lay.owner(c.w.lay.place[v]) }
	for i, v := range nbrs {
		flushes := 0
		if wire != nil {
			flushes = wire.flushes
		}
		refSend(c, wire, v, m)
		if wire != nil && wire.flushes > flushes &&
			slices.ContainsFunc(nbrs[i+1:], func(u graph.VertexID) bool { return owner(u) == owner(v) }) {
			wire.midSpan = true
		}
	}
}

// refWire is the per-message wire: every remote message a record of its
// own, on one payload per destination, flushed as a batch once it reaches
// flush bytes — the batches a slot sent before broadcast records.
type refWire struct {
	flush   int
	buf     [][]byte
	count   []int32
	batches [][]refBatch // per destination
	flushes int
	midSpan bool
}

// refBatch is one of the reference's batches: its records and how many.
type refBatch struct {
	count   int32
	payload []byte
}

// wireSize is what the batch put on the wire.
func (b refBatch) wireSize() int64 { return int64(transport.BatchHeaderSize + len(b.payload)) }

func newRefWire(workers, flush int) *refWire {
	return &refWire{flush: flush, buf: make([][]byte, workers), count: make([]int32, workers),
		batches: make([][]refBatch, workers)}
}

func (r *refWire) add(dest int, record []byte) {
	r.buf[dest] = append(r.buf[dest], record...)
	r.count[dest]++
	if len(r.buf[dest]) >= r.flush {
		r.flushTo(dest)
	}
}

func (r *refWire) flushTo(dest int) {
	if len(r.buf[dest]) == 0 {
		return
	}
	r.batches[dest] = append(r.batches[dest], refBatch{r.count[dest], r.buf[dest]})
	r.buf[dest], r.count[dest] = nil, 0
	r.flushes++
}

// finish flushes what a slot left staged, as finishSlot does.
func (r *refWire) finish() {
	for dest := range r.buf {
		r.flushTo(dest)
	}
}

// slotOutput is everything a compute slot's sends leave behind: the batches
// it flushed, its staging payloads, counts and bills, its local run, its
// combine stages and its counters. Messages are compared by their bits, so
// −0 and NaN payloads count.
type slotOutput struct {
	batches  []string
	staged   []string
	run      []string
	stages   []string
	counters [4]int64
}

func captureSlot[M any](w *worker[M], c *Context[M]) slotOutput {
	out := slotOutput{batches: captureBatches(w)}
	for _, st := range c.out {
		out.staged = append(out.staged, fmt.Sprintf("%x: %d msgs, logical %d, open %d", st.buf, st.count, st.logical, st.open))
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
	for _, batches := range drainBatches(w) {
		for _, b := range batches {
			out = append(out, fmt.Sprintf("%d->%d step %d: %d msgs %x", b.From, b.To, b.Superstep, b.Count, b.Payload))
		}
	}
	return out
}

// drainBatches drains the batches waiting in w's outboxes, by destination.
func drainBatches[M any](w *worker[M]) [][]*transport.Batch {
	out := make([][]*transport.Batch, len(w.outboxes))
	for dest, ob := range w.outboxes {
		for ob != nil && len(ob.ch) > 0 {
			out[dest] = append(out[dest], (<-ob.ch).batch)
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

// kernelCoverage records that the kernel test reached the paths it is for:
// a stage turned dense inside one neighbour list, a vertex took over 255
// folds in one stage, a per-message batch closed inside a mirror span, the
// kernel flushed a payload before its slot finished, and the merge
// installed a first stage that was a list and a later stage.
type kernelCoverage struct {
	midDense, over, midSpan, midFlush bool
	listFirst, laterStage             bool
}

// TestSendKernelMatchesReference drives the send kernel and the per-message
// reference with the same sends — neighbour sends from every vertex, hubs
// included, mixed with single sends and four sends per vertex to one hub —
// on twin workers. With a combiner — the engine's SumCombiner (its own fold
// loop) and MinUint32Combiner, and two user combiners on float64, a min and
// a sum — it requires byte-identical flushed batches, staging payloads,
// local runs and combine stages, both after the sends and after the slot's
// combined output is encoded. It then merges the local stages, the kernel
// twin's through install and the reference's through installCombinedRef,
// which pre-combines every stage, and requires the same inbox bits, the
// same vertices holding a message, memory meter and traffic counts: after
// a sparse round whose stages stay lists, and after two full rounds, the
// second staging into the stages the first merge reset. Without
// one, where a neighbour send is one span entry and one broadcast record
// per worker, it requires byte-identical inboxes on every worker once the
// batches are decoded and merged, the same counters, and logical batch
// sizes that sum to the wire size of the reference's per-message batches.
// The float operands include −0, NaN payloads and ±Inf; the grid is 1–3
// workers, 1–4 compute slots and flush thresholds from three records to
// the default, so per-message batches close inside mirror spans.
func TestSendKernelMatchesReference(t *testing.T) {
	g := graph.BarabasiAlbert(300, 4, 11)
	var cov kernelCoverage
	checkBroadcastKernel(t, g, &cov)
	for _, comb := range []Combiner[float64]{SumCombiner{}, minCombiner{}, plusCombiner{}} {
		checkSendKernel(t, g, comb, Float64Codec{}, floatMsg, &cov)
	}
	checkSendKernel(t, g, Combiner[uint32](MinUint32Combiner{}), Uint32Codec{}, func(v graph.VertexID, li, k int) uint32 {
		return uint32(v)*2654435761 + uint32(li%5+k)
	}, &cov)
	if !cov.midDense || !cov.over || !cov.midSpan || !cov.midFlush {
		t.Fatalf("coverage: a stage turned dense inside one neighbour list: %v; a vertex took over 255 folds: %v; a per-message batch closed inside a span: %v; the kernel flushed mid-slot: %v",
			cov.midDense, cov.over, cov.midSpan, cov.midFlush)
	}
	if !cov.listFirst || !cov.laterStage {
		t.Fatalf("coverage: the merge installed a list as the first stage: %v; a later stage: %v",
			cov.listFirst, cov.laterStage)
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
				// A sparse round, whose stages are lists, then two full ones,
				// the second staging into the stages the first merge reset.
				for round, sparse := range []bool{true, false, false} {
					name := fmt.Sprintf("%s/round=%d", name, round)
					sendRound(t, name, g, kernel, ref, slots, sparse, msg, cov)
					checkSameCombinedInbox(t, name, kernel, ref, cov)
				}
				net.Close()
			}
		}
	}
}

// sendRound is one superstep of checkSendKernel's sends on both twins: the
// kernel's and the reference's slot output must match after the sends and
// once the slot's remote stages are encoded. A sparse round sends from only
// two of each slot's vertices, whose messages are finite, and no neighbour
// sends, so its stages stay lists and the hub's sum depends on fold order.
func sendRound[M any](t *testing.T, name string, g *graph.Graph, kernel, ref *worker[M], slots int, sparse bool,
	msg func(v graph.VertexID, li, k int) M, cov *kernelCoverage) {
	t.Helper()
	const hub = 0
	for slot := range slots {
		kc, rc := kernel.slotContext(slot), ref.slotContext(slot)
		senders := 0
		for li := slot; li < len(kernel.owned); li += slots {
			if sparse && li%10 == 0 {
				continue
			}
			v := kernel.owned[li]
			for _, c := range []*Context[M]{kc, rc} {
				c.vertex, c.local = v, int32(li)
			}
			if !sparse {
				dense := kc.stages[0].val != nil
				m := msg(v, li, 0)
				kc.SendToNeighbors(m)
				refSendToNeighbors(rc, nil, m)
				if !dense && kc.stages[0].val != nil {
					cov.midDense = true
				}
			}
			to := graph.VertexID((int(v)*7 + 3) % g.NumVertices())
			kc.Send(to, msg(v, li, 1))
			refSend(rc, nil, to, msg(v, li, 1))
			for k := range 4 {
				kc.Send(hub, msg(v, li, k))
				refSend(rc, nil, hub, msg(v, li, k))
			}
			if senders++; sparse && senders == 2 {
				break
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
}

// checkSameCombinedInbox merges both twins' local combine stages, the
// kernel's through deliver and the reference's through deliverCombinedRef,
// and requires the same inbox: message bits, the vertices holding a
// message, the memory meter and the traffic counts.
func checkSameCombinedInbox[M any](t *testing.T, name string, kernel, ref *worker[M], cov *kernelCoverage) {
	t.Helper()
	nonEmpty := 0
	for _, c := range kernel.slots {
		if st := &c.stages[kernel.id]; !st.empty() {
			if nonEmpty == 0 {
				cov.listFirst = cov.listFirst || st.val == nil
			}
			nonEmpty++
		}
	}
	cov.laterStage = cov.laterStage || nonEmpty > 1
	kernel.deliver()
	deliverCombinedRef(ref)
	if got, want := combinedInbox(kernel), combinedInbox(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the merged inbox differs from the pre-combining reference's:\nkernel %v\nref    %v", name, got, want)
	}
}

// combinedInbox describes a combined inbox: meter, traffic, the vertices
// holding a message in ascending order, then each one's message bits.
func combinedInbox[M any](w *worker[M]) []string {
	var holding []int32
	w.in.each(func(li int32) { holding = append(holding, li) })
	slices.Sort(holding)
	out := []string{fmt.Sprintf("bytes %d traffic %v holding %v", w.in.bytes, w.vertexTraffic, holding)}
	for li := range w.owned {
		for _, m := range w.in.msgs(int32(li)) {
			out = append(out, fmt.Sprintf("%d:%x", li, msgBits(m)))
		}
	}
	return out
}

// deliverCombinedRef is deliver for a job with a combiner whose workers
// received nothing, merging through installCombinedRef.
func deliverCombinedRef[M any](w *worker[M]) {
	var stages []*stage[M]
	for _, c := range w.slots {
		st := &c.stages[w.id]
		st.countInto(w.vertexTraffic)
		stages = append(stages, st)
	}
	w.in.reset()
	installCombinedRef(w, stages)
	for _, st := range stages {
		st.reset()
	}
}

// installCombinedRef is install's combiner branch as it was before the
// first stage went in without pre-combining: every stage, in slot order,
// emits one pre-combined message per vertex, which folds into the inbox.
func installCombinedRef[M any](w *worker[M], stages []*stage[M]) {
	in := &w.in
	for _, st := range stages {
		st.combined(w.combiner, false, func(li int32, m M) { in.fold(li, m, w.combiner) })
	}
	in.dense.each(func(li int32) { in.bytes += int64(w.codec.Size(in.val[li])) + msgWireOverhead })
}

// checkBroadcastKernel is TestSendKernelMatchesReference without a
// combiner. Worker 0 of each layout sends through the kernel on one twin
// and through the per-message reference on the other. Every worker's inbox
// is then built from what each twin sent — worker 0's from its slots' local
// runs, every other worker's by decoding the batches sent to it, the
// reference's behind a logical size equal to their wire size — and the two
// must match message for message, bit for bit, with the same memory meter
// and traffic counts.
func checkBroadcastKernel(t *testing.T, g *graph.Graph, cov *kernelCoverage) {
	t.Helper()
	const hub = 0
	for workers := 1; workers <= 3; workers++ {
		for slots := 1; slots <= 4; slots++ {
			for _, flush := range []int{48, 100, 1000, 64 << 10} {
				name := fmt.Sprintf("no combiner/workers=%d/slots=%d/flush=%d", workers, slots, flush)
				spec := JobSpec[float64]{Graph: g, NumWorkers: workers, Codec: Float64Codec{},
					FlushBytes: flush, OutboxDepth: 1 << 14, NewProgram: idleProgram[float64]}
				s, err := spec.withDefaults()
				if err != nil {
					t.Fatal(err)
				}
				net := transport.NewChannelNetwork(workers, 64)
				kernel, ref := testWorker(t, &s, net, 0), testWorker(t, &s, net, 0)
				wire := newRefWire(workers, flush)
				for slot := range slots {
					kc, rc := kernel.slotContext(slot), ref.slotContext(slot)
					for li := slot; li < len(kernel.owned); li += slots {
						v := kernel.owned[li]
						for _, c := range []*Context[float64]{kc, rc} {
							c.vertex, c.local = v, int32(li)
						}
						m := floatMsg(v, li, 0)
						kc.SendToNeighbors(m)
						refSendToNeighbors(rc, wire, m)
						to := graph.VertexID((int(v)*7 + 3) % g.NumVertices())
						kc.Send(to, floatMsg(v, li, 1))
						refSend(rc, wire, to, floatMsg(v, li, 1))
						for k := range 4 {
							kc.Send(hub, floatMsg(v, li, k))
							refSend(rc, wire, hub, floatMsg(v, li, k))
						}
					}
					cov.midFlush = cov.midFlush || queued(kernel) > 0
					kernel.finishSlot(kc)
					ref.finishSlot(rc)
					wire.finish()
				}
				cov.midSpan = cov.midSpan || wire.midSpan
				for _, c := range [][3]any{
					{"compute ops", kernel.statComputeOps.Load(), ref.statComputeOps.Load()},
					{"local messages", kernel.statSentLocal.Load(), ref.statSentLocal.Load()},
					{"remote messages", kernel.statSentRemote.Load(), ref.statSentRemote.Load()},
				} {
					if c[1] != c[2] {
						t.Fatalf("%s: %s %d, the reference counted %d", name, c[0], c[1], c[2])
					}
				}
				sent := drainBatches(kernel)
				var logicalOut, wireOut int64
				for dest := 1; dest < workers; dest++ {
					kr, rr := testWorker(t, &s, net, dest), testWorker(t, &s, net, dest)
					var logicalIn, wireIn, msgs, refMsgs int64
					for _, b := range sent[dest] {
						n, err := kr.decodeBatch(b)
						if err != nil {
							t.Fatalf("%s: the kernel's batch for worker %d: %v", name, dest, err)
						}
						logicalIn += n
						logicalOut += logicalSize(b.Payload)
						msgs += int64(b.Count)
					}
					for _, b := range wire.batches[dest] {
						wireIn += b.wireSize()
						refMsgs += int64(b.count)
						if _, err := rr.decodeBatch(&transport.Batch{Count: b.count, Epoch: rr.epoch.Load(),
							Payload: payload(int(b.wireSize()), b.payload)}); err != nil {
							t.Fatalf("%s: the reference's batch for worker %d: %v", name, dest, err)
						}
					}
					if msgs != refMsgs {
						t.Fatalf("%s: worker %d: the kernel's batches carry %d messages, the reference's %d", name, dest, msgs, refMsgs)
					}
					if logicalIn != wireIn {
						t.Fatalf("%s: worker %d decoded logical sizes summing to %d, the reference put %d on the wire", name, dest, logicalIn, wireIn)
					}
					wireOut += wireIn
					checkSameInbox(t, fmt.Sprintf("%s: worker %d", name, dest), kr, rr)
				}
				if logicalOut != wireOut || kernel.statBytesOut.Load() != wireOut {
					t.Fatalf("%s: logical batch sizes sum to %d (billed %d), the reference's batches to %d bytes of wire",
						name, logicalOut, kernel.statBytesOut.Load(), wireOut)
				}
				checkSameInbox(t, name+": worker 0", kernel, ref)
				net.Close()
			}
		}
	}
}

// checkSameInbox merges got's and want's staged and received messages and
// requires the same inbox, message bits in order, memory meter and traffic
// counts.
func checkSameInbox(t *testing.T, name string, got, want *worker[float64]) {
	t.Helper()
	inbox := func(w *worker[float64]) []string {
		w.deliver()
		out := []string{fmt.Sprintf("bytes %d traffic %v", w.in.bytes, w.vertexTraffic)}
		for li := range w.owned {
			for _, m := range w.in.msgs(int32(li)) {
				out = append(out, fmt.Sprintf("%d:%x", li, msgBits(m)))
			}
		}
		return out
	}
	if g, w := inbox(got), inbox(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: the inbox differs from the per-message reference's:\nkernel %v\nref    %v", name, g, w)
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
