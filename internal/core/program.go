// Package core implements the Pregel-style BSP graph-processing engine the
// paper builds (Pregel.NET) together with its primary contribution: swath
// scheduling of vertex computations.
//
// Architecture (paper §III): a job manager coordinates supersteps through
// cloud queues (step tokens out, barrier check-ins back); partition workers
// hold disjoint vertex partitions, call a user compute() on each active
// vertex in parallel across cores, deliver messages to co-located vertices
// in memory and to remote vertices as serialized bulk batches over the data
// plane. A superstep ends when every worker has computed its vertices and
// every emitted message has been delivered; the manager halts the job when
// all vertices are inactive, no messages are in flight, and the swath
// scheduler has nothing left to inject.
package core

import (
	"encoding/binary"
	"slices"

	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// Codec serializes messages of type M for remote delivery and for memory
// accounting. Implementations must be safe for concurrent use.
type Codec[M any] interface {
	// Append appends the encoded form of m to buf and returns the result.
	Append(buf []byte, m M) []byte
	// Decode reads one message from data, returning it and the number of
	// bytes consumed. The returned message must not retain (alias) data:
	// payload buffers are recycled once a batch is decoded.
	Decode(data []byte) (M, int)
	// Size returns the encoded size of m in bytes (must equal what Append
	// produces).
	Size(m M) int
}

// Combiner merges two messages addressed to the same destination vertex,
// as in Pregel's combiners (e.g. summing partial PageRank contributions).
// Combine must be commutative and associative.
type Combiner[M any] interface {
	Combine(a, b M) M
}

// VertexProgram is the user algorithm. One instance is created per worker
// (via JobSpec.NewProgram); its per-vertex state is indexed however the
// implementation chooses. Compute may be called concurrently for *different*
// vertices of the same worker, never concurrently for the same vertex.
type VertexProgram[M any] interface {
	// Compute processes the messages sent to ctx.Vertex() in the previous
	// superstep (nil on activation without messages), updates vertex state,
	// emits messages via ctx, and optionally votes to halt.
	Compute(ctx *Context[M], msgs []M)
}

// StateReporter is optionally implemented by programs to report their
// current per-worker state footprint for memory accounting (e.g. BC's
// per-traversal distance/sigma/delta states).
type StateReporter interface {
	StateBytes() int64
}

// Context is the engine-facing API available to Compute. A Context is owned
// by one compute goroutine and reused across vertices; programs must not
// retain it after Compute returns.
type Context[M any] struct {
	w         *worker[M]
	superstep int
	vertex    graph.VertexID
	local     int32
	injected  bool
	halted    bool

	// Per-slot staging, flushed by the worker after each batch of vertices.
	out    []staging // per destination worker
	body   []byte    // one message's encoding, copied behind each remote header
	places []place   // the send kernel's resolved destinations
	// lists[d] is the send kernel's receiver-local indices for worker d, in
	// send order, for the workers dests names (in first-send order); every
	// other list is empty.
	lists [][]int32
	dests []int32
	// Next-superstep output, staged without locks (deliver.go). With a
	// combiner: one combine stage per destination worker, this one included,
	// keyed by the destination's local index. Without one: the local sends,
	// in send order.
	stages         []stage[M]
	localRun       run[M]
	aggs           map[string]float64
	computeOps     int64
	sentLocal      int64
	sentRemote     int64
	remoteBytesOut int64
}

// Superstep returns the current superstep number (0-based).
func (c *Context[M]) Superstep() int { return c.superstep }

// Vertex returns the vertex currently being computed.
func (c *Context[M]) Vertex() graph.VertexID { return c.vertex }

// LocalIndex returns the current vertex's dense index within this worker's
// owned-vertex list (0..len(owned)-1), the natural index for program state
// arrays.
func (c *Context[M]) LocalIndex() int { return int(c.local) }

// NumVertices returns the number of vertices in the whole graph.
func (c *Context[M]) NumVertices() int { return c.w.g.NumVertices() }

// NumWorkers returns the number of partition workers in the job.
func (c *Context[M]) NumWorkers() int { return c.w.numWorkers }

// WorkerID returns the executing worker's id.
func (c *Context[M]) WorkerID() int { return c.w.id }

// Neighbors returns the out-neighbors of the current vertex. The slice
// aliases graph storage and must not be modified.
func (c *Context[M]) Neighbors() []graph.VertexID { return c.w.g.Neighbors(c.vertex) }

// Degree returns the out-degree of the current vertex.
func (c *Context[M]) Degree() int { return c.w.g.OutDegree(c.vertex) }

// IsInjected reports whether the current vertex was activated by the swath
// scheduler in this superstep (e.g. it should start a traversal rooted at
// itself).
func (c *Context[M]) IsInjected() bool { return c.injected }

// VoteToHalt marks the current vertex inactive. It will not be computed
// again until a message arrives or the scheduler injects it.
func (c *Context[M]) VoteToHalt() { c.halted = true }

// Send delivers m to vertex `to` at the beginning of the next superstep.
func (c *Context[M]) Send(to graph.VertexID, m M) { c.send([]graph.VertexID{to}, m) }

// SendToAll delivers m to every vertex of dsts, duplicates included: exactly
// what one Send per element would deliver, in the same order. Without a
// combiner, m is encoded once and travels to each other worker owning any
// of dsts as multicast records listing its vertices.
func (c *Context[M]) SendToAll(dsts []graph.VertexID, m M) { c.send(dsts, m) }

// SendToNeighbors delivers m to every out-neighbor of the current vertex.
func (c *Context[M]) SendToNeighbors(m M) {
	if c.w.lay.mirrors == nil {
		c.send(c.Neighbors(), m)
		return
	}
	c.broadcast(m)
}

// send is the one send body: m to every vertex of dsts, in order, in two
// phases. Resolve reads dsts in order and loads each destination's place
// into the slot's scratch: loads from the placement table that do not
// depend on each other. Stage then walks those places: with a combiner
// through the job's fold kernel (kernel.go); without one into the local
// run, or onto the list of the remote worker owning the place. Each list
// then goes out behind m, encoded once: a plain record for a lone vertex,
// multicast records otherwise.
func (c *Context[M]) send(dsts []graph.VertexID, m M) {
	w := c.w
	table, pk, self := w.lay.place, w.lay.packing, int32(w.id)
	places := slices.Grow(c.places[:0], len(dsts))[:len(dsts)]
	local := 0
	for i, to := range dsts {
		p := table[to]
		places[i] = p
		if pk.owner(p) == self {
			local++
		}
	}
	c.places = places
	c.computeOps += int64(len(dsts))
	c.sentLocal += int64(local)
	if w.combiner != nil {
		w.fold(c, places, m)
		return
	}
	size := int64(w.codec.Size(m)) + msgWireOverhead
	lists, dests := c.lists, c.dests[:0]
	for _, p := range places {
		dest, li := pk.owner(p), pk.index(p)
		if dest == self {
			c.localRun.add(li, m, size)
			continue
		}
		if len(lists[dest]) == 0 {
			dests = append(dests, dest)
		}
		lists[dest] = append(lists[dest], li)
	}
	c.dests = dests
	if len(dests) == 0 {
		return
	}
	c.body = w.codec.Append(c.body[:0], m)
	for _, dest := range dests {
		c.multicast(int(dest), lists[dest], c.body)
		lists[dest] = lists[dest][:0]
	}
}

// multicast stages body for every vertex of lis, which destWorker owns, in
// order: as multicast records of at most maxMulticast indices each, and a
// lone vertex as a plain record.
func (c *Context[M]) multicast(destWorker int, lis []int32, body []byte) {
	for len(lis) > 0 {
		k := min(len(lis), maxMulticast)
		if k == 1 {
			c.appendRecord(destWorker, c.w.lay.owned[destWorker][lis[0]], body)
		} else {
			c.stageRecord(destWorker, uint32(k), uint32(len(body))|multicastFlag, int64(k), body, lis[:k])
		}
		lis = lis[k:]
	}
}

// broadcast is SendToNeighbors without a combiner, in O(workers) whatever
// the degree: one span entry in the slot's local run for the neighbours
// this worker owns, and one broadcast record, the message encoded once, for
// each other worker owning any. Each worker's merge expands the span in
// place, so every inbox receives exactly what per-edge sends would have
// left it, in the same order. A degree so large that the span could
// overflow one batch's logical size is sent per edge.
func (c *Context[M]) broadcast(m M) {
	w := c.w
	degree := int64(w.g.OutDegree(c.vertex))
	size := int64(w.codec.Size(m)) + msgWireOverhead
	if degree > maxLogicalSize/(size+transport.BatchHeaderSize) {
		c.send(c.Neighbors(), m)
		return
	}
	c.computeOps += degree
	var body []byte
	for dest := range w.numWorkers {
		span := w.lay.span(dest, w.id, c.local)
		if len(span) == 0 {
			continue
		}
		if dest == w.id {
			c.sentLocal += int64(len(span))
			c.localRun.addSpan(c.local, m, size)
			continue
		}
		if body == nil {
			c.body = w.codec.Append(c.body[:0], m)
			body = c.body
		}
		c.appendBroadcast(dest, span, body)
	}
}

// Aggregate adds v to the named aggregator's sum. The global sum is visible
// to all vertices in the *next* superstep via Agg.
func (c *Context[M]) Aggregate(name string, v float64) {
	if prev, ok := c.aggs[name]; ok {
		c.aggs[name] = prev + v
	} else {
		c.aggs[name] = v
	}
}

// Agg returns the globally reduced value of the named aggregator from the
// previous superstep, and whether any vertex contributed to it.
func (c *Context[M]) Agg(name string) (float64, bool) {
	v, ok := c.w.prevAggs[name]
	return v, ok
}

// encodeRemote serializes one wire message (post-combining, so SentRemote
// counts messages actually transferred, as the paper plots).
func (c *Context[M]) encodeRemote(destWorker int, to graph.VertexID, m M) {
	c.body = c.w.codec.Append(c.body[:0], m)
	c.appendRecord(destWorker, to, c.body)
}

// staging is a compute slot's outgoing payload for one destination worker:
// the logical size field, then wire records. Beside it, what the cost model
// bills for them: what they would have cost as one record per message under
// the flush rule per-message records were sent by.
type staging struct {
	buf   []byte // nil until a record is staged
	count int32  // messages the records carry
	// logical is the staged records' bytes as one record per message, plus
	// a batch header for each batch those records would have opened.
	logical int64
	// open is the bytes of the per-message batch being filled, which closes
	// once it reaches flushBytes; it outlives real flushes and restarts at
	// the end of each superstep's compute, as a staging buffer did.
	open int64
}

// bill charges k per-message records of rec bytes each: their bytes, plus a
// batch header for every per-message batch they open. A batch opens at a
// record staged while none is open and closes once it holds flush bytes,
// so k equal records cost O(1) whatever k.
func (s *staging) bill(k, rec, flush int64) {
	cost := k * rec
	s.logical += cost
	if s.open > 0 {
		if s.open+cost < flush {
			s.open += cost
			return
		}
		k -= (flush - s.open + rec - 1) / rec // the records that close the open batch
		s.open = 0
	}
	if k == 0 {
		return
	}
	per := (flush + rec - 1) / rec // records in a full batch
	s.logical += (k + per - 1) / per * transport.BatchHeaderSize
	s.open = k % per * rec
}

// appendRecord appends one wire record — to's header, then the encoded
// message body — to the slot's staging payload for destWorker.
func (c *Context[M]) appendRecord(destWorker int, to graph.VertexID, body []byte) {
	c.stageRecord(destWorker, uint32(to), uint32(len(body)), 1, body, nil)
}

// appendBroadcast appends one broadcast record — the sending vertex's
// header, flagged, then the encoded message body — standing for one message
// to every vertex of span, which destWorker owns.
func (c *Context[M]) appendBroadcast(destWorker int, span []int32, body []byte) {
	c.stageRecord(destWorker, uint32(c.vertex), uint32(len(body))|broadcastFlag, int64(len(span)), body, nil)
}

// stageRecord stages one record carrying k messages on the payload for
// destWorker: its header fields, body and the indices of lis (a multicast
// record's list), behind the logical size field when the payload is new. A
// record that could take the payload's logical size past maxLogicalSize
// flushes the payload first; one that takes its records to flushBytes
// flushes it after.
func (c *Context[M]) stageRecord(destWorker int, vertex, size uint32, k int64, body []byte, lis []int32) {
	rec := int64(msgWireOverhead + len(body))
	st := &c.out[destWorker]
	if st.logical+k*(rec+transport.BatchHeaderSize) > maxLogicalSize {
		c.w.flushSlotBuffer(c, destWorker)
	}
	c.sentRemote += k
	st.count += int32(k)
	st.bill(k, rec, int64(c.w.flushBytes))
	buf, at := st.buf, len(st.buf)
	n := int(rec) + listIndexLen*len(lis)
	if at == 0 {
		at = logicalSizeLen // filled in at flush
	}
	if cap(buf) < at+n {
		buf = c.w.growStaging(buf, at+n-len(buf))
	}
	buf = buf[:at+n]
	putMsgHeader(buf[at:], vertex, size)
	copy(buf[at+msgWireOverhead:], body)
	idx := buf[at+int(rec):]
	for i, li := range lis {
		binary.LittleEndian.PutUint32(idx[listIndexLen*i:], uint32(li))
	}
	st.buf = buf
	// Flush oversized buffers mid-step to bound outgoing memory ("bulk"
	// transfers in the paper are sized by a buffer threshold).
	if len(buf)-logicalSizeLen >= c.w.flushBytes {
		c.w.flushSlotBuffer(c, destWorker)
	}
}

// growStaging returns a staging payload holding buf's bytes with room for n
// more. Staging buffers become batch payloads on flush and return to the
// shared pool once the receiver decodes them, so a slot's first buffer for a
// destination is a pooled one. One that outgrows it jumps straight to the
// most a batch can hold — flushBytes, past which it is flushed, plus the
// record that takes it there — rather than doubling its way there. Without
// a combiner that record may be a multicast record of up to a few KiB, so
// the size is fixed at flushBytes plus stagingSlack: sized by the record
// that asked, a pooled buffer would be too small for a later, larger
// record, and GetPayload would drop it and allocate another. A combined
// job stages plain records only, and sizes by the record. The outgrown
// buffer is left to the garbage collector: pooled again, it would be the
// next Get's answer and be outgrown again, so the pool keeps the sizes
// batches actually reach.
func (w *worker[M]) growStaging(buf []byte, n int) []byte {
	if buf == nil {
		if buf = transport.GetPayload(0); cap(buf) >= n {
			return buf
		}
	}
	size := max(w.flushBytes, len(buf)) + n
	if w.combiner == nil {
		size = max(w.flushBytes+stagingSlack, len(buf)+n)
	}
	return append(transport.GetPayload(size)[:0], buf...)
}

const stagingSlack = 4 << 10
