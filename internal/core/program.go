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
// per-traversal distance/sigma/delta maps).
type StateReporter interface {
	StateBytes() int64
}

// AggOp is the reduction applied to a named aggregator across vertices and
// workers within a superstep.
type AggOp int

const (
	// AggSum adds contributions (the default for unregistered names).
	AggSum AggOp = iota
	// AggMin keeps the minimum contribution.
	AggMin
	// AggMax keeps the maximum contribution.
	AggMax
)

func (op AggOp) combine(a, b float64) float64 {
	switch op {
	case AggMin:
		if b < a {
			return b
		}
		return a
	case AggMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
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
	outRemoteBuf [][]byte // per destination worker, nil until used
	outRemoteCnt []int32
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
func (c *Context[M]) Send(to graph.VertexID, m M) {
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
	c.encodeRemote(dest, to, m)
}

// SendToNeighbors delivers m to every out-neighbor of the current vertex.
func (c *Context[M]) SendToNeighbors(m M) {
	for _, v := range c.Neighbors() {
		c.Send(v, m)
	}
}

// Aggregate contributes a value to the named aggregator. The reduced global
// value is visible to all vertices in the *next* superstep via Agg.
func (c *Context[M]) Aggregate(name string, v float64) {
	if prev, ok := c.aggs[name]; ok {
		c.aggs[name] = c.w.aggOp(name).combine(prev, v)
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
	c.sentRemote++
	buf := c.outRemoteBuf[destWorker]
	if buf == nil {
		// Staging buffers become batch payloads on flush and return to the
		// shared pool once the receiver decodes them.
		buf = transport.GetPayload(0)
	}
	buf = appendMsgHeader(buf, to, c.w.codec.Size(m))
	buf = c.w.codec.Append(buf, m)
	c.outRemoteBuf[destWorker] = buf
	c.outRemoteCnt[destWorker]++
	// Flush oversized buffers mid-step to bound outgoing memory ("bulk"
	// transfers in the paper are sized by a buffer threshold).
	if len(buf) >= c.w.flushBytes {
		c.w.flushSlotBuffer(c, destWorker)
	}
}
