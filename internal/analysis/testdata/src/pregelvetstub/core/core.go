// Package core is a fixture stub mirroring the compute-context surface the
// ctxescape, mapiter, blockingcompute, and goroleak analyzers key on:
// generic Context/PartitionContext with the Send/Aggregate entry points and
// the engine-owned views (Messages, Neighbors, Active). Matching is by
// package-path suffix and type/method name, so this stub exercises the same
// code paths as the real pregelnet/internal/core.
package core

// VertexID mirrors graph.VertexID for stub self-containment.
type VertexID int64

// Context mirrors the per-vertex compute API handed to VertexProgram.Compute.
type Context[M any] struct {
	msgs      []M
	neighbors []VertexID
}

func (c *Context[M]) Superstep() int                   { return 0 }
func (c *Context[M]) Vertex() VertexID                 { return 0 }
func (c *Context[M]) Neighbors() []VertexID            { return c.neighbors }
func (c *Context[M]) Send(to VertexID, m M)            {}
func (c *Context[M]) SendToAll(dsts []VertexID, m M)   {}
func (c *Context[M]) SendToNeighbors(m M)              {}
func (c *Context[M]) Aggregate(name string, v float64) {}
func (c *Context[M]) Agg(name string) (float64, bool)  { return 0, false }
func (c *Context[M]) VoteToHalt()                      {}

// PartitionContext mirrors the whole-partition compute API handed to
// PartitionProgram.ComputePartition.
type PartitionContext[M any] struct {
	msgs   [][]M
	active []int32
}

func (pc *PartitionContext[M]) Superstep() int                   { return 0 }
func (pc *PartitionContext[M]) NumLocal() int                    { return 0 }
func (pc *PartitionContext[M]) VertexAt(li int32) VertexID       { return 0 }
func (pc *PartitionContext[M]) Messages(li int32) []M            { return pc.msgs[li] }
func (pc *PartitionContext[M]) Neighbors(v VertexID) []VertexID  { return nil }
func (pc *PartitionContext[M]) Active() []int32                  { return pc.active }
func (pc *PartitionContext[M]) Send(to VertexID, m M)            {}
func (pc *PartitionContext[M]) Aggregate(name string, v float64) {}
func (pc *PartitionContext[M]) VoteToHalt(li int32)              {}
