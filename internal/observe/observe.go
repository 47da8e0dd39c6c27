// Package observe is the engine's observability subsystem: a low-overhead
// structured event tracer with typed spans (supersteps, barrier waits, swath
// decisions, checkpoint/restore, retries, injected faults, transport
// flushes), a bounded ring-buffer flight recorder that survives job failure,
// exporters for JSONL and the Chrome trace_event format (open dumps in
// chrome://tracing or Perfetto), and a Prometheus-style metrics registry for
// live exposition over HTTP.
//
// Everything is nil-safe: a nil *Tracer or *Metrics disables the subsystem
// at (near) zero cost, so the engine instruments unconditionally and callers
// opt in by setting JobSpec.Tracer / JobSpec.Metrics.
package observe

import (
	"sync"
	"time"
)

// Kind is the event taxonomy. Each kind maps to one engine phase or
// substrate action; exporters use it as the trace category.
type Kind string

// Event kinds emitted by the instrumented engine.
const (
	// KindJob spans a whole job: Run entry to exit.
	KindJob Kind = "job"
	// KindSuperstep spans one manager-side superstep: token send to barrier
	// completion and pricing.
	KindSuperstep Kind = "superstep"
	// KindCompute spans one worker's compute+flush phase of a superstep.
	KindCompute Kind = "compute"
	// KindBarrierWait spans a worker waiting for peer sentinels (BSP barrier
	// condition 2: all messages delivered).
	KindBarrierWait Kind = "barrier_wait"
	// KindDeliver spans a worker's barrier merge: its staged and received
	// messages turned into the next superstep's inbox.
	KindDeliver Kind = "deliver"
	// KindBarrierCollect spans the manager collecting worker check-ins.
	KindBarrierCollect Kind = "barrier_collect"
	// KindSwath marks a swath scheduler decision: how many sources were
	// injected before a superstep.
	KindSwath Kind = "swath"
	// KindCheckpoint spans a worker snapshotting state to the blob store.
	KindCheckpoint Kind = "checkpoint"
	// KindRestore spans a worker rolling back to a checkpoint.
	KindRestore Kind = "restore"
	// KindRollback spans the manager-side recovery: restore tokens out to
	// all acks in.
	KindRollback Kind = "rollback"
	// KindRetry marks one transient-fault retry attempt (blob, queue, or
	// transport operation).
	KindRetry Kind = "retry"
	// KindFault marks a fault injected by the chaos layer.
	KindFault Kind = "fault"
	// KindVMRestart marks a fabric-initiated VM restart.
	KindVMRestart Kind = "vm_restart"
	// KindFlush marks one bulk-transfer batch leaving a worker.
	KindFlush Kind = "flush"
	// KindReconnect marks a data-plane reconnect after a send failure.
	KindReconnect Kind = "reconnect"
	// KindQueueWait spans a blocking control-plane queue Get.
	KindQueueWait Kind = "queue_wait"
	// KindSendStall spans a compute goroutine blocked enqueueing a batch onto
	// a full per-destination outbox (data-plane backpressure).
	KindSendStall Kind = "send_stall"
	// KindScaleOut spans a live elastic scale-out at a superstep barrier:
	// migrate tokens out through the last worker's migration ack.
	KindScaleOut Kind = "scale_out"
	// KindScaleIn spans a live elastic scale-in at a superstep barrier.
	KindScaleIn Kind = "scale_in"
	// KindMigrate spans one worker writing its migration blob during a live
	// resize.
	KindMigrate Kind = "migrate"
	// KindRepartition marks the layout decision of a live resize: the
	// strategy used (incremental delta vs. full reshuffle), the vertices
	// whose owner changed, and the billed moved bytes.
	KindRepartition Kind = "repartition"
	// KindOutboxFlush spans a worker's end-of-superstep flush-and-drain of
	// all per-destination outboxes (sentinel broadcast included).
	KindOutboxFlush Kind = "outbox_flush"
	// KindReplay spans one survivor replaying its logged outbound batches for
	// one superstep into the recovering workers during confined recovery.
	KindReplay Kind = "replay"
	// KindPreempt spans a barrier preemption: migrate tokens out through the
	// last worker's migration ack, after which the segment halts and the job
	// suspends for a later bit-identical resume.
	KindPreempt Kind = "preempt"
)

// ManagerWorker is the Worker value for manager/job-level events.
const ManagerWorker = -1

// attrKind discriminates the Attr union.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrStr
	attrFloat
)

// Attr is one typed key/value attribute on an event. The value is an inline
// union (no interface boxing) so building attributes does not allocate
// beyond the slice that carries them.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

// Int returns an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// Str returns a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: attrStr, s: v} }

// Float returns a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// Value returns the attribute's value as int64, string, or float64.
func (a Attr) Value() any {
	switch a.kind {
	case attrStr:
		return a.s
	case attrFloat:
		return a.f
	default:
		return a.i
	}
}

// Event is one trace record. Instant events have Dur == 0; spans carry the
// measured duration. Start is relative to the tracer's epoch so traces are
// self-contained and diffable.
type Event struct {
	// Seq is a tracer-wide monotonic sequence number (1-based): the total
	// order in which events were committed, independent of clock resolution.
	Seq uint64
	// Kind is the event's type in the taxonomy above.
	Kind Kind
	// Worker is the emitting worker ID, or ManagerWorker (-1) for
	// manager/job-level events.
	Worker int
	// Superstep is the superstep the event belongs to (-1 if none).
	Superstep int
	// Start is the event start time relative to the tracer epoch.
	Start time.Duration
	// Dur is the span duration (0 for instant events).
	Dur time.Duration
	// Attrs are optional typed attributes.
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it exists.
func (e *Event) Attr(key string) (any, bool) {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value(), true
		}
	}
	return nil, false
}

// Sink receives committed events. Sinks are invoked under the tracer's lock
// in sequence order, so implementations need no internal synchronization
// against other events from the same tracer.
type Sink interface {
	Write(e Event)
}

// Tracer assigns sequence numbers and timestamps to events and fans them out
// to its sinks. All methods are safe for concurrent use, and all methods on
// a nil *Tracer are no-ops, so instrumented code never branches on "is
// tracing on" — the zero value of an un-traced JobSpec costs nothing.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	seq   uint64
	sinks []Sink
}

// NewTracer creates a tracer fanning out to the given sinks. The epoch (the
// zero point of every event's Start) is the creation time.
func NewTracer(sinks ...Sink) *Tracer {
	return &Tracer{epoch: time.Now(), sinks: sinks}
}

// NewTraceRecorder is the common wiring: a tracer backed by a flight
// recorder of the given capacity (see Recorder).
func NewTraceRecorder(capacity int) (*Tracer, *Recorder) {
	rec := NewRecorder(capacity)
	return NewTracer(rec), rec
}

// Enabled reports whether events will actually be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit commits an instant event.
func (t *Tracer) Emit(kind Kind, worker, superstep int, attrs ...Attr) {
	if t == nil {
		return
	}
	t.commit(Event{Kind: kind, Worker: worker, Superstep: superstep,
		Start: time.Since(t.epoch), Attrs: attrs})
}

// Start opens a span. The returned Span is a value (no allocation); call
// End to commit it. On a nil tracer the span is inert.
func (t *Tracer) Start(kind Kind, worker, superstep int) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, kind: kind, worker: worker, superstep: superstep, start: time.Now()}
}

func (t *Tracer) commit(e Event) {
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	for _, s := range t.sinks {
		s.Write(e)
	}
	t.mu.Unlock()
}

// Span is an open trace span returned by Tracer.Start. The zero value (from
// a nil tracer) is inert.
type Span struct {
	t         *Tracer
	kind      Kind
	worker    int
	superstep int
	start     time.Time
}

// End commits the span with its measured duration and any final attributes.
// End on an inert span is a no-op.
func (s Span) End(attrs ...Attr) {
	if s.t == nil {
		return
	}
	s.t.commit(Event{Kind: s.kind, Worker: s.worker, Superstep: s.superstep,
		Start: s.start.Sub(s.t.epoch), Dur: time.Since(s.start), Attrs: attrs})
}

// Active reports whether the span will record on End.
func (s Span) Active() bool { return s.t != nil }
