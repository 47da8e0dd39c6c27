package main

import (
	"sort"
	"time"

	"pregelnet/internal/observe"
	"pregelnet/internal/transport"
)

// stampJob gives every event of one traced job — the runner's spans and the
// engine's alike — the job's id as an attribute. Jobs run back to back and
// every engine goroutine is joined before core.Run returns, so a job's
// events are a contiguous run of the recording; stamping them afterwards
// keeps the allocation out of the traced job itself.
func stampJob(events []observe.Event, job int64) {
	for i := range events {
		e := &events[i]
		e.Attrs = append(e.Attrs[:len(e.Attrs):len(e.Attrs)], observe.Int("job", job))
	}
}

// netTrack is the trace track of worker w's transport spans. Sender and
// receiver goroutines run concurrently with the worker's compute, so their
// spans get a track of their own instead of overlapping the engine's.
func netTrack(w int) int { return 100 + w }

// tracedNetwork decorates a data plane with one span per Send and per Recv.
// It must be invisible to the engine: every optional capability the engine
// probes for is forwarded, above all SendCopier — hiding it would flip
// payload ownership and make the traced run a different program.
type tracedNetwork struct {
	inner  transport.Network
	tracer *observe.Tracer
}

func (n *tracedNetwork) NumWorkers() int { return n.inner.NumWorkers() }

func (n *tracedNetwork) Endpoint(w int) (transport.Endpoint, error) {
	ep, err := n.inner.Endpoint(w)
	if err != nil {
		return nil, err
	}
	return &tracedEndpoint{inner: ep, track: netTrack(w), tracer: n.tracer}, nil
}

func (n *tracedNetwork) Close() error { return n.inner.Close() }

// SetObserver implements transport.Observable (a no-op when the inner
// network is not observable, which is what the engine would have seen).
func (n *tracedNetwork) SetObserver(o transport.Observer) {
	if ob, ok := n.inner.(transport.Observable); ok {
		ob.SetObserver(o)
	}
}

// SetSendFault implements transport.FaultInjectable.
func (n *tracedNetwork) SetSendFault(f transport.FaultFunc) {
	if fi, ok := n.inner.(transport.FaultInjectable); ok {
		fi.SetSendFault(f)
	}
}

type tracedEndpoint struct {
	inner  transport.Endpoint
	track  int
	tracer *observe.Tracer
}

func (e *tracedEndpoint) Send(b *transport.Batch) error {
	// Read the batch before sending: the channel transport hands it to the
	// receiver by reference, so it is no longer ours once Send returns.
	step, wire, msgs := int(b.Superstep), b.WireSize(), int64(b.Count)
	span := e.tracer.Start(kindSend, e.track, step)
	err := e.inner.Send(b)
	if span.Active() && err == nil {
		span.End(observe.Int("bytes", wire), observe.Int("msgs", msgs))
	}
	return err
}

func (e *tracedEndpoint) Recv() (*transport.Batch, error) {
	span := e.tracer.Start(kindRecv, e.track, -1)
	b, err := e.inner.Recv()
	if err == nil {
		span.End()
	}
	return b, err
}

func (e *tracedEndpoint) ResetPeers() error { return e.inner.ResetPeers() }
func (e *tracedEndpoint) Close() error      { return e.inner.Close() }

// SendCopiesPayload implements transport.SendCopier by asking the inner
// endpoint; one without the capability hands payloads off by reference.
func (e *tracedEndpoint) SendCopiesPayload() bool {
	sc, ok := e.inner.(transport.SendCopier)
	return ok && sc.SendCopiesPayload()
}

// Blocking attribution. Each instant of core.Run is charged to exactly one
// engine span kind: the highest-ranked kind with a span open on any track
// at that instant. Work outranks waiting, so a wait is only charged the
// time nobody's work explains, and the charges add up to the run (what is
// left is core.unattributed_frac). This is the critical path read off the
// wall clock rather than per-worker sums, which would count a worker's
// wait for its peer and the peer's compute twice.
var attribution = []struct {
	metric string
	kinds  []observe.Kind
}{
	{"core.send_stall_s", []observe.Kind{observe.KindSendStall}},
	{"core.restore_s", []observe.Kind{observe.KindRestore}},
	{"core.replay_s", []observe.Kind{observe.KindReplay}},
	{"core.migrate_s", []observe.Kind{observe.KindMigrate}},
	{"core.checkpoint_s", []observe.Kind{observe.KindCheckpoint}},
	{"core.compute_s", []observe.Kind{observe.KindCompute}},
	{"core.outbox_flush_s", []observe.Kind{observe.KindOutboxFlush}},
	{"core.barrier_wait_s", []observe.Kind{observe.KindBarrierWait}},
	{"core.resize_s", []observe.Kind{observe.KindScaleOut, observe.KindScaleIn}},
	{"core.barrier_collect_s", []observe.Kind{observe.KindBarrierCollect}},
	{"cloud.queue_wait_s", []observe.Kind{observe.KindQueueWait}},
}

// traceSummary is what one traced job's events reduce to.
type traceSummary struct {
	runS        float64
	attributed  map[string]float64 // attribution metric -> seconds
	stepMs      []float64          // bench.superstep durations
	sendS       float64
	sendCalls   int
	wireBytes   int64
	recvBatches int
	events      int
}

func summarize(events []observe.Event, job int64) traceSummary {
	rank := make(map[observe.Kind]int)
	for i, a := range attribution {
		for _, k := range a.kinds {
			rank[k] = i
		}
	}
	type edge struct {
		at    time.Duration
		rank  int
		delta int
	}
	var (
		ts           = traceSummary{attributed: make(map[string]float64)}
		edges        []edge
		runLo, runHi time.Duration // the bench.run span: the window attributed
	)
	for i := range events {
		e := &events[i]
		if id, _ := e.Attr("job"); id != job {
			continue
		}
		ts.events++
		switch e.Kind {
		case kindRun:
			ts.runS = e.Dur.Seconds()
			runLo, runHi = e.Start, e.Start+e.Dur
		case kindSuperstep:
			ts.stepMs = append(ts.stepMs, float64(e.Dur)/float64(time.Millisecond))
		case kindSend:
			ts.sendS += e.Dur.Seconds()
			ts.sendCalls++
			if v, ok := e.Attr("bytes"); ok {
				ts.wireBytes += v.(int64)
			}
		case kindRecv:
			ts.recvBatches++
		}
		if r, ok := rank[e.Kind]; ok && e.Dur > 0 {
			edges = append(edges, edge{e.Start, r, +1}, edge{e.Start + e.Dur, r, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	open := make([]int, len(attribution))
	prev := runLo
	for _, ed := range edges {
		at := min(max(ed.at, runLo), runHi)
		if at > prev {
			for r := range open {
				if open[r] > 0 {
					ts.attributed[attribution[r].metric] += (at - prev).Seconds()
					break
				}
			}
			prev = at
		}
		open[ed.rank] += ed.delta
	}
	return ts
}
