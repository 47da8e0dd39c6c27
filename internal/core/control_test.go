package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/transport"
)

// collectorManager is a bare manager over a real cloud.Queue: all collect
// needs is the worker count, the deadline, and the barrier queue.
func collectorManager(workers int, timeout time.Duration) *manager[uint32] {
	return &manager[uint32]{
		spec:     &JobSpec[uint32]{NumWorkers: workers, BarrierTimeout: timeout},
		barrierQ: cloud.NewQueue("barrier"),
		ins:      newJobInstruments(nil, nil),
	}
}

func putCheckIn(t *testing.T, q *cloud.Queue, msg barrierMsg) {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	q.Put(body)
}

// TestCollectDropsLeftovers drives the one collector once per protocol step
// over a queue pre-loaded with at-least-once leftovers: a check-in of every
// other kind, a stale epoch, a wrong superstep, and a duplicate of a wanted
// check-in. Exactly the wanted check-ins reach the callback, once each, and
// every leftover is counted and deleted.
func TestCollectDropsLeftovers(t *testing.T) {
	const superstep, epoch = 5, 2
	allKinds := []kind{kindStep, kindRestore, kindMigrate, kindReplay, kindHalt}
	rows := []struct {
		name   string
		want   []bool // nil = every worker
		expect func(w int) kind
	}{
		{"barrier", nil, func(int) kind { return kindStep }},
		{"restore", []bool{true, false, true}, func(int) kind { return kindRestore }},
		{"migrate", nil, func(int) kind { return kindMigrate }},
		// Worker 0 failed and re-executes (a step check-in); survivors ack
		// the replay.
		{"replay", nil, func(w int) kind {
			if w == 0 {
				return kindStep
			}
			return kindReplay
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := collectorManager(3, 5*time.Second)
			q := m.barrierQ
			wanted := func(w int) barrierMsg {
				return barrierMsg{Kind: row.expect(w), Worker: w, Superstep: superstep,
					Epoch: epoch, SentRemote: int64(100 + w)}
			}
			var wantDropped int64
			leftover := func(msg barrierMsg) {
				putCheckIn(t, q, msg)
				wantDropped++
			}
			for _, k := range allKinds {
				if k != row.expect(0) {
					msg := wanted(0)
					msg.Kind = k
					leftover(msg)
				}
			}
			stale := wanted(2)
			stale.Epoch = epoch - 1
			leftover(stale)
			early := wanted(2)
			early.Superstep = superstep - 1
			leftover(early)
			putCheckIn(t, q, wanted(0))
			leftover(wanted(0)) // duplicate
			var accepted []int
			for w := 1; w < 3; w++ {
				if row.want != nil && !row.want[w] {
					leftover(wanted(w)) // not asked
					continue
				}
				accepted = append(accepted, w)
				putCheckIn(t, q, wanted(w))
			}
			accepted = append([]int{0}, accepted...)

			var got []int
			dropped, missing, err := m.collect(row.name, superstep, epoch, row.want, row.expect,
				func(msg barrierMsg) error {
					if msg.Kind != row.expect(msg.Worker) || msg.SentRemote != int64(100+msg.Worker) {
						t.Errorf("callback got %+v", msg)
					}
					got = append(got, msg.Worker)
					return nil
				})
			if err != nil || missing != nil {
				t.Fatalf("collect: err=%v missing=%v", err, missing)
			}
			if !reflect.DeepEqual(got, accepted) {
				t.Errorf("accepted workers %v, want %v", got, accepted)
			}
			if dropped != wantDropped {
				t.Errorf("dropped = %d, want %d", dropped, wantDropped)
			}
			if st := q.Stats(); st.Depth != 0 || st.Leased != 0 {
				t.Errorf("queue not drained: depth %d leased %d", st.Depth, st.Leased)
			}
		})
	}
}

// TestCollectNamesSilentWorker: a worker that never checks in fails the
// collection at the deadline, and the error names exactly that worker.
func TestCollectNamesSilentWorker(t *testing.T) {
	m := collectorManager(3, 50*time.Millisecond)
	putCheckIn(t, m.barrierQ, barrierMsg{Worker: 0, Superstep: 7})
	putCheckIn(t, m.barrierQ, barrierMsg{Worker: 2, Superstep: 7})
	start := time.Now()
	_, missing, err := m.collect("barrier check-ins", 7, 0, nil,
		func(int) kind { return kindStep }, func(barrierMsg) error { return nil })
	if err == nil {
		t.Fatal("collect succeeded without worker 1")
	}
	if !reflect.DeepEqual(missing, []int{1}) {
		t.Errorf("missing = %v, want [1]", missing)
	}
	const want = "timeout waiting for barrier check-ins at superstep 7 (2/3): missing workers [1]"
	if err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("collect waited %v past a 50ms deadline", waited)
	}
}

// TestCollectRejectsMalformed: an out-of-range worker ID or an undecodable
// body is a protocol error, not a leftover.
func TestCollectRejectsMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"unknown worker":  `{"w":3,"s":0}`,
		"negative worker": `{"w":-1,"s":0}`,
		"unknown kind":    `{"k":9,"w":0,"s":0}`,
		"undecodable":     `{"w":0,"s":`,
	} {
		t.Run(name, func(t *testing.T) {
			m := collectorManager(3, 5*time.Second)
			m.barrierQ.Put([]byte(body))
			_, _, err := m.collect("barrier check-ins", 0, 0, nil,
				func(int) kind { return kindStep }, func(barrierMsg) error { return nil })
			if err == nil || !strings.HasPrefix(err.Error(), "barrier check-ins: ") {
				t.Errorf("collect(%s) err = %v, want a named protocol error", body, err)
			}
		})
	}
}

// TestWorkerRejectsForeignInjection: a step token naming a vertex outside
// the graph is a failed check-in, not an index panic in the worker.
func TestWorkerRejectsForeignInjection(t *testing.T) {
	g := graph.Ring(8)
	spec := ckptSpec(g, 2, 0)
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChannelNetwork(2, 64)
	defer net.Close()
	w := testWorker(t, &s, net, 0)
	w.runSuperstep(&stepToken{Superstep: 0, Injections: []graph.VertexID{99}})
	lease := w.barrierQ.Get(time.Second)
	if lease == nil {
		t.Fatal("no check-in")
	}
	msg, err := decodeCheckIn(lease.Body, 2)
	if err != nil || !strings.Contains(msg.Err, "injection 99 not owned") {
		t.Errorf("check-in %+v (decode err %v), want a failed check-in naming vertex 99", msg, err)
	}
}

// FuzzControlMessages feeds arbitrary bytes through both control-plane
// decoders: the collector's check-in decode-and-validate step and the
// worker's step-token decode. Neither may panic, and anything accepted must
// survive a json.Marshal round trip. Round trips compare re-marshalled
// bytes, not structs: `"inj":[]` decodes to an empty slice that omitempty
// then drops, so the marshalled form — not the first decode — is the
// fixed point.
func FuzzControlMessages(f *testing.F) {
	tokens := []stepToken{
		{Superstep: 3, Injections: []graph.VertexID{1, 9}, Aggregates: map[string]float64{"delta": 0.25},
			Checkpoint: true, LastCkpt: 2},
		{Kind: kindRestore, Superstep: 2, Epoch: 4},
		{Kind: kindMigrate, Superstep: 11},
		{Kind: kindReplay, Superstep: 6, Epoch: 5, Failed: []int{1}, LastCkpt: 4},
		{Kind: kindHalt},
	}
	checkIns := []barrierMsg{
		{Worker: 1, Superstep: 3, Active: 10, ActiveAfter: 4, SentLocal: 7, SentRemote: 9, BytesOut: 120,
			BytesIn: 80, PeakMemory: 4096, ComputeOps: 17, Peers: 1, Aggregates: map[string]float64{"n": 3},
			Retries: 2, Epoch: 1},
		{Kind: kindRestore, Worker: 0, Superstep: 2, Epoch: 4, Err: "corrupt checkpoint header"},
		{Kind: kindMigrate, Worker: 2, Superstep: 11, MigratedBytes: 65536},
		{Kind: kindReplay, Worker: 0, Superstep: 6, SentRemote: 12, BytesOut: 300, Epoch: 5},
	}
	var seeds [][]byte
	for _, tok := range tokens {
		body, _ := json.Marshal(tok)
		seeds = append(seeds, body)
	}
	for _, msg := range checkIns {
		body, _ := json.Marshal(msg)
		seeds = append(seeds, body)
	}
	for _, body := range seeds {
		seeds = append(seeds, body[:len(body)/2]) // truncated
	}
	for _, garbage := range []string{"", "null", "[]", "{", `{"k":300}`, `{"s":1e400}`,
		`{"w":-1,"s":0}`, `{"inj":[-1]}`, `{"agg":{"x":"NaN"}}`, "\x00\xff\xfe"} {
		seeds = append(seeds, []byte(garbage))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	const workers = 4
	f.Fuzz(func(t *testing.T, body []byte) {
		if tok, err := decodeStepToken(body); err == nil {
			roundTrip(t, tok, decodeStepToken)
		}
		if msg, err := decodeCheckIn(body, workers); err == nil {
			if msg.Worker < 0 || msg.Worker >= workers {
				t.Fatalf("accepted check-in from worker %d of %d", msg.Worker, workers)
			}
			roundTrip(t, msg, func(b []byte) (barrierMsg, error) { return decodeCheckIn(b, workers) })
		}
	})
}

func roundTrip[T any](t *testing.T, v T, decode func([]byte) (T, error)) {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted message does not marshal: %v", err)
	}
	again, err := decode(out)
	if err != nil {
		t.Fatalf("re-decoding %s: %v", out, err)
	}
	if out2, _ := json.Marshal(again); !bytes.Equal(out, out2) {
		t.Fatalf("round trip changed the message:\n%s\n%s", out, out2)
	}
}
