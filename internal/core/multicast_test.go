package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// addUint32 sums uint32 messages, wrapping: exact, so its fold order cannot
// show in the result.
type addUint32 struct{}

func (addUint32) Combine(a, b uint32) uint32 { return a + b }

// multicastJob sends, from every vertex in each of its first sendSteps
// supersteps, a few lists of destinations — one message per list — and
// records every inbox it computes.
type multicastJob struct {
	workers   int
	assign    partition.Assignment
	owned     [][]graph.VertexID
	sendSteps int
}

const multicastSendSteps = 4

func newMulticastJob(n, workers int) *multicastJob {
	j := &multicastJob{workers: workers, assign: make(partition.Assignment, n), sendSteps: multicastSendSteps}
	for v := range j.assign {
		j.assign[v] = int32(v * 7 % workers)
	}
	j.owned = ownedLists(j.assign, workers)
	return j
}

// lists returns the destination lists vertex v sends in superstep step:
// one kind per (v+step) mod 6, so each superstep mixes them all. Every
// list names the same vertices whatever the job's worker count.
func (j *multicastJob) lists(v graph.VertexID, step int) [][]graph.VertexID {
	me := int(j.assign[v])
	pick := func(w, i int) graph.VertexID { own := j.owned[w]; return own[(int(v)+i)%len(own)] }
	local := func(i int) graph.VertexID { return pick(me, i) }
	remote := func(k, i int) graph.VertexID { return pick((me+k)%j.workers, i) }
	switch (int(v) + step) % 6 {
	case 0: // local only
		return [][]graph.VertexID{{local(0), local(1), local(3), local(2)}}
	case 1: // remote only, to both other workers
		return [][]graph.VertexID{{remote(1, 0), remote(2, 0), remote(1, 1), remote(2, 3), remote(1, 2)}}
	case 2: // mixed, then a second message to an overlapping list
		n := len(j.assign)
		mixed := make([]graph.VertexID, 0, 8)
		for i := 1; i <= 8; i++ {
			mixed = append(mixed, graph.VertexID((int(v)+i*5)%n))
		}
		return [][]graph.VertexID{mixed, mixed[2:6]}
	case 3: // duplicates
		return [][]graph.VertexID{{remote(1, 0), remote(1, 0), local(0), remote(1, 0), local(0), remote(2, 1), remote(2, 1)}}
	case 4: // empty, then one remote vertex alone
		return [][]graph.VertexID{nil, {remote(1, 4)}}
	default: // longer than one record: 2001 vertices of one peer behind a few local ones
		long := make([]graph.VertexID, 0, 2007)
		for i := range 2007 {
			if i%400 == 0 {
				long = append(long, local(i))
			} else {
				long = append(long, remote(1, i))
			}
		}
		return [][]graph.VertexID{long}
	}
}

// program is the job's vertex program: sendToAll picks SendToAll or one
// Send per element. got[w][step][li] is the inbox worker w's vertex li
// computed in step.
func (j *multicastJob) program(sendToAll bool, got [][][][]uint32) func(int, *graph.Graph, []graph.VertexID) VertexProgram[uint32] {
	return func(worker int, _ *graph.Graph, owned []graph.VertexID) VertexProgram[uint32] {
		inboxes := make([][][]uint32, j.sendSteps+1)
		for s := range inboxes {
			inboxes[s] = make([][]uint32, len(owned))
		}
		got[worker] = inboxes
		return computeFunc[uint32](func(ctx *Context[uint32], msgs []uint32) {
			s, v := ctx.Superstep(), ctx.Vertex()
			inboxes[s][ctx.LocalIndex()] = slices.Clone(msgs)
			if s >= j.sendSteps {
				ctx.VoteToHalt()
				return
			}
			for k, dsts := range j.lists(v, s) {
				m := uint32(v)<<8 | uint32(s)<<4 | uint32(k)
				if sendToAll {
					ctx.SendToAll(dsts, m)
					continue
				}
				for _, to := range dsts {
					ctx.Send(to, m)
				}
			}
		})
	}
}

// TestSendToAllMatchesSends runs the same job with SendToAll and with a
// Send per destination: lists that are local only, remote only, mixed,
// with duplicates, empty, of one remote vertex, and of 2001 vertices of
// one peer (two full multicast records and a plain one). Over the channel
// and the TCP network, with and without a combiner, at one and three
// compute slots, every inbox of every superstep must hold the same
// messages in the same order, and every superstep the same message counts,
// compute ops, logical bytes billed, memory peaks and simulated time. At
// three slots a peer's slots interleave their batches by arrival, so there
// an inbox is compared in sender order (stable, keeping each sender's
// messages in the order it sent them).
func TestSendToAllMatchesSends(t *testing.T) {
	const n, workers = 60, 3
	j := newMulticastJob(n, workers)
	for _, network := range []struct {
		name    string
		factory func(int) (transport.Network, error)
	}{{"channel", nil}, {"tcp", tcpNetwork}} {
		for _, comb := range []Combiner[uint32]{nil, addUint32{}} {
			for _, slots := range []int{1, 3} {
				name := fmt.Sprintf("%s/combiner=%v/slots=%d", network.name, comb != nil, slots)
				t.Run(name, func(t *testing.T) {
					run := func(sendToAll bool) (*JobResult[uint32], [][][][]uint32) {
						got := make([][][][]uint32, workers)
						res, err := Run(JobSpec[uint32]{
							Graph: graph.Ring(n), NumWorkers: workers, Assignment: j.assign,
							Codec: Uint32Codec{}, Combiner: comb, ActivateAll: true,
							ComputeParallelism: slots, NetworkFactory: network.factory,
							NewProgram: j.program(sendToAll, got),
						})
						if err != nil {
							t.Fatal(err)
						}
						if slots > 1 && comb == nil {
							for _, steps := range got {
								for _, inboxes := range steps {
									for _, msgs := range inboxes {
										slices.SortStableFunc(msgs, func(a, b uint32) int { return int(a>>8) - int(b>>8) })
									}
								}
							}
						}
						return res, got
					}
					res, got := run(true)
					ref, want := run(false)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("inboxes differ:\nSendToAll %v\nSend      %v", got, want)
					}
					if len(res.Steps) != len(ref.Steps) || len(res.Steps) != j.sendSteps+1 {
						t.Fatalf("%d supersteps with SendToAll, %d with Send, want %d", len(res.Steps), len(ref.Steps), j.sendSteps+1)
					}
					msgs := int64(0)
					for s := range res.Steps {
						a, b := &res.Steps[s], &ref.Steps[s]
						for _, c := range []struct {
							what     string
							got, ref any
						}{
							{"local messages", a.SentLocal, b.SentLocal},
							{"remote messages", a.SentRemote, b.SentRemote},
							{"compute ops", a.ComputeOps, b.ComputeOps},
							{"logical bytes", a.RemoteBytes, b.RemoteBytes},
							{"memory peak", a.PeakMemoryBytes, b.PeakMemoryBytes},
							{"messages per worker", a.WorkerSent, b.WorkerSent},
							{"simulated seconds", a.SimSeconds, b.SimSeconds},
						} {
							if !reflect.DeepEqual(c.got, c.ref) {
								t.Errorf("superstep %d: %s %v with SendToAll, %v with Send", s, c.what, c.got, c.ref)
							}
						}
						msgs += a.SentRemote
					}
					if msgs == 0 {
						t.Fatal("no remote messages")
					}
				})
			}
		}
	}
}

// TestSendToAllRecords: a list of 2007 vertices, 2001 of them one peer's
// and 6 local, leaves that peer two multicast records of maxMulticast
// vertices each and a plain record for the last one, with the message
// encoded once behind each, and 6 local messages in the slot's run.
func TestSendToAllRecords(t *testing.T) {
	j := newMulticastJob(60, 3)
	spec := JobSpec[uint32]{Graph: graph.Ring(60), NumWorkers: 3, Assignment: j.assign, Codec: Uint32Codec{},
		NewProgram: idleProgram[uint32]}
	s, err := spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewChannelNetwork(3, 64)
	defer net.Close()
	w := testWorker(t, &s, net, 0)
	ctx := w.slotContext(0)
	v := j.owned[0][0]
	ctx.vertex, ctx.local = v, 0
	ctx.SendToAll(j.lists(v, 5-int(v)%6)[0], 42)
	w.finishSlot(ctx)
	var kinds []string
	for _, b := range drainBatches(w)[1] {
		data := b.Payload[logicalSizeLen:]
		for len(data) > 0 {
			k, size := readMsgHeader(data)
			body := size &^ recordFlags
			if m := binary.LittleEndian.Uint32(data[msgWireOverhead:]); m != 42 {
				t.Fatalf("a record carries %d, want 42", m)
			}
			if size&multicastFlag == 0 {
				kinds = append(kinds, "plain")
				data = data[msgWireOverhead+body:]
				continue
			}
			kinds = append(kinds, fmt.Sprintf("multicast of %d", k))
			data = data[msgWireOverhead+body+listIndexLen*int(k):]
		}
	}
	if want := []string{"multicast of 1000", "multicast of 1000", "plain"}; !slices.Equal(kinds, want) {
		t.Errorf("records %v, want %v", kinds, want)
	}
	if ctx.localRun.msgs != 6 || w.statSentLocal.Load() != 6 || w.statSentRemote.Load() != 2001 || w.statComputeOps.Load() != 2007 {
		t.Errorf("local run %d, counted %d local and %d remote messages and %d ops; want 6, 6, 2001, 2007",
			ctx.localRun.msgs, w.statSentLocal.Load(), w.statSentRemote.Load(), w.statComputeOps.Load())
	}
}
