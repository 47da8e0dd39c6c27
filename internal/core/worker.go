package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
	"pregelnet/internal/transport"
)

const (
	// queueMaxWait bounds a worker's idle wait for the next step token. The
	// manager closes the queues at job teardown, which unblocks waiters
	// immediately; this is only a backstop against an orphaned worker.
	queueMaxWait = 10 * time.Minute
	// queueVisibility is the control-plane lease visibility timeout: an
	// unacknowledged lease is redelivered after it.
	queueVisibility = 30 * time.Second
	// maxRecoveries bounds rollback attempts, confined or global, before the
	// job fails for good.
	maxRecoveries = 3
	// msgLogBudget bounds the in-memory window of each worker's sender-side
	// message log; closed supersteps beyond it spill to the checkpoint store.
	msgLogBudget = 8 << 20
)

// kind tags both control-plane messages with the protocol step they belong
// to. A token of each kind is answered by a check-in of the same kind —
// except a replay token, which a failed worker answers with a step check-in
// (it re-executes the superstep) — and halt, which is never answered. The
// zero value is the ordinary superstep, so step tokens and barrier check-ins
// carry no kind on the wire.
type kind uint8

const (
	kindStep kind = iota
	// kindRestore rolls a worker back to the checkpoint taken before
	// Superstep, adopting the token's Epoch.
	kindRestore
	// kindMigrate writes a vertex-granular migration blob of the state the
	// worker would carry into Superstep (live resize and preemption). The
	// worker neither computes nor mutates state, so it is idempotent under
	// duplicate delivery.
	kindMigrate
	// kindReplay is a confined-recovery replay superstep: workers listed in
	// Failed re-execute it, everyone else re-sends its logged outbound
	// batches into the failed set and suppresses compute.
	kindReplay
	// kindHalt ends the worker loop.
	kindHalt
)

// stepToken is the manager→worker control message.
type stepToken struct {
	Kind       kind               `json:"k,omitempty"`
	Superstep  int                `json:"s"`
	Injections []graph.VertexID   `json:"inj,omitempty"`
	Aggregates map[string]float64 `json:"agg,omitempty"`
	// Checkpoint asks the worker to snapshot its state before computing.
	Checkpoint bool `json:"ckpt,omitempty"`
	// Epoch is the job-wide data-plane epoch of a restore or replay token,
	// bumped by every rollback and every live resize (strictly monotonic).
	// Workers adopt it as their batch epoch and skip restore tokens for an
	// epoch they have already reached, so at-least-once token delivery
	// (duplicates, re-leases arriving after replay started) cannot roll state
	// back mid-job.
	Epoch  int   `json:"epoch,omitempty"`
	Failed []int `json:"failed,omitempty"`
	// LastCkpt is the most recent committed checkpoint superstep; workers
	// truncate their sender-side message logs below it (traffic older than
	// the checkpoint can never be replayed).
	LastCkpt int `json:"lc,omitempty"`
}

// barrierMsg is the worker→manager check-in answering one token. It carries
// the per-worker statistics the manager needs for halt detection, swath
// heuristics, cost modelling, and the paper's per-worker plots.
type barrierMsg struct {
	Kind        kind               `json:"k,omitempty"`
	Worker      int                `json:"w"`
	Superstep   int                `json:"s"`
	Active      int64              `json:"active"`
	ActiveAfter int64              `json:"after"`
	SentLocal   int64              `json:"sl"`
	SentRemote  int64              `json:"sr"` // replay: messages re-sent
	RecvRemote  int64              `json:"rr"`
	BytesOut    int64              `json:"bo"` // logical bytes (job.go); replay: bytes re-sent
	BytesIn     int64              `json:"bi"` // logical bytes
	PeakMemory  int64              `json:"mem"`
	ComputeOps  int64              `json:"ops"`
	Peers       int                `json:"peers"`
	Aggregates  map[string]float64 `json:"agg,omitempty"`
	Retries     int64              `json:"rt,omitempty"`
	Err         string             `json:"err,omitempty"`
	// MigratedBytes is the migration blob size written (resize cost model).
	MigratedBytes int64 `json:"migbytes,omitempty"`
	// Epoch is the worker's recovery epoch when it checked in. The manager
	// drops check-ins from stale epochs, so a redelivered message from an
	// aborted pre-recovery execution can never satisfy (or fail) a barrier
	// being re-collected after the rollback.
	Epoch int `json:"epoch,omitempty"`
}

// err reports a worker-side failure carried by the check-in, if any.
func (msg barrierMsg) err() error {
	if msg.Err == "" {
		return nil
	}
	return fmt.Errorf("worker %d: %s", msg.Worker, msg.Err)
}

// decodeStepToken parses a step token, rejecting unknown kinds.
func decodeStepToken(body []byte) (stepToken, error) {
	var tok stepToken
	if err := json.Unmarshal(body, &tok); err != nil {
		return tok, fmt.Errorf("bad step token: %v", err)
	}
	if tok.Kind > kindHalt {
		return tok, fmt.Errorf("bad step token: unknown kind %d", tok.Kind)
	}
	return tok, nil
}

// decodeCheckIn parses a check-in from one of n workers, rejecting unknown
// kinds and worker IDs.
func decodeCheckIn(body []byte, n int) (barrierMsg, error) {
	var msg barrierMsg
	if err := json.Unmarshal(body, &msg); err != nil {
		return msg, fmt.Errorf("bad check-in: %v", err)
	}
	if msg.Kind > kindHalt {
		return msg, fmt.Errorf("check-in of unknown kind %d", msg.Kind)
	}
	if msg.Worker < 0 || msg.Worker >= n {
		return msg, fmt.Errorf("check-in from unknown worker %d", msg.Worker)
	}
	return msg, nil
}

// outboxItem is one unit of sender work: a batch to ship (epoch stamped at
// enqueue, sequence stamped by the sender), and/or a flush request. When ack
// is non-nil the sender, after shipping the batch (if any), replies with the
// first send error accumulated since the previous flush and resets it.
type outboxItem struct {
	batch *transport.Batch
	ack   chan error
}

// outbox is one destination's bounded send queue. Exactly one sender
// goroutine drains it, which is what makes sender-side sequence stamping
// race-free: the per-destination sequence has a single writer.
type outbox struct {
	ch  chan outboxItem
	ack chan error // reusable flush ack (one flush in flight at a time)
}

// recvStream is one sender's receive-side ordering state. Per-connection TCP
// ordering is not per-*pair* ordering: redials (every superstep via
// ResetPeers, plus retry-after-failure) give the receiver several reader
// goroutines funneling into one inbox, so a fresh connection's frames can
// overtake the tail of a drained one. Batches are therefore processed
// strictly in sequence order per sender — duplicates (Seq already processed)
// are dropped, reordered frames are held in pending until the gap fills.
// Streams are scoped to the recovery epoch: rollback abandons the old stream
// entirely (senders restart at Seq 1), so a batch lost past retries in the
// aborted execution cannot stall replay.
type recvStream struct {
	epoch   int32
	next    int32 // next sequence to process (all below it are done)
	pending map[int32]*transport.Batch
}

// wakeSet is a bitset over a worker's local vertex indices that compute slots
// may set concurrently; atomic Or is what makes concurrent setters safe. It
// has two levels: words holds one bit per vertex, and sum one bit per word,
// set after any bit of that word, so a pass visits only the words that may
// hold bits. A superstep's passes then cost O(owned/4096 + woken), not
// O(owned/64): what a thin frontier on a large partition pays.
type wakeSet struct {
	words []atomic.Uint64
	sum   []atomic.Uint64
}

func newWakeSet(n int) wakeSet {
	words := (n + 63) / 64
	return wakeSet{words: make([]atomic.Uint64, words), sum: make([]atomic.Uint64, (words+63)/64)}
}

// set marks li: its bit, then, if its word was empty, the word's summary
// bit. A word is non-empty only after a setter that found it empty, or
// fill, set its summary bit, and nothing reads the set while setters run.
// The load first keeps an already-set bit from costing a locked
// read-modify-write.
func (s wakeSet) set(li int32) {
	word, bit := &s.words[li>>6], uint64(1)<<uint(li&63)
	if x := word.Load(); x&bit == 0 {
		word.Or(bit)
		if x == 0 {
			s.sum[li>>12].Or(1 << uint(li>>6&63))
		}
	}
}

// fill sets exactly the bits of local indices 0..n-1 (wake all).
func (s wakeSet) fill(n int) {
	fillBits(s.words, n)
	fillBits(s.sum, len(s.words))
}

// fillBits sets bits 0..n-1 of s and clears the rest.
func fillBits(s []atomic.Uint64, n int) {
	for i := range s {
		s[i].Store(^uint64(0))
	}
	if tail := n & 63; tail != 0 {
		s[len(s)-1].Store(1<<uint(tail) - 1)
	}
}

// eachWord calls fn, in ascending order, with the index and bits of every
// word whose summary bit is set. fn walks the bits itself: a call per word,
// not per bit, keeps a pass over a full set as cheap as a flat scan.
func (s wakeSet) eachWord(fn func(wi int, x uint64)) {
	for si := range s.sum {
		for y := s.sum[si].Load(); y != 0; y &= y - 1 {
			wi := si<<6 + bits.TrailingZeros64(y)
			fn(wi, s.words[wi].Load())
		}
	}
}

// drain is eachWord over the non-empty words that also clears the set.
// Nothing may set bits meanwhile.
func (s wakeSet) drain(fn func(wi int, x uint64)) {
	for si := range s.sum {
		y := s.sum[si].Load()
		if y == 0 {
			continue
		}
		s.sum[si].Store(0)
		for ; y != 0; y &= y - 1 {
			wi := si<<6 + bits.TrailingZeros64(y)
			if x := s.words[wi].Load(); x != 0 {
				s.words[wi].Store(0)
				fn(wi, x)
			}
		}
	}
}

type worker[M any] struct {
	id         int
	numWorkers int
	g          *graph.Graph
	codec      Codec[M]
	combiner   Combiner[M]
	fold       foldFunc[M] // the send kernel's combiner branch (kernel.go)
	flushBytes int
	// pointerFree records that M holds no pointers, decided once by
	// reflection: message buffers then skip zeroing on reset.
	pointerFree bool
	parallel    int

	lay    *layout
	owned  []graph.VertexID // lay.owned[id]
	halted []bool
	// Exactly one of program (vertex-centric) and partProg (subgraph-
	// centric) is non-nil, per the JobSpec; everything below the compute
	// phase — data plane, combiners, aggregators, checkpointing, recovery,
	// migration — is shared between the two models.
	program  VertexProgram[M]
	partProg PartitionProgram[M]
	// state is the program's StateCodec (nil if it has none; runSegment
	// rejects such a program when a feature needs it), and stateBuf the
	// state-blob buffer reused across checkpoints and migrations.
	state    StateCodec
	stateBuf []byte

	// Message path (deliver.go): the inbox compute reads, one receive run
	// per sender (written only by the receive loop), the run readState
	// stages restored and adopted messages in, and the merge's scratch.
	in       inbox[M]
	recv     []run[M]
	stateRun run[M]
	runBuf   []*run[M]
	stageBuf []*stage[M]
	// vertexTraffic counts messages delivered to each owned vertex across the
	// whole segment (local sends, counted before combining, and remote
	// receives alike). It is the per-vertex affinity signal incremental
	// repartitioning weighs edges by; a heuristic only, never consulted by
	// the compute path. Written only by the merge, so output a restore
	// discards is never counted; read at migrate time.
	vertexTraffic []int64

	// Frontier. Invariant: when a superstep starts, every vertex with pending
	// messages or !halted has its bit set in wakeCur; a set bit may be stale
	// (the vertex halted, or its wake was for nothing), so the active list is
	// the set bits filtered by the exact activity predicate. During the step,
	// setters write wakeNext only: the compute phase for every computed
	// vertex left !halted, PartitionContext.Activate, and the merge for every
	// vertex it delivers to. The barrier rotates the two. Construction and
	// restore wake every vertex, which is the only dense pass.
	wakeCur  wakeSet
	wakeNext wakeSet

	endpoint transport.Endpoint
	stepQ    *cloud.Queue
	barrierQ *cloud.Queue

	// Async data plane (paper §III background send threads): one bounded
	// outbox + sender goroutine per remote destination. Compute goroutines
	// enqueue encoded batches and never block on the network unless the
	// outbox is full (backpressure). sendCopies records whether the endpoint
	// copies payloads to the wire (TCP) — then the sender recycles the
	// buffer after a successful Send; otherwise (in-process handoff) the
	// receiver owns it.
	outboxes   []*outbox
	sendCopies bool

	// msglog is the sender-side message log backing confined recovery: every
	// data batch enqueued is copied into it, keyed by (superstep, dest), so
	// this worker can replay a failed peer's lost inputs without recomputing.
	// Nil when confined recovery is disabled.
	msglog *transport.MessageLog
	// replayFailed, non-nil only while re-executing a superstep during
	// confined recovery, marks the workers being recovered: sends to anyone
	// else (a survivor that kept its state) are logged but not delivered,
	// and sentinels go only to the failed set. Set before compute goroutines
	// start and cleared after the superstep completes, so no lock is needed.
	replayFailed []bool
	// replayEpoch/replayHandled dedupe replay tokens: re-sending logged
	// batches for an already-handled (epoch, superstep) would double-deliver
	// (fresh sequence numbers defeat receive-side dedup), so duplicates are
	// only re-acked.
	replayEpoch   int32
	replayHandled int

	ckptStore  *cloud.BlobStore
	failInject func(worker, superstep int) error

	tracer *observe.Tracer
	ins    *jobInstruments

	// Robustness state (chaos substrate).
	retry          cloud.RetryPolicy // retries transient faults; counts into statRetries
	barrierTimeout time.Duration     // sentinel-wait deadline (straggler bound)
	doneThrough    int               // highest superstep executed; duplicate step tokens ≤ this are skipped
	epoch          atomic.Int32      // recovery epoch stamped on outgoing batches at enqueue
	recvStreams    []recvStream      // per-sender ordered dedup state (receive goroutine only)
	recvInv        recvInvariants    // receive-path assertions; empty unless built with pregel_invariants
	statRetries    atomic.Int64

	superstep int
	prevAggs  map[string]float64

	// Injection set for the current superstep, as a reusable bitset guarded
	// by hasInjected (most supersteps inject nothing, so the hot-path check
	// is a single bool).
	injectedBits []uint64
	hasInjected  bool

	// Reused per-superstep scratch.
	activeBuf []int32
	slots     []*Context[M]  // per-compute-slot contexts, reused across supersteps
	slotsDone sync.WaitGroup // compute slots 1..p-1; a field, so it is not allocated per superstep

	aggMu    sync.Mutex
	stepAggs map[string]float64

	// Per-step counters (reset at step start). Receiver-side counters are
	// atomics because the receive goroutine updates them concurrently.
	statSentLocal  atomic.Int64
	statSentRemote atomic.Int64
	statBytesOut   atomic.Int64
	statComputeOps atomic.Int64
	peersContacted []atomic.Bool

	// Receive-side counters are keyed by the batch's superstep: a fast peer
	// can deliver step-s batches before this worker has even started step s,
	// so a per-step reset would race (and make BytesIn nondeterministic).
	// recvErr holds the first malformed batch of each superstep, which fails
	// that superstep's check-in.
	recvMu    sync.Mutex
	recvMsgs  map[int]int64
	recvBytes map[int]int64
	recvErr   map[int]error

	// Sentinel tracking: peers that finished sending for a given superstep.
	sentinelMu   sync.Mutex
	sentinelCond *sync.Cond
	sentinels    map[int]int
}

func newWorker[M any](spec *JobSpec[M], id int, lay *layout, ep transport.Endpoint,
	ins *jobInstruments) *worker[M] {
	owned := lay.owned[id]
	pointerFree := !hasPointers(reflect.TypeFor[M]())
	w := &worker[M]{
		id:             id,
		numWorkers:     spec.NumWorkers,
		g:              spec.Graph,
		codec:          spec.Codec,
		combiner:       spec.Combiner,
		fold:           foldKernel(spec.Combiner),
		flushBytes:     spec.FlushBytes,
		parallel:       spec.ComputeParallelism,
		lay:            lay,
		owned:          owned,
		halted:         make([]bool, len(owned)),
		pointerFree:    pointerFree,
		in:             newInbox[M](len(owned), spec.Combiner != nil, pointerFree),
		stateRun:       run[M]{pointerFree: pointerFree},
		recv:           make([]run[M], spec.NumWorkers),
		endpoint:       ep,
		stepQ:          spec.Queues.Queue(stepQueueName(spec.segment, id)),
		barrierQ:       spec.Queues.Queue(barrierQueueName(spec.segment)),
		peersContacted: make([]atomic.Bool, spec.NumWorkers),
		sentinels:      make(map[int]int),
		recvMsgs:       make(map[int]int64),
		recvBytes:      make(map[int]int64),
		recvErr:        make(map[int]error),
		barrierTimeout: spec.BarrierTimeout,
		doneThrough:    -1,
		recvStreams:    make([]recvStream, spec.NumWorkers),
		injectedBits:   make([]uint64, (len(owned)+63)/64),
		vertexTraffic:  make([]int64, len(owned)),
		wakeCur:        newWakeSet(len(owned)),
		wakeNext:       newWakeSet(len(owned)),
	}
	// Wake all: the first superstep (fresh job, or a segment adopting
	// migrated vertices) takes the one dense pass.
	w.wakeCur.fill(len(owned))
	for i := range w.recv {
		w.recv[i].pointerFree = pointerFree
		if lay.mirrors != nil {
			w.recv[i].mirror = &lay.mirrors[id][i]
		}
	}
	for i := range w.recvStreams {
		w.recvStreams[i].next = 1 // senders stamp from 1 within each epoch
	}
	w.outboxes = make([]*outbox, spec.NumWorkers)
	for dest := range w.outboxes {
		if dest == id {
			continue
		}
		w.outboxes[dest] = &outbox{
			ch:  make(chan outboxItem, spec.OutboxDepth),
			ack: make(chan error, 1),
		}
	}
	if sc, ok := ep.(transport.SendCopier); ok {
		w.sendCopies = sc.SendCopiesPayload()
	}
	w.sentinelCond = sync.NewCond(&w.sentinelMu)
	w.ckptStore = spec.CheckpointStore
	w.failInject = spec.FailureInjector
	w.replayHandled = -1
	if ins == nil {
		ins = newJobInstruments(nil, nil)
	}
	w.tracer = spec.Tracer
	w.ins = ins
	w.retry.OnRetry = func(attempt int, err error) {
		w.statRetries.Add(1)
		w.ins.retries.Inc()
		if w.tracer.Enabled() {
			w.tracer.Emit(observe.KindRetry, w.id, w.superstep,
				observe.Int("attempt", int64(attempt)), observe.Str("err", err.Error()))
		}
	}
	for i := range w.halted {
		w.halted[i] = !spec.ActivateAll
	}
	if spec.RecoveryMode == RecoverConfined && spec.CheckpointEvery > 0 && spec.CheckpointStore != nil {
		w.msglog = transport.NewMessageLog(msgLogBudget,
			&blobSpill{store: spec.CheckpointStore, retry: &w.retry},
			fmt.Sprintf("seg%02d-w%04d", spec.segment, id))
	}
	if spec.NewPartitionProgram != nil {
		w.partProg = spec.NewPartitionProgram(id, spec.Graph, owned)
	} else {
		w.program = spec.NewProgram(id, spec.Graph, owned)
	}
	w.state, _ = w.programAny().(StateCodec)
	return w
}

// run executes the worker loop until a halt token arrives or an error makes
// progress impossible. It always reports via the barrier queue so the
// manager never deadlocks.
func (w *worker[M]) run() {
	go w.receiveLoop()
	for dest, ob := range w.outboxes {
		if ob != nil {
			go w.senderLoop(dest, ob)
		}
	}
	defer w.closeOutboxes()
	for {
		waitSpan := w.tracer.Start(observe.KindQueueWait, w.id, w.doneThrough+1)
		waitStart := time.Now()
		lease := w.stepQ.GetWait(queueVisibility, queueMaxWait)
		w.ins.stepWait.Observe(time.Since(waitStart).Seconds())
		waitSpan.End()
		if lease == nil {
			return // queues closed: job torn down
		}
		tok, err := decodeStepToken(lease.Body)
		_ = w.stepQ.Delete(lease.ID) // may fail if the lease expired; dedupe below absorbs redelivery
		if err != nil {
			w.checkIn(barrierMsg{Worker: w.id, Err: err.Error()})
			return
		}
		switch tok.Kind {
		case kindHalt:
			// Release the message log (pooled buffers and spill blobs) before
			// exiting: a segment teardown or job end must not leak either.
			w.msglog.Reset(0)
			w.endpoint.Close()
			return
		case kindRestore:
			w.handleRestore(&tok)
		case kindMigrate:
			w.handleMigrate(&tok)
		case kindReplay:
			w.handleReplay(&tok)
		default: // kindStep
			if tok.Superstep <= w.doneThrough {
				// Duplicate delivery of a step token already executed (queue
				// at-least-once semantics: a re-leased or duplicated message).
				// Re-executing would double-send messages and double check in,
				// so the duplicate is acknowledged and dropped.
				continue
			}
			w.runSuperstep(&tok)
			w.doneThrough = tok.Superstep
		}
	}
}

// handleRestore rolls back to the snapshot taken before tok.Superstep. A
// token for an epoch this worker already reached is a duplicate (queue
// duplicate or expired lease redelivered after replay began) of a rollback
// it already performed: restoring again would silently revert state
// mid-job, so it is dropped.
func (w *worker[M]) handleRestore(tok *stepToken) {
	if int32(tok.Epoch) <= w.epoch.Load() {
		return
	}
	// The ack carries the token's epoch explicitly (checkIn preserves it): on
	// a FAILED restore the worker never adopted the new epoch, but the
	// collector filters on it.
	msg := barrierMsg{Kind: kindRestore, Worker: w.id, Superstep: tok.Superstep, Epoch: tok.Epoch}
	if err := w.restore(w.ckptStore, tok.Superstep, int32(tok.Epoch)); err != nil {
		msg.Err = err.Error()
	} else {
		// Replayed supersteps start at the restore target; tokens for them
		// must execute even though they were executed before the rollback.
		w.doneThrough = tok.Superstep - 1
	}
	w.checkIn(msg)
}

// handleMigrate writes the state blob for the resume superstep to the
// migrations container, plus the traffic sidecar. The chaos hook is
// consulted first — a VM restart scripted for the resume superstep kills
// the migration, which the manager absorbs by rolling back to the last
// checkpoint.
func (w *worker[M]) handleMigrate(tok *stepToken) {
	msg := barrierMsg{Kind: kindMigrate, Worker: w.id, Superstep: tok.Superstep}
	var err error
	if w.failInject != nil {
		err = w.failInject(w.id, tok.Superstep)
	}
	if err == nil {
		msg.MigratedBytes, err = w.putState(observe.KindMigrate, migrationContainer,
			migrationBlob(tok.Superstep, w.id), tok.Superstep)
	}
	if err == nil {
		w.writeTrafficSidecar(w.ckptStore, tok.Superstep)
	}
	if err != nil {
		msg.Err = err.Error()
	}
	w.checkIn(msg)
}

// handleReplay executes one confined-recovery replay superstep. A worker in
// the token's failed set re-executes the superstep (it restored from the
// checkpoint, so its state is rewound), with deliveries to survivors
// suppressed; everyone else keeps its live state and replays the superstep's
// logged outbound batches into the failed set only. Either way the worker
// checks in on the barrier queue, and a handled (epoch, superstep) is only
// re-acked on duplicate delivery.
func (w *worker[M]) handleReplay(tok *stepToken) {
	if int32(tok.Epoch) < w.epoch.Load() {
		// Leftover token from a confined attempt that was abandoned for a
		// global rollback (or any older recovery): replaying it now would
		// stamp current-epoch batches with another epoch's traffic. Drop it;
		// no collector is waiting on this epoch anymore.
		return
	}
	if int32(tok.Epoch) == w.replayEpoch && tok.Superstep <= w.replayHandled {
		w.checkIn(barrierMsg{Kind: kindReplay, Worker: w.id, Superstep: tok.Superstep})
		return
	}
	failed := make([]bool, w.numWorkers)
	amFailed := false
	for _, f := range tok.Failed {
		if f >= 0 && f < len(failed) {
			failed[f] = true
			if f == w.id {
				amFailed = true
			}
		}
	}
	if amFailed {
		// Recovering worker: re-execute. doneThrough was rewound by the
		// restore, so the ordinary superstep path runs; replayFailed gates
		// deliveries (survivors already hold this superstep's traffic) and
		// scopes the sentinel broadcast to the failed set.
		w.replayFailed = failed
		w.runSuperstep(tok)
		w.replayFailed = nil
		w.doneThrough = tok.Superstep
		w.replayEpoch, w.replayHandled = int32(tok.Epoch), tok.Superstep
		return
	}
	// Survivor: adopt the recovery epoch on the first replay token (after
	// quiescing senders, so no pre-recovery batch is stamped with the new
	// epoch), then re-send the logged batches for this superstep.
	if int32(tok.Epoch) > w.epoch.Load() {
		w.drainOutboxes()
		w.epoch.Store(int32(tok.Epoch))
	}
	span := w.tracer.Start(observe.KindReplay, w.id, tok.Superstep)
	msg := barrierMsg{Kind: kindReplay, Worker: w.id, Superstep: tok.Superstep}
	var replayMsgs, replayBytes int64
	err := w.msglog.Replay(tok.Superstep,
		func(dest int) bool { return failed[dest] && dest != w.id },
		func(dest int, payload []byte, count int) error {
			if len(payload) < logicalSizeLen {
				return fmt.Errorf("logged batch for worker %d has a %d-byte payload", dest, len(payload))
			}
			// The payload is log-owned: copy into a fresh pooled buffer the
			// send pipeline may recycle, and never PutPayload the original.
			cp := transport.GetPayload(len(payload))
			copy(cp, payload)
			replayMsgs += int64(count)
			replayBytes += logicalSize(payload)
			// Enqueue directly (not enqueueBatch): replayed traffic must not
			// be re-appended to the log. Blocking is fine — the sender drains.
			w.outboxes[dest].ch <- outboxItem{batch: w.newBatch(dest, tok.Superstep, int32(count), cp)}
			return nil
		})
	if err == nil {
		// Fence only the failed set: a sentinel to a survivor would pollute
		// its barrier counts.
		var dest int
		if _, dest, err = w.flushOutboxes(tok.Superstep, func(dest int) flushMode {
			if failed[dest] {
				return flushSentinel
			}
			return flushSkip
		}); err != nil {
			err = fmt.Errorf("replay flush to worker %d: %w", dest, err)
		}
	}
	if err != nil {
		// A truncated log window or an undeliverable replay: report it so the
		// manager falls back to global rollback.
		msg.Err = err.Error()
	} else {
		msg.SentRemote = replayMsgs
		msg.BytesOut = replayBytes
	}
	if span.Active() {
		span.End(observe.Int("msgs", replayMsgs), observe.Int("bytes", replayBytes))
	}
	w.replayEpoch, w.replayHandled = int32(tok.Epoch), tok.Superstep
	w.checkIn(msg)
}

func (w *worker[M]) runSuperstep(tok *stepToken) {
	w.superstep = tok.Superstep
	w.prevAggs = tok.Aggregates
	w.resetStepCounters()
	// A committed checkpoint retires everything the message log holds below
	// it: those supersteps' traffic is recoverable from the snapshot, never
	// from replay.
	if w.msglog != nil {
		w.msglog.TruncateBelow(tok.LastCkpt)
	}
	if tok.Checkpoint {
		if _, err := w.putState(observe.KindCheckpoint, checkpointContainer,
			checkpointBlob(w.superstep, w.id), w.superstep); err != nil {
			w.checkIn(barrierMsg{Worker: w.id, Superstep: w.superstep, Err: err.Error()})
			return
		}
	}
	// Re-establish peer sockets each superstep (paper §III: avoids socket
	// timeouts on long-running jobs).
	if err := w.endpoint.ResetPeers(); err != nil {
		w.checkIn(barrierMsg{Worker: w.id, Superstep: w.superstep, Err: err.Error()})
		return
	}

	if err := w.inject(tok.Injections); err != nil {
		w.checkIn(barrierMsg{Worker: w.id, Superstep: w.superstep, Err: err.Error()})
		return
	}
	active := w.frontier()

	// Compute phase. Vertex-centric programs run in parallel across cores;
	// subgraph-centric programs run one sequential pass over the whole
	// partition (their local fixpoint IS the parallel work, amortized across
	// supersteps). The partition program is invoked every superstep, active
	// set or not: phase machines driven by aggregates need to observe a
	// convergence superstep in which no vertex received a message.
	computeSpan := w.tracer.Start(observe.KindCompute, w.id, w.superstep)
	if w.partProg != nil {
		w.computePartition(active)
	} else {
		// Slot 0 runs on this goroutine, so a frontier one slot covers
		// starts no goroutine and no WaitGroup per superstep.
		p := min(w.parallel, max(len(active), 1))
		ctx0 := w.slotContext(0)
		for slot := 1; slot < p; slot++ {
			lo := len(active) * slot / p
			hi := len(active) * (slot + 1) / p
			ctx := w.slotContext(slot)
			w.slotsDone.Add(1)
			go func(ctx *Context[M], vertices []int32) {
				defer w.slotsDone.Done()
				w.computeSlice(ctx, vertices)
			}(ctx, active[lo:hi])
		}
		w.computeSlice(ctx0, active[:len(active)/p])
		w.slotsDone.Wait()
	}
	if computeSpan.Active() {
		computeSpan.End(
			observe.Int("active", int64(len(active))),
			observe.Int("sent", w.statSentLocal.Load()+w.statSentRemote.Load()),
			observe.Int("bytes_out", w.statBytesOut.Load()))
	}

	// All compute done: flush the outboxes (queued batches, then a sentinel
	// per peer) and wait until every peer's data for this superstep has
	// arrived (BSP barrier condition 2: all messages delivered). A send that
	// failed past retries anywhere this superstep surfaces here. The sentinel
	// wait is bounded: a peer that never delivers (dropped connection past
	// retries, stalled VM) must not hang this worker forever — the timeout
	// surfaces as a failure the manager recovers from by rollback.
	if err := w.broadcastSentinels(); err != nil {
		w.checkIn(barrierMsg{Worker: w.id, Superstep: w.superstep, Err: err.Error()})
		return
	}
	barrierSpan := w.tracer.Start(observe.KindBarrierWait, w.id, w.superstep)
	if err := w.awaitSentinels(); err != nil {
		barrierSpan.End()
		w.checkIn(barrierMsg{Worker: w.id, Superstep: w.superstep, Err: err.Error()})
		return
	}
	barrierSpan.End()

	// All step-s batches have arrived (sentinels seen), so these totals are
	// complete and deterministic.
	w.recvMu.Lock()
	recvMsgs := w.recvMsgs[w.superstep]
	recvBytes := w.recvBytes[w.superstep]
	recvErr := w.recvErr[w.superstep]
	delete(w.recvMsgs, w.superstep)
	delete(w.recvBytes, w.superstep)
	delete(w.recvErr, w.superstep)
	w.recvMu.Unlock()
	if recvErr != nil {
		w.checkIn(barrierMsg{Worker: w.id, Superstep: w.superstep, Err: recvErr.Error()})
		return
	}

	// Merge this step's output into the next step's inbox. Memory
	// accounting: messages held for this step + messages buffered for the
	// next + program state (paper §IV: buffered messages dominate).
	curBytes := w.in.bytes
	w.deliver()
	peakMem := curBytes + w.in.bytes + w.programStateBytes()
	w.wakeCur, w.wakeNext = w.wakeNext, w.wakeCur
	activeAfter := w.activeAfter()

	peers := 0
	for i := range w.peersContacted {
		if w.peersContacted[i].Load() {
			peers++
		}
	}
	if w.msglog != nil {
		w.ins.msglogBytesGauge(w.id).Set(float64(w.msglog.Bytes()))
	}
	// Chaos hook: simulate this worker's VM failing after the superstep's
	// work (all messages delivered, so peers are in a consistent state).
	if w.failInject != nil {
		if err := w.failInject(w.id, w.superstep); err != nil {
			w.checkIn(barrierMsg{Worker: w.id, Superstep: w.superstep, Err: err.Error()})
			return
		}
	}
	w.checkIn(barrierMsg{
		Worker:      w.id,
		Superstep:   w.superstep,
		Active:      int64(len(active)),
		ActiveAfter: activeAfter,
		SentLocal:   w.statSentLocal.Load(),
		SentRemote:  w.statSentRemote.Load(),
		RecvRemote:  recvMsgs,
		BytesOut:    w.statBytesOut.Load(),
		BytesIn:     recvBytes,
		PeakMemory:  peakMem,
		ComputeOps:  w.statComputeOps.Load(),
		Peers:       peers,
		Aggregates:  w.drainAggs(),
		Retries:     w.statRetries.Swap(0),
	})
}

// inject makes the superstep's scheduler injections join the active set
// through a reusable bitset. They wake too, so that the frontier visits
// them.
func (w *worker[M]) inject(vs []graph.VertexID) error {
	if w.hasInjected {
		clear(w.injectedBits)
	}
	w.hasInjected = len(vs) > 0
	for _, v := range vs {
		li, ok := w.local(v)
		if !ok {
			return fmt.Errorf("injection %d not owned by worker %d", v, w.id)
		}
		w.injectedBits[li>>6] |= 1 << uint(li&63)
		w.wakeCur.set(li)
	}
	return nil
}

// frontier returns this superstep's active list — vertices with pending
// messages, vertices that did not vote to halt, and scheduler injections —
// in ascending local index, the order a dense scan would produce. It visits
// only the wake bits (injections wake too), draining wakeCur (nothing sets
// it during the step), so it costs O(owned/4096 + woken) instead of
// O(owned).
func (w *worker[M]) frontier() []int32 {
	active := w.activeBuf[:0]
	w.wakeCur.drain(func(wi int, x uint64) {
		for ; x != 0; x &= x - 1 {
			li := int32(wi<<6 + bits.TrailingZeros64(x))
			if w.in.pending(li) || !w.halted[li] || w.injectedThisStep(li) {
				active = append(active, li)
			}
		}
	})
	w.activeBuf = active
	checkFrontier(w, active)
	return active
}

// activeAfter counts the vertices left !halted for the next superstep. Every
// one of them has its bit in the freshly rotated wakeCur.
func (w *worker[M]) activeAfter() int64 {
	var n int64
	w.wakeCur.eachWord(func(wi int, x uint64) {
		for ; x != 0; x &= x - 1 {
			if !w.halted[wi<<6+bits.TrailingZeros64(x)] {
				n++
			}
		}
	})
	checkActiveAfter(w, n)
	return n
}

// local returns v's index in this worker's owned list, and false when v is
// outside the graph or owned by another worker.
func (w *worker[M]) local(v graph.VertexID) (int32, bool) {
	if int(v) >= len(w.lay.place) {
		return -1, false
	}
	p := w.lay.place[v]
	if int(w.lay.owner(p)) != w.id {
		return -1, false
	}
	return w.lay.index(p), true
}

// slotContext returns the reusable Context for a compute slot, reset for the
// current superstep. Contexts and their staging buffers persist across
// supersteps so the compute hot path allocates only when a buffer genuinely
// grows.
func (w *worker[M]) slotContext(slot int) *Context[M] {
	for len(w.slots) <= slot {
		w.slots = append(w.slots, nil)
	}
	ctx := w.slots[slot]
	if ctx == nil {
		ctx = &Context[M]{
			w:        w,
			out:      make([]staging, w.numWorkers),
			aggs:     make(map[string]float64),
			localRun: run[M]{pointerFree: w.pointerFree},
		}
		if w.combiner != nil {
			ctx.stages = make([]stage[M], w.numWorkers)
		} else {
			ctx.lists = make([][]int32, w.numWorkers)
		}
		if w.lay.mirrors != nil {
			ctx.localRun.mirror = &w.lay.mirrors[w.id][w.id]
		}
		w.slots[slot] = ctx
	}
	ctx.superstep = w.superstep
	ctx.computeOps = 0
	ctx.sentLocal = 0
	ctx.sentRemote = 0
	ctx.remoteBytesOut = 0
	clear(ctx.aggs)
	return ctx
}

// computeSlice runs the user program over a contiguous slice of active
// local vertices using one reusable Context, then flushes its remote
// buffers into the outboxes.
func (w *worker[M]) computeSlice(ctx *Context[M], vertices []int32) {
	for _, li := range vertices {
		msgs := w.in.msgs(li)
		ctx.vertex = w.owned[li]
		ctx.local = li
		ctx.injected = w.injectedThisStep(li)
		ctx.halted = false
		ctx.computeOps += int64(1 + len(msgs))
		w.program.Compute(ctx, msgs)
		w.halted[li] = ctx.halted
		if !ctx.halted {
			w.wakeNext.set(li)
		}
	}
	w.finishSlot(ctx)
}

// finishSlot is the compute epilogue shared by both models: encode the
// slot's remote combine stages in ascending local index, enqueue all staged
// batches, and merge the per-slot counters and aggregator contributions. The
// slot's local output stays staged for the barrier merge.
func (w *worker[M]) finishSlot(ctx *Context[M]) {
	for dest := range ctx.stages {
		st := &ctx.stages[dest]
		if dest == w.id || st.empty() {
			continue
		}
		owned := w.lay.owned[dest]
		st.combined(w.combiner, true, func(li int32, m M) { ctx.encodeRemote(dest, owned[li], m) })
		st.reset()
	}
	for dest := range ctx.out {
		w.flushSlotBuffer(ctx, dest)
		ctx.out[dest].open = 0
	}
	w.statComputeOps.Add(ctx.computeOps)
	w.statSentLocal.Add(ctx.sentLocal)
	w.statSentRemote.Add(ctx.sentRemote)
	w.statBytesOut.Add(ctx.remoteBytesOut)
	w.mergeAggs(ctx.aggs)
}

// injectedThisStep tests the superstep's injection bitset; the common no-
// injection superstep short-circuits on a single bool.
func (w *worker[M]) injectedThisStep(li int32) bool {
	return w.hasInjected && w.injectedBits[li>>6]&(1<<uint(li&63)) != 0
}

// flushSlotBuffer hands a slot's staged batch for one destination, if any,
// to that destination's outbox, billing its logical size. Enqueueing cannot
// fail — send errors surface at the superstep's flush-and-drain
// (broadcastSentinels) — but it can block when the outbox is full, which is
// the data plane's backpressure.
func (w *worker[M]) flushSlotBuffer(c *Context[M], dest int) {
	st := &c.out[dest]
	if len(st.buf) == 0 {
		return
	}
	binary.LittleEndian.PutUint32(st.buf, uint32(st.logical))
	b := w.newBatch(dest, w.superstep, st.count, st.buf)
	c.remoteBytesOut += st.logical
	st.buf, st.count, st.logical = nil, 0, 0
	w.peersContacted[dest].Store(true)
	w.enqueueBatch(b)
}

// newBatch takes a pooled batch from this worker to dest for superstep,
// carrying count messages (-1 marks a sentinel) in payload and stamped with
// the worker's recovery epoch.
func (w *worker[M]) newBatch(dest, superstep int, count int32, payload []byte) *transport.Batch {
	b := transport.GetBatch()
	b.From, b.To, b.Superstep = int32(w.id), int32(dest), int32(superstep)
	b.Count, b.Epoch, b.Payload = count, w.epoch.Load(), payload
	return b
}

// enqueueBatch queues a batch from newBatch, which stamped its recovery
// epoch, on the destination's outbox. The fast path is a non-blocking
// channel send; when the outbox is full the stall is measured and traced
// before blocking (backpressure on compute is a signal worth seeing).
func (w *worker[M]) enqueueBatch(b *transport.Batch) {
	// Log the batch for confined recovery (Append copies; ownership of b and
	// its payload is unchanged). Logging happens even for deliveries
	// suppressed below, so a recovering worker's rebuilt log stays complete
	// enough to survive a second failure.
	w.msglog.Append(int(b.Superstep), int(b.To), b.Payload, int(b.Count))
	if w.replayFailed != nil && !w.replayFailed[b.To] {
		// Confined-recovery re-execution: the destination is a survivor that
		// already processed this superstep's traffic in the original
		// execution; delivering again would double-count messages.
		releaseBatch(b)
		return
	}
	ob := w.outboxes[b.To]
	select {
	case ob.ch <- outboxItem{batch: b}:
		return
	default:
	}
	w.ins.outboxStalls.Inc()
	stallSpan := w.tracer.Start(observe.KindSendStall, w.id, w.superstep)
	to := int64(b.To) // b's ownership transfers on the send below
	start := time.Now()
	ob.ch <- outboxItem{batch: b}
	w.ins.outboxStall.Observe(time.Since(start).Seconds())
	if stallSpan.Active() {
		stallSpan.End(observe.Int("to", to))
	}
}

// senderLoop is one destination's background send thread (paper §III). It
// owns the per-destination sequence counter, so stamping needs no lock, and
// (From, Seq) stays monotonic on the wire within an epoch: receivers process
// each sender's batches in sequence order (see recvStream). The sequence
// restarts at 1 whenever the batch epoch changes — the outboxes are drained
// before a restore bumps the epoch, so the transition is clean. A send that
// fails past retries is remembered and reported at the next flush;
// subsequent batches in the same cycle are discarded (the superstep is
// already lost) so compute never deadlocks behind a dead peer.
func (w *worker[M]) senderLoop(dest int, ob *outbox) {
	var seq, epoch int32
	var pendingErr error
	for item := range ob.ch {
		if b := item.batch; b != nil {
			if pendingErr == nil {
				if b.Epoch != epoch {
					epoch, seq = b.Epoch, 0
				}
				seq++
				b.Seq = seq
				err := w.retry.Do(func() error { return w.endpoint.Send(b) })
				if err != nil {
					pendingErr = err
					releaseBatch(b)
				} else if w.sendCopies {
					// Endpoint copied the payload to the wire: the buffer and
					// the batch struct are dead here; recycle both. (With the
					// in-process transport the receiver owns them now.)
					releaseBatch(b)
				}
			} else {
				releaseBatch(b)
			}
		}
		if item.ack != nil {
			item.ack <- pendingErr
			pendingErr = nil
		}
	}
}

// flushMode is what flushOutboxes does to one destination's outbox.
type flushMode uint8

const (
	// flushSkip leaves the outbox untouched.
	flushSkip flushMode = iota
	// flushAck waits until the outbox has shipped what it holds.
	flushAck
	// flushSentinel queues a zero-payload sentinel (Count == -1) marking
	// this worker done sending for the superstep, then waits as flushAck.
	flushSentinel
)

// flushOutboxes flushes every outbox mode does not skip, all concurrently:
// it posts one item per outbox, then waits for each ack. It returns the
// outboxes' queued batches before the flush and the first send error since
// each outbox's previous flush (mid-step enqueued batches included), with
// the destination that reported it.
func (w *worker[M]) flushOutboxes(superstep int, mode func(dest int) flushMode) (queued, errDest int, err error) {
	for dest, ob := range w.outboxes {
		if ob == nil || mode(dest) == flushSkip {
			continue
		}
		queued += len(ob.ch)
		item := outboxItem{ack: ob.ack}
		if mode(dest) == flushSentinel {
			item.batch = w.newBatch(dest, superstep, -1, nil)
		}
		ob.ch <- item
	}
	for dest, ob := range w.outboxes {
		if ob == nil || mode(dest) == flushSkip {
			continue
		}
		if aerr := <-ob.ack; aerr != nil && err == nil {
			errDest, err = dest, aerr
		}
	}
	return queued, errDest, err
}

// broadcastSentinels flushes and drains every outbox: each peer receives all
// queued data batches followed by a sentinel for the superstep. It returns
// the first send failure of the whole superstep, if any.
func (w *worker[M]) broadcastSentinels() error {
	if w.numWorkers == 1 {
		return nil
	}
	span := w.tracer.Start(observe.KindOutboxFlush, w.id, w.superstep)
	depth, _, err := w.flushOutboxes(w.superstep, func(dest int) flushMode {
		if w.replayFailed != nil && !w.replayFailed[dest] {
			// Re-executing under confined recovery: survivors are not waiting
			// at this superstep's barrier, so they get no sentinel — but the
			// outbox is still flushed so any send error surfaces here.
			return flushAck
		}
		return flushSentinel
	})
	w.ins.outboxDepthGauge(w.id).Set(float64(depth))
	if span.Active() {
		span.End(observe.Int("queued", int64(depth)))
	}
	return err
}

// drainOutboxes waits for every outbox to empty, discarding any send errors
// accumulated by an aborted execution. Called before a checkpoint restore so
// (a) no sender is still shipping pre-rollback batches when the epoch moves
// and (b) a stale send failure cannot poison the first replayed superstep.
func (w *worker[M]) drainOutboxes() {
	w.flushOutboxes(0, func(int) flushMode { return flushAck })
}

// closeOutboxes shuts down the sender goroutines. Remaining queued batches
// are still attempted (they fail fast once the endpoint closes) and then
// released.
func (w *worker[M]) closeOutboxes() {
	for _, ob := range w.outboxes {
		if ob != nil {
			close(ob.ch)
		}
	}
}

// awaitSentinels blocks until all peers have finished sending for the
// current superstep, or the barrier deadline passes (a peer is stuck or its
// messages were lost past all retries). A timeout is reported as a worker
// failure so the manager can roll back instead of waiting forever.
func (w *worker[M]) awaitSentinels() error {
	if w.numWorkers == 1 {
		return nil
	}
	deadline := time.Now().Add(w.barrierTimeout)
	w.sentinelMu.Lock()
	defer w.sentinelMu.Unlock()
	for w.sentinels[w.superstep] < w.numWorkers-1 {
		if !time.Now().Before(deadline) {
			return fmt.Errorf("worker %d: superstep %d: %d/%d peer sentinels after %v (straggler or lost connection)",
				w.id, w.superstep, w.sentinels[w.superstep], w.numWorkers-1, w.barrierTimeout)
		}
		// Timer-backed cond wait: the callback takes the mutex before
		// broadcasting, so the wakeup cannot be lost.
		t := time.AfterFunc(time.Until(deadline)+time.Millisecond, func() {
			w.sentinelMu.Lock()
			w.sentinelCond.Broadcast()
			w.sentinelMu.Unlock()
		})
		w.sentinelCond.Wait()
		t.Stop()
	}
	delete(w.sentinels, w.superstep)
	return nil
}

// receiveLoop is the worker's background receive thread (paper §III). Each
// incoming batch passes the stale-epoch filter (in-flight data from an
// aborted execution must not leak into replayed supersteps — it would
// double-deliver messages or prematurely satisfy a sentinel wait), then its
// sender's ordered stream: batches are processed strictly in sequence order,
// which both drops retry duplicates and re-orders frames that overtook each
// other across a connection redial. In-order processing also guarantees a
// sentinel is seen only after every data batch it fences.
func (w *worker[M]) receiveLoop() {
	for {
		b, err := w.endpoint.Recv()
		if err != nil {
			return // endpoint closed
		}
		w.receive(b)
	}
}

// receive routes one incoming batch through the epoch filter and its
// sender's ordered stream.
func (w *worker[M]) receive(b *transport.Batch) {
	cur := w.epoch.Load()
	if b.Epoch != cur {
		releaseBatch(b) // dead stream from before a rollback
		return
	}
	if b.Seq == 0 {
		// Unsequenced: the engine always stamps, but raw transport users
		// (tests, tools) may not — process immediately, no ordering.
		w.processBatch(b)
		return
	}
	from := b.From // processBatch recycles b; don't touch it afterwards
	if from < 0 || int(from) >= w.numWorkers {
		w.failRecv(b.Superstep, fmt.Errorf("batch %d from unknown worker %d", b.Seq, from))
		releaseBatch(b)
		return
	}
	st := &w.recvStreams[from]
	if st.epoch != cur {
		// First batch of a new epoch from this sender: abandon the old
		// stream, pending stragglers included.
		st.epoch = cur
		st.next = 1
		for s, p := range st.pending {
			delete(st.pending, s)
			releaseBatch(p)
		}
	}
	switch {
	case b.Seq < st.next: // duplicate of a processed batch (retried send)
		releaseBatch(b)
	case b.Seq > st.next: // overtook the gap: hold until it fills
		if st.pending == nil {
			st.pending = make(map[int32]*transport.Batch)
		}
		if _, dup := st.pending[b.Seq]; dup {
			releaseBatch(b)
		} else {
			st.pending[b.Seq] = b
		}
	default:
		w.processBatch(b)
		st.next++
		for {
			p, ok := st.pending[st.next]
			if !ok {
				break
			}
			delete(st.pending, st.next)
			w.processBatch(p)
			st.next++
		}
		w.recvInv.checkStream(from, st.next, st.pending)
	}
}

// releaseBatch recycles a batch and its payload. It is the final owner's
// step: a batch never handed off to the transport is its sender's, and a
// received batch is its receiver's on every transport (TCP batches were
// allocated by the framing reader, in-process ones handed off by the sender).
func releaseBatch(b *transport.Batch) {
	if b.Payload != nil {
		transport.PutPayload(b.Payload)
		b.Payload = nil
	}
	transport.PutBatch(b)
}

func (w *worker[M]) resetStepCounters() {
	w.statSentLocal.Store(0)
	w.statSentRemote.Store(0)
	w.statBytesOut.Store(0)
	w.statComputeOps.Store(0)
	for i := range w.peersContacted {
		w.peersContacted[i].Store(false)
	}
}

func (w *worker[M]) checkIn(msg barrierMsg) {
	if msg.Epoch == 0 {
		msg.Epoch = int(w.epoch.Load())
	}
	body, err := json.Marshal(msg)
	if err != nil {
		// Only a non-finite aggregate fails to marshal; report it as a failed
		// check-in the collector can still match by kind and epoch.
		body, _ = json.Marshal(barrierMsg{Kind: msg.Kind, Worker: msg.Worker,
			Superstep: msg.Superstep, Epoch: msg.Epoch, Err: "marshal: " + err.Error()})
	}
	w.barrierQ.Put(body)
}

// Aggregator merging across compute slots.
func (w *worker[M]) mergeAggs(slot map[string]float64) {
	if len(slot) == 0 {
		return
	}
	w.aggMu.Lock()
	if w.stepAggs == nil {
		w.stepAggs = make(map[string]float64)
	}
	for name, v := range slot {
		if prev, ok := w.stepAggs[name]; ok {
			w.stepAggs[name] = prev + v
		} else {
			w.stepAggs[name] = v
		}
	}
	w.aggMu.Unlock()
}

func (w *worker[M]) drainAggs() map[string]float64 {
	w.aggMu.Lock()
	aggs := w.stepAggs
	w.stepAggs = nil
	w.aggMu.Unlock()
	return aggs
}
