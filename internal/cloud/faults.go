package cloud

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Fault injection — the "imperfect cloud" the paper actually runs on.
//
// Azure queues deliver at least once, blob operations fail transiently, the
// fabric restarts VMs under it, and TCP connections between workers drop.
// A FaultPlan scripts those behaviours deterministically (seeded) so the
// engine's retry/rollback machinery can be exercised in tests the same way a
// real deployment exercises it in production: a run under chaos must produce
// the same results as a failure-free run, just later and at higher simulated
// cost (re-executed supersteps are billed, as on a real cloud).

// ErrTransient marks an injected (or classified) transient cloud error.
// Operations failing with an error wrapping ErrTransient are safe to retry;
// see RetryPolicy.
var ErrTransient = errors.New("cloud: transient error")

// transientError implements both errors.Is(err, ErrTransient) and the
// Transient() classification interface used by IsTransient.
type transientError struct{ msg string }

func (e *transientError) Error() string        { return e.msg }
func (e *transientError) Is(target error) bool { return target == ErrTransient }
func (e *transientError) Transient() bool      { return true }

// VMRestart scripts the cloud fabric restarting one worker's VM at the end
// of the given superstep (one-shot): the worker reports a failure and the
// manager rolls every worker back to the last checkpoint.
type VMRestart struct {
	Worker    int
	Superstep int
}

// ConnDrop scripts the data-plane connection From→To dropping during the
// given superstep (one-shot): the send fails transiently and any cached
// socket is torn down, forcing the sender to reconnect and retry.
type ConnDrop struct {
	From      int
	To        int
	Superstep int
}

// FaultPlan describes the faults a Chaos instance injects. Probabilities are
// per operation in [0,1]; the Max* fields cap how many faults of each kind
// fire over the plan's lifetime (0 = unlimited), which keeps long soaks from
// exhausting bounded retry budgets. The zero plan injects nothing.
type FaultPlan struct {
	// Seed drives all probabilistic draws. Two Chaos instances built from
	// identical plans make identical per-category decision sequences.
	Seed int64

	// BlobErrorProb is the chance a BlobStore Get/Put fails transiently.
	BlobErrorProb float64
	// MaxBlobErrors caps injected blob errors (0 = unlimited).
	MaxBlobErrors int64

	// QueueDuplicateProb is the chance a Queue.Put enqueues the message
	// twice — the at-least-once duplicate a real cloud queue can deliver.
	QueueDuplicateProb float64
	// MaxQueueDuplicates caps injected duplicates (0 = unlimited).
	MaxQueueDuplicates int64

	// LeaseExpiryProb is the chance a queue lease expires immediately
	// instead of after the requested visibility timeout, so the message is
	// redelivered and the original consumer's Delete fails.
	LeaseExpiryProb float64
	// MaxLeaseExpiries caps injected early expiries (0 = unlimited).
	MaxLeaseExpiries int64

	// SendDropProb is the chance a data-plane Send fails transiently (the
	// batch is not delivered; cached connections are dropped).
	SendDropProb float64
	// MaxSendDrops caps injected send drops (0 = unlimited).
	MaxSendDrops int64

	// VMRestarts scripts one-shot worker VM restarts.
	VMRestarts []VMRestart
	// ConnDrops scripts one-shot data-plane connection drops.
	ConnDrops []ConnDrop
	// BlobWriteFails scripts Puts of the named blobs failing transiently,
	// past any retry budget — a VM dying mid-write leaves the blob absent
	// (or torn) no matter how often the writer retries. Exact
	// container/name matches; reads are unaffected.
	BlobWriteFails []BlobWriteFail
	// MaxBlobWriteFails caps the scripted write failures (0 = every Put of
	// a named blob fails forever). Setting it to the writer's retry budget
	// models one torn write: the first attempt exhausts its retries and the
	// rewrite after recovery succeeds.
	MaxBlobWriteFails int64
}

// BlobWriteFail scripts one blob's writes failing persistently; see
// FaultPlan.BlobWriteFails.
type BlobWriteFail struct {
	Container string
	Name      string
}

// Enabled reports whether the plan injects any fault at all.
func (p FaultPlan) Enabled() bool {
	return p.BlobErrorProb > 0 || p.QueueDuplicateProb > 0 || p.LeaseExpiryProb > 0 ||
		p.SendDropProb > 0 || len(p.VMRestarts) > 0 || len(p.ConnDrops) > 0 ||
		len(p.BlobWriteFails) > 0
}

// FaultStats counts the faults a Chaos instance has injected.
type FaultStats struct {
	BlobErrors      int64
	QueueDuplicates int64
	LeaseExpiries   int64
	SendDrops       int64
	VMRestarts      int64
	ConnDrops       int64
}

// Total returns the total number of injected faults.
func (s FaultStats) Total() int64 {
	return s.BlobErrors + s.QueueDuplicates + s.LeaseExpiries +
		s.SendDrops + s.VMRestarts + s.ConnDrops
}

// Chaos is a seeded runtime fault injector the cloud primitives consult.
// Each fault category draws from its own PRNG stream so, e.g., blob traffic
// volume does not perturb queue fault placement. All methods are safe for
// concurrent use.
type Chaos struct {
	plan FaultPlan

	mu       sync.Mutex
	blobRng  *rand.Rand
	queueRng *rand.Rand
	leaseRng *rand.Rand
	sendRng  *rand.Rand
	stats    FaultStats
	observer func(kind, detail string)

	firedRestarts      map[VMRestart]bool
	firedDrops         map[ConnDrop]bool
	scriptedWriteFails int64
}

// NewChaos builds a fault injector from a plan. A nil *Chaos injects
// nothing, so consumers may hold one unconditionally.
func NewChaos(plan FaultPlan) *Chaos {
	return &Chaos{
		plan:          plan,
		blobRng:       rand.New(rand.NewSource(plan.Seed ^ 0x626c6f62)), // "blob"
		queueRng:      rand.New(rand.NewSource(plan.Seed ^ 0x71756575)), // "queu"
		leaseRng:      rand.New(rand.NewSource(plan.Seed ^ 0x6c656173)), // "leas"
		sendRng:       rand.New(rand.NewSource(plan.Seed ^ 0x73656e64)), // "send"
		firedRestarts: make(map[VMRestart]bool),
		firedDrops:    make(map[ConnDrop]bool),
	}
}

// Plan returns the plan this injector was built from.
func (c *Chaos) Plan() FaultPlan { return c.plan }

// SetObserver installs a callback invoked once per injected fault with the
// fault category ("blob_error", "queue_duplicate", "lease_expiry",
// "send_drop", "conn_drop", "vm_restart") and a human-readable detail. This
// is how the engine's tracer sees chaos without cloud depending on it. The
// callback runs under the injector's lock and must not call back into Chaos.
func (c *Chaos) SetObserver(fn func(kind, detail string)) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.observer = fn
	c.mu.Unlock()
}

// observeLocked reports one injected fault to the observer, if any.
func (c *Chaos) observeLocked(kind, detail string) {
	if c.observer != nil {
		c.observer(kind, detail)
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (c *Chaos) Stats() FaultStats {
	if c == nil {
		return FaultStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// BlobFault returns a transient error for the given blob operation with
// probability BlobErrorProb, nil otherwise.
func (c *Chaos) BlobFault(op, container, name string) error {
	if c == nil || (c.plan.BlobErrorProb <= 0 && len(c.plan.BlobWriteFails) == 0) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if op == "put" &&
		(c.plan.MaxBlobWriteFails <= 0 || c.scriptedWriteFails < c.plan.MaxBlobWriteFails) {
		for _, f := range c.plan.BlobWriteFails {
			if f.Container == container && f.Name == name {
				c.scriptedWriteFails++
				c.stats.BlobErrors++
				c.observeLocked("blob_error", fmt.Sprintf("scripted %s %s/%s", op, container, name))
				return &transientError{fmt.Sprintf("cloud: injected persistent blob write failure on %q/%q", container, name)}
			}
		}
	}
	if c.plan.BlobErrorProb <= 0 {
		return nil
	}
	if c.plan.MaxBlobErrors > 0 && c.stats.BlobErrors >= c.plan.MaxBlobErrors {
		return nil
	}
	if c.blobRng.Float64() >= c.plan.BlobErrorProb {
		return nil
	}
	c.stats.BlobErrors++
	c.observeLocked("blob_error", fmt.Sprintf("%s %s/%s", op, container, name))
	return &transientError{fmt.Sprintf("cloud: injected transient blob %s error on %q/%q", op, container, name)}
}

// QueueDuplicate reports whether a Put on the named queue should enqueue the
// message a second time.
func (c *Chaos) QueueDuplicate(queue string) bool {
	if c == nil || c.plan.QueueDuplicateProb <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan.MaxQueueDuplicates > 0 && c.stats.QueueDuplicates >= c.plan.MaxQueueDuplicates {
		return false
	}
	if c.queueRng.Float64() >= c.plan.QueueDuplicateProb {
		return false
	}
	c.stats.QueueDuplicates++
	c.observeLocked("queue_duplicate", queue)
	return true
}

// LeaseExpiresEarly reports whether a lease on the named queue should expire
// immediately, forcing redelivery.
func (c *Chaos) LeaseExpiresEarly(queue string) bool {
	if c == nil || c.plan.LeaseExpiryProb <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan.MaxLeaseExpiries > 0 && c.stats.LeaseExpiries >= c.plan.MaxLeaseExpiries {
		return false
	}
	if c.leaseRng.Float64() >= c.plan.LeaseExpiryProb {
		return false
	}
	c.stats.LeaseExpiries++
	c.observeLocked("lease_expiry", queue)
	return true
}

// SendFault returns a transient error if the data-plane send from→to during
// the given superstep should fail (scripted ConnDrops fire once; afterwards
// probabilistic drops apply), nil otherwise.
func (c *Chaos) SendFault(from, to, superstep int) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.plan.ConnDrops {
		if d.From == from && d.To == to && d.Superstep == superstep && !c.firedDrops[d] {
			c.firedDrops[d] = true
			c.stats.ConnDrops++
			c.observeLocked("conn_drop", fmt.Sprintf("%d->%d s%d", from, to, superstep))
			return &transientError{fmt.Sprintf("cloud: injected connection drop %d→%d at superstep %d", from, to, superstep)}
		}
	}
	if c.plan.SendDropProb <= 0 {
		return nil
	}
	if c.plan.MaxSendDrops > 0 && c.stats.SendDrops >= c.plan.MaxSendDrops {
		return nil
	}
	if c.sendRng.Float64() >= c.plan.SendDropProb {
		return nil
	}
	c.stats.SendDrops++
	c.observeLocked("send_drop", fmt.Sprintf("%d->%d s%d", from, to, superstep))
	return &transientError{fmt.Sprintf("cloud: injected transient send drop %d→%d at superstep %d", from, to, superstep)}
}

// VMRestartAt returns a non-nil error if the plan scripts the given worker's
// VM restarting at the end of the given superstep (one-shot). The error is
// NOT transient: VM loss is recovered by checkpoint rollback, not retry.
func (c *Chaos) VMRestartAt(worker, superstep int) error {
	if c == nil || len(c.plan.VMRestarts) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.plan.VMRestarts {
		if r.Worker == worker && r.Superstep == superstep && !c.firedRestarts[r] {
			c.firedRestarts[r] = true
			c.stats.VMRestarts++
			c.observeLocked("vm_restart", fmt.Sprintf("worker %d s%d", worker, superstep))
			return fmt.Errorf("cloud: injected fabric restart of worker %d's VM at superstep %d", worker, superstep)
		}
	}
	return nil
}
