package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
)

// TCPNetwork is a data plane over real TCP sockets. Each worker runs a
// listener; senders dial peers lazily, cache the connections, and tear them
// down on ResetPeers (the paper re-establishes sockets every superstep to
// avoid idle timeouts on long-running jobs). Incoming batches from all peers
// are funneled into one inbox per worker by per-connection reader
// goroutines — the paper's "receive thread".
type TCPNetwork struct {
	endpoints []*tcpEndpoint
	closeOnce sync.Once
}

// SetSendFault implements FaultInjectable.
func (tn *TCPNetwork) SetSendFault(f FaultFunc) {
	for _, ep := range tn.endpoints {
		ep.faultMu.Lock()
		ep.fault = f
		ep.faultMu.Unlock()
	}
}

// SetObserver implements Observable.
func (tn *TCPNetwork) SetObserver(o Observer) {
	for _, ep := range tn.endpoints {
		ep.faultMu.Lock()
		ep.obs = o
		ep.faultMu.Unlock()
	}
}

// NewTCPNetwork starts listeners for n workers on loopback and returns the
// connected network. Addresses are chosen by the kernel; use Addr to
// retrieve them.
func NewTCPNetwork(n int) (*TCPNetwork, error) {
	tn := &TCPNetwork{endpoints: make([]*tcpEndpoint, n)}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tn.Close()
			return nil, fmt.Errorf("transport: listen for worker %d: %w", i, err)
		}
		ep := &tcpEndpoint{
			id:    i,
			ln:    ln,
			inbox: make(chan *Batch, 1024),
			done:  make(chan struct{}),
			conns: make(map[int]net.Conn),
		}
		tn.endpoints[i] = ep
		addrs[i] = ln.Addr().String()
		go ep.acceptLoop()
	}
	for _, ep := range tn.endpoints {
		ep.peerAddrs = addrs
	}
	return tn, nil
}

// NumWorkers implements Network.
func (tn *TCPNetwork) NumWorkers() int { return len(tn.endpoints) }

// Endpoint implements Network.
func (tn *TCPNetwork) Endpoint(w int) (Endpoint, error) {
	if w < 0 || w >= len(tn.endpoints) {
		return nil, fmt.Errorf("transport: worker %d out of range [0,%d)", w, len(tn.endpoints))
	}
	return tn.endpoints[w], nil
}

// Addr returns the listen address of worker w.
func (tn *TCPNetwork) Addr(w int) string { return tn.endpoints[w].ln.Addr().String() }

// Close implements Network.
func (tn *TCPNetwork) Close() error {
	tn.closeOnce.Do(func() {
		for _, ep := range tn.endpoints {
			if ep != nil {
				ep.Close()
			}
		}
	})
	return nil
}

type tcpEndpoint struct {
	id        int
	ln        net.Listener
	peerAddrs []string
	inbox     chan *Batch
	done      chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	conns map[int]net.Conn // cached outgoing connections by peer

	faultMu sync.RWMutex
	fault   FaultFunc
	obs     Observer
}

func (ep *tcpEndpoint) acceptLoop() {
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go ep.readLoop(conn)
	}
}

func (ep *tcpEndpoint) readLoop(conn net.Conn) {
	defer conn.Close()
	var hdr [BatchHeaderSize]byte // per-connection scratch: zero allocs per frame
	for {
		b, err := readBatch(conn, hdr[:])
		if err != nil {
			return // peer closed or reset
		}
		select {
		case ep.inbox <- b:
		case <-ep.done:
			// Endpoint closed with a frame in hand: nobody will consume this
			// batch, so recycle its pooled memory here instead of leaking it.
			PutPayload(b.Payload)
			PutBatch(b)
			return
		}
	}
}

// Send writes b to the peer socket, dialing (and redialing once on a broken
// connection) as needed. The engine's sender loop retries Sends, so every
// error out of here must carry its retryability classification.
//
//pregelvet:retrypath
func (ep *tcpEndpoint) Send(b *Batch) error {
	select {
	case <-ep.done:
		return ErrClosed
	default:
	}
	to := int(b.To)
	if to < 0 || to >= len(ep.peerAddrs) {
		//pregelvet:terminal a peer id outside the cluster is a caller bug, never retryable
		return fmt.Errorf("transport: send to unknown worker %d", b.To)
	}
	ep.faultMu.RLock()
	fault, obs := ep.fault, ep.obs
	ep.faultMu.RUnlock()
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if fault != nil {
		if ferr := fault(int(b.From), int(b.To), int(b.Superstep)); ferr != nil {
			// Injected connection fault: the batch is not written and any
			// cached socket to the peer is torn down, so a retry must redial.
			if conn, ok := ep.conns[to]; ok {
				conn.Close()
				delete(ep.conns, to)
			}
			return ferr
		}
	}
	conn, ok := ep.conns[to]
	if !ok {
		var err error
		conn, err = net.Dial("tcp", ep.peerAddrs[to])
		if err != nil {
			return &transientSendError{fmt.Errorf("transport: dial worker %d: %w", to, err)}
		}
		ep.conns[to] = conn
	}
	if err := writeBatch(conn, b); err != nil {
		// Drop the broken connection; one retry with a fresh dial. Receivers
		// dedupe by (From, Seq), so resending a batch whose first write
		// partially succeeded cannot double-deliver.
		conn.Close()
		delete(ep.conns, to)
		conn, derr := net.Dial("tcp", ep.peerAddrs[to])
		if derr != nil {
			return &transientSendError{fmt.Errorf("transport: redial worker %d: %w", to, derr)}
		}
		if obs != nil {
			obs.Reconnect(int(b.From), to)
		}
		ep.conns[to] = conn
		if werr := writeBatch(conn, b); werr != nil {
			return &transientSendError{fmt.Errorf("transport: resend to worker %d: %w", to, werr)}
		}
	}
	if obs != nil {
		obs.BatchSent(int(b.From), to, int(b.Superstep), int(b.Count), b.WireSize())
	}
	return nil
}

// SendCopiesPayload implements SendCopier: Send serializes the payload onto
// the socket, so the caller may recycle the buffer after a successful Send.
func (ep *tcpEndpoint) SendCopiesPayload() bool { return true }

func (ep *tcpEndpoint) Recv() (*Batch, error) {
	select {
	case b := <-ep.inbox:
		return b, nil
	case <-ep.done:
		select {
		case b := <-ep.inbox:
			return b, nil
		default:
			return nil, io.EOF
		}
	}
}

func (ep *tcpEndpoint) ResetPeers() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for to, conn := range ep.conns {
		conn.Close()
		delete(ep.conns, to)
	}
	return nil
}

func (ep *tcpEndpoint) Close() error {
	ep.closeOnce.Do(func() {
		close(ep.done)
		ep.ln.Close()
		ep.ResetPeers()
	})
	return nil
}
