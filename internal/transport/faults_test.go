package transport

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
)

func TestBatchWireEpochSeq(t *testing.T) {
	b := &Batch{From: 1, To: 2, Superstep: 7, Count: 3, Epoch: 4, Seq: 99, Payload: []byte{1}}
	var buf bytes.Buffer
	if err := writeBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := readBatch(&buf, make([]byte, BatchHeaderSize))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 4 || got.Seq != 99 {
		t.Errorf("epoch/seq not preserved on the wire: %+v", got)
	}
}

func TestChannelSendFaultInjection(t *testing.T) {
	net := NewChannelNetwork(2, 4)
	defer net.Close()
	injected := errors.New("injected drop")
	var fired atomic.Bool
	net.SetSendFault(func(from, to, superstep int) error {
		if from == 0 && to == 1 && superstep == 5 && !fired.Swap(true) {
			return injected
		}
		return nil
	})
	ep, _ := net.Endpoint(0)
	b := &Batch{From: 0, To: 1, Superstep: 5, Count: 1, Payload: []byte("x")}
	if err := ep.Send(b); !errors.Is(err, injected) {
		t.Fatalf("first send: err = %v, want injected fault", err)
	}
	if err := ep.Send(b); err != nil { // retry succeeds
		t.Fatalf("retry: %v", err)
	}
	dst, _ := net.Endpoint(1)
	got, err := dst.Recv()
	if err != nil || string(got.Payload) != "x" {
		t.Fatalf("recv: %v %+v", err, got)
	}
	// The faulted batch must NOT have been delivered: inbox now empty.
	if len(net.endpoints[1].inbox) != 0 {
		t.Error("faulted batch was delivered anyway")
	}
}

func TestTCPSendFaultForcesRedialThenDelivers(t *testing.T) {
	net, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	injected := errors.New("injected conn drop")
	var fired atomic.Bool
	net.SetSendFault(func(from, to, superstep int) error {
		if from == 0 && to == 1 && !fired.Swap(true) {
			return injected
		}
		return nil
	})
	ep, _ := net.Endpoint(0)
	b := &Batch{From: 0, To: 1, Superstep: 2, Count: 1, Seq: 1, Payload: []byte("y")}
	if err := ep.Send(b); !errors.Is(err, injected) {
		t.Fatalf("first send: err = %v, want injected fault", err)
	}
	// The cached connection was torn down; the retry must redial and deliver.
	if err := ep.Send(b); err != nil {
		t.Fatalf("retry after drop: %v", err)
	}
	dst, _ := net.Endpoint(1)
	got, err := dst.Recv()
	if err != nil || string(got.Payload) != "y" || got.Seq != 1 {
		t.Fatalf("recv after redial: %v %+v", err, got)
	}
}

func TestTransientSendErrorClassification(t *testing.T) {
	inner := errors.New("connection reset")
	e := &transientSendError{inner}
	var tr interface{ Transient() bool }
	if !errors.As(e, &tr) || !tr.Transient() {
		t.Error("transientSendError must classify as Transient()")
	}
	if !errors.Is(e, inner) {
		t.Error("transientSendError must unwrap to the socket error")
	}
}
