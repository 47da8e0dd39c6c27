package main

import (
	"fmt"
	"time"

	"pregelnet/internal/cloud"
	"pregelnet/internal/core"
	"pregelnet/internal/transport"
)

// Micro-drives: each times one layer's primitive in isolation, from outside
// the layer, so the BSP cost terms (g per data plane, l for the control
// plane) have a number that does not depend on any workload. They run once,
// after the traced jobs, and never during timed reps.

const batchBytes = 64 << 10 // the engine's default FlushBytes

// codecDrive encodes n messages into one buffer and decodes them back,
// returning nanoseconds per message for each direction.
func codecDrive[M any](c core.Codec[M], msg func(i int) M, n int) (encodeNs, decodeNs float64) {
	buf := make([]byte, 0, n*c.Size(msg(0)))
	start := time.Now()
	for i := 0; i < n; i++ {
		buf = c.Append(buf, msg(i))
	}
	encodeNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	var sink M
	start = time.Now()
	for off := 0; off < len(buf); {
		m, used := c.Decode(buf[off:])
		sink = m
		off += used
	}
	decodeNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	_ = sink
	return encodeNs, decodeNs
}

// consume recycles a received batch the way the engine's receive loop does.
func consume(b *transport.Batch) {
	transport.PutPayload(b.Payload)
	transport.PutBatch(b)
}

// networkDrive measures a data plane between two endpoints: the round trip
// of a small batch (worker 1 echoes) and the one-way rate of FlushBytes-size
// batches (worker 1 drains, then acknowledges).
func networkDrive(network transport.Network, roundTrips, bulkBatches int) (roundTripUs, mbPerS float64, err error) {
	defer network.Close()
	ep0, err := network.Endpoint(0)
	if err != nil {
		return 0, 0, err
	}
	ep1, err := network.Endpoint(1)
	if err != nil {
		return 0, 0, err
	}
	// send follows the engine's sender loop: a batch the endpoint copied to
	// the wire (or failed to send) is still ours to recycle; one handed off
	// by reference belongs to the receiver.
	send := func(ep transport.Endpoint, from, to, seq, size int) error {
		b := transport.GetBatch()
		b.From, b.To, b.Seq, b.Count = int32(from), int32(to), int32(seq), 1
		b.Payload = transport.GetPayload(size)
		sc, ok := ep.(transport.SendCopier)
		copies := ok && sc.SendCopiesPayload()
		//pregelvet:ignore epochstamp raw transport drive: no job, no recovery epoch to stamp
		err := ep.Send(b)
		if copies || err != nil {
			consume(b)
		}
		return err
	}
	total := roundTrips + bulkBatches
	peerErr := make(chan error, 1) // one send: the echo goroutine's exit status
	go func() {
		for i := 0; i < total; i++ {
			b, err := ep1.Recv()
			if err != nil {
				peerErr <- err
				return
			}
			consume(b)
			if i < roundTrips || i == total-1 {
				if err := send(ep1, 1, 0, i, 64); err != nil {
					peerErr <- err
					return
				}
			}
		}
		peerErr <- nil
	}()
	await := func() error {
		b, err := ep0.Recv()
		if err != nil {
			return err
		}
		consume(b)
		return nil
	}
	drive := func() error {
		start := time.Now()
		for i := 0; i < roundTrips; i++ {
			if err := send(ep0, 0, 1, i, 64); err != nil {
				return err
			}
			if err := await(); err != nil {
				return err
			}
		}
		roundTripUs = time.Since(start).Seconds() * 1e6 / float64(roundTrips)
		start = time.Now()
		for i := 0; i < bulkBatches; i++ {
			if err := send(ep0, 0, 1, roundTrips+i, batchBytes); err != nil {
				return err
			}
		}
		if err := await(); err != nil {
			return err
		}
		mbPerS = float64(bulkBatches) * batchBytes / mb / time.Since(start).Seconds()
		return nil
	}
	if err := drive(); err != nil {
		network.Close() // unblocks the echo goroutine's Recv
		<-peerErr
		return 0, 0, fmt.Errorf("network micro-drive: %w", err)
	}
	if err := <-peerErr; err != nil {
		return 0, 0, fmt.Errorf("network micro-drive peer: %w", err)
	}
	return roundTripUs, mbPerS, nil
}

// msglogDrive times MessageLog.Append of FlushBytes-size payloads, with the
// truncation a committed checkpoint triggers every few supersteps so the
// log's pooled buffers recycle as they do in a job.
func msglogDrive(appends int) float64 {
	log := transport.NewMessageLog(0, nil, "bench")
	payload := make([]byte, batchBytes)
	const perStep, truncateEvery = 8, 4
	start := time.Now()
	for i := 0; i < appends; i++ {
		step := i / perStep
		log.Append(step, 1, payload, 1)
		if i%perStep == perStep-1 && step%truncateEvery == truncateEvery-1 {
			log.TruncateBelow(step + 1)
		}
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(appends)
	log.Reset(0)
	return ns
}

// queueDrive times the control plane's token exchange: the manager side
// puts a step token and blocks for the check-in, the worker side blocks for
// the token, deletes it and puts the check-in — one BSP barrier's worth of
// queue traffic for one worker, wake-ups included.
func queueDrive(roundTrips int) float64 {
	stepQ, barrierQ := cloud.NewQueue("step"), cloud.NewQueue("barrier")
	body := []byte(`{"superstep":0}`)
	const visibility, maxWait = 30 * time.Second, 5 * time.Second
	pass := func(from, to *cloud.Queue) bool {
		lease := from.GetWait(visibility, maxWait)
		if lease == nil {
			return false
		}
		_ = from.Delete(lease.ID) // the lease cannot have expired within visibility
		if to != nil {
			to.Put(body)
		}
		return true
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < roundTrips && pass(stepQ, barrierQ); i++ {
		}
	}()
	start := time.Now()
	for i := 0; i < roundTrips; i++ {
		stepQ.Put(body)
		if !pass(barrierQ, nil) {
			break
		}
	}
	us := time.Since(start).Seconds() * 1e6 / float64(roundTrips)
	stepQ.Close()
	<-done
	return us
}

// blobDrive times BlobStore.Put of 1 MiB blobs (a checkpoint or migration
// write), overwriting a few names so the store's footprint stays bounded.
func blobDrive(puts int) (float64, error) {
	store := cloud.NewBlobStore()
	data := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < puts; i++ {
		if err := store.Put("bench", fmt.Sprintf("blob-%d", i%4), data); err != nil {
			return 0, err
		}
	}
	return float64(puts) * float64(len(data)) / mb / time.Since(start).Seconds(), nil
}
