//go:build !pregel_invariants

package core

import "pregelnet/internal/transport"

// Default build: the receive-path and frontier invariants compile to nothing
// (the struct is empty and the calls inline away). Build with -tags
// pregel_invariants to turn them into panics at the first violation — see
// invariants_on.go.

type recvInvariants struct{}

func (recvInvariants) noteSentinel(b *transport.Batch) {}

func (recvInvariants) checkStream(from, next int32, pending map[int32]*transport.Batch) {}

func checkFrontier[M any](w *worker[M], active []int32) {}

func checkActiveAfter[M any](w *worker[M], n int64) {}
