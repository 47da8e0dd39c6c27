package core_test

import (
	"testing"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// FuzzBatchPayload fuzzes the receive path's batch decoder
// (core.RunBatchFuzz) with BC's messages: no combiner, so its
// SendToNeighbors forwards travel as broadcast records beside its plain
// acks and backward messages. The seeds are the batches worker 0 received
// in a real run.
func FuzzBatchPayload(f *testing.F) {
	g := graph.ErdosRenyi(40, 160, 5)
	core.RunBatchFuzz(f, algorithms.BC(g, 2, core.NewAllAtOnce(algorithms.Sources(g, 4))))
}
