package algorithms

import (
	"encoding/hex"
	"testing"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// TestRelaxStateRecords pins the checkpoint and migration record of the
// relaxation programs under both models: one little-endian u64 slot per
// vertex, a hop count or label widened from 32 bits (unreached is
// 0xFFFFFFFF, the slot the former int32 -1 wrote) and a weighted distance
// by its float64 bits (unreached is +Inf).
func TestRelaxStateRecords(t *testing.T) {
	// 0→1→2 and 3→2: from 0, vertex 3 is never reached, and no label flows
	// into 3.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {2}, {}, {2}})
	wg, err := graph.NewWeighted(g, []float32{1.5, 2.25, 4})
	if err != nil {
		t.Fatal(err)
	}
	const (
		hopsUnreached = "ffffffff00000000"
		distUnreached = "000000000000f07f" // +Inf
	)
	hops := [4]string{"0000000000000000", "0100000000000000", "0200000000000000", hopsUnreached}
	labels := [4]string{"0000000000000000", "0000000000000000", "0000000000000000", "0300000000000000"}
	// 1.5 = 0x3ff8000000000000, 3.75 = 0x400e000000000000.
	dists := [4]string{"0000000000000000", "000000000000f83f", "0000000000000e40", distUnreached}
	checkRelaxRecords(t, "sssp", SSSP(g, 1, 0), hopsUnreached, hops)
	checkRelaxRecords(t, "sssp-subgraph", SSSPSubgraph(g, 1, 0), hopsUnreached, hops)
	checkRelaxRecords(t, "wcc", WCC(g, 1), hopsUnreached, labels)
	checkRelaxRecords(t, "wcc-subgraph", WCCSubgraph(g, 1), hopsUnreached, labels)
	checkRelaxRecords(t, "wsssp", WeightedSSSP(wg, 1, 0), distUnreached, dists)
	checkRelaxRecords(t, "wsssp-subgraph", WeightedSSSPSubgraph(wg, 1, 0), distUnreached, dists)
}

// checkRelaxRecords checks a fresh program's record of vertex 3 against
// unreached, then runs spec on one worker and checks every vertex's final
// record against want, in hex.
func checkRelaxRecords[M any](t *testing.T, name string, spec core.JobSpec[M], unreached string, want [4]string) {
	t.Helper()
	if got := hex.EncodeToString(stateProgramFor(name, spec).new().AppendVertex(nil, 3)); got != unreached {
		t.Errorf("%s: fresh record %s, want %s", name, got, unreached)
	}
	res, err := core.Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prog := res.Programs[0].(core.StateCodec)
	for li, v := range res.Owned[0] {
		if got := hex.EncodeToString(prog.AppendVertex(nil, int32(li))); got != want[v] {
			t.Errorf("%s: vertex %d record %s, want %s", name, v, got, want[v])
		}
	}
}
