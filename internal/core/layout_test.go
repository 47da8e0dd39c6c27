package core

import (
	"strings"
	"testing"

	"pregelnet/internal/graph"
	"pregelnet/internal/partition"
)

// TestPackingRoundTrip: every (owner, local index) a layout places comes
// back out of its 4-byte place, at worker counts on both sides of a power
// of two.
func TestPackingRoundTrip(t *testing.T) {
	g := graph.Ring(50)
	for _, workers := range []int{1, 2, 3, 4, 5, 8, 9, 33} {
		a := partition.Hash{}.Partition(g, workers)
		lay := newLayout(a, workers)
		for w, owned := range lay.owned {
			for li, v := range owned {
				p := lay.place[v]
				if int(lay.owner(p)) != w || int(lay.index(p)) != li {
					t.Fatalf("%d workers: vertex %d placed at (%d, %d), want (%d, %d)",
						workers, v, lay.owner(p), lay.index(p), w, li)
				}
			}
		}
	}
	for _, tc := range []struct{ workers, max int }{
		{1, 1 << 31}, {2, 1 << 31}, {3, 1 << 30}, {4, 1 << 30}, {5, 1 << 29}, {64, 1 << 26}, {1 << 16, 1 << 16},
	} {
		if got := packingFor(tc.workers).maxPartition(); got != tc.max {
			t.Errorf("%d workers: largest partition %d, want %d", tc.workers, got, tc.max)
		}
	}
}

// fixedPartitioner returns the same assignment for every worker count.
type fixedPartitioner partition.Assignment

func (fixedPartitioner) Name() string { return "fixed" }

func (f fixedPartitioner) Partition(*graph.Graph, int) partition.Assignment {
	return partition.Assignment(f)
}

// TestLayoutBound: an assignment with a partition larger than the layout's
// local-index bits can address is an error naming that partition, both when
// the job starts with it and when a resize would switch to it — never a
// silently truncated index. At 65,536 workers a place keeps 16 bits for the
// local index, so 65,537 vertices on one partition do not fit.
func TestLayoutBound(t *testing.T) {
	const workers = 1 << 16
	g := graph.Ring(workers + 1)
	crowded := make(partition.Assignment, g.NumVertices())
	for v := range crowded {
		crowded[v] = 3
	}

	spec := ckptSpec(g, workers, 0)
	spec.Assignment = crowded
	_, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "partition 3 ") {
		t.Fatalf("start with an overfull partition: err %v, want one naming partition 3", err)
	}

	// The same graph at 2 workers fits; resizing to 65,536 would not.
	spec = ckptSpec(g, 2, 0)
	spec.ElasticController = stepAtController(1, workers)
	spec.Repartitioner = fixedPartitioner(crowded)
	res, err := Run(spec)
	if err == nil || !strings.Contains(err.Error(), "partition 3 ") {
		t.Fatalf("resize to an overfull partition: err %v, want one naming partition 3", err)
	}
	if res == nil || len(res.ScaleEvents) != 0 || len(res.Owned) != 2 {
		t.Fatalf("failed resize: result %+v, want the 2-worker segment's and no scale event", res)
	}
}
