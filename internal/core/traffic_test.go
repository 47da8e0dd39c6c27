package core

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"pregelnet/internal/cloud"
	"pregelnet/internal/graph"
)

// FuzzResizeTraffic feeds arbitrary bytes to the traffic sidecar parser
// (addTraffic) for a graph of n vertices. Any input must be rejected or
// read exactly its pair count's pairs, each naming a vertex of the graph,
// and add their counts; neither may allocate, so no claimed count sizes
// anything. The seeds are the sidecars of a real scale-out.
func FuzzResizeTraffic(f *testing.F) {
	g := graph.ErdosRenyi(120, 480, 6)
	spec := ckptSpec(g, 2, 0)
	spec.ElasticController = stepAtController(1, 3)
	if _, err := Run(spec); err != nil {
		f.Fatal(err)
	}
	seeded := 0
	for _, name := range spec.CheckpointStore.List(migrationContainer) {
		if strings.HasPrefix(name, "t") {
			data, err := spec.CheckpointStore.Get(migrationContainer, name)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint16(g.NumVertices()), data)
			seeded++
		}
	}
	if seeded == 0 {
		f.Fatal("the scale-out wrote no traffic sidecar")
	}
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		traffic := make([]int64, n)
		var ok bool
		if allocs := testing.AllocsPerRun(1, func() {
			clear(traffic)
			ok = addTraffic(traffic, data)
		}); allocs != 0 {
			t.Fatalf("parsing allocated %v times", allocs)
		}
		if !ok {
			return
		}
		pairs := binary.LittleEndian.Uint64(data)
		if uint64(len(data)) != 8+16*pairs {
			t.Fatalf("accepted %d bytes claiming %d pairs", len(data), pairs)
		}
		want := make([]int64, n)
		for rest := data[8:]; len(rest) > 0; rest = rest[16:] {
			want[binary.LittleEndian.Uint64(rest)] += int64(binary.LittleEndian.Uint64(rest[8:]))
		}
		for v := range want {
			if traffic[v] != want[v] || traffic[v] < 0 {
				t.Fatalf("vertex %d: %d messages, the pairs say %d", v, traffic[v], want[v])
			}
		}
	})
}

// TestResizeTrafficRoundTrip: loadResizeTraffic adds up every old worker's
// sidecar, and one malformed sidecar — a vertex past the graph, a pair
// count the bytes do not hold, a count past int64 — makes it give up on
// all of them.
func TestResizeTrafficRoundTrip(t *testing.T) {
	store := cloud.NewBlobStore()
	sidecar := func(worker int, pairs ...uint64) []byte {
		data := binary.LittleEndian.AppendUint64(nil, uint64(len(pairs)/2))
		for _, p := range pairs {
			data = binary.LittleEndian.AppendUint64(data, p)
		}
		if err := store.Put(migrationContainer, trafficBlob(4, worker), data); err != nil {
			t.Fatal(err)
		}
		return data
	}
	sidecar(0, 1, 5, 3, 7)
	sidecar(1, 3, 2, 0, 9)
	got := loadResizeTraffic(store, 4, 2, 4)
	if want := []int64{9, 5, 0, 9}; !slices.Equal(got, want) {
		t.Fatalf("traffic %v, want %v", got, want)
	}
	for name, bad := range map[string][]byte{
		"a vertex past the graph": sidecar(1, 3, 2, 4, 9),
		"a pair short":            sidecar(1, 3, 2, 0, 9)[:24],
		"a pair over":             append(sidecar(1, 3, 2), make([]byte, 16)...),
		"a count past int64":      sidecar(1, 3, 1<<63),
	} {
		if err := store.Put(migrationContainer, trafficBlob(4, 1), bad); err != nil {
			t.Fatal(err)
		}
		if got := loadResizeTraffic(store, 4, 2, 4); got != nil {
			t.Errorf("a sidecar with %s gave traffic %v", name, got)
		}
	}
}
