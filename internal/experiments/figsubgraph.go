package experiments

import (
	"fmt"

	"pregelnet/internal/algorithms"
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/metrics"
	"pregelnet/internal/partition"
)

// FigSubgraph measures the subgraph-centric (partition-centric) compute
// mode against the vertex-centric baseline — the GoFFish/Giraph++ claim
// that converging each partition locally between barriers collapses both
// the superstep count (to the partition-hop diameter) and the message
// volume (to boundary traffic only).
//
// Three traversal workloads run under both models on a high-diameter mesh
// and on the web-like WG', each under hash and multilevel (metis)
// partitioning. The interaction is the point: under hash partitioning most
// edges are boundary edges, so there is little "local" to converge and the
// subgraph model mostly wins supersteps; under multilevel partitioning the
// partitions are connected neighborhoods and both supersteps and messages
// collapse. SSSP and WCC run their native partition programs; BC has no
// native port (one lost to the vertex program several-fold on the wall
// clock, EXPERIMENTS.md) and runs its vertex program under the adapter, so
// its rows read 1.00 by construction. PageRank-style fixed-iteration
// workloads are excluded — every vertex updates every superstep, so
// partition-local convergence has nothing to skip.
func FigSubgraph(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rows, err := subgraphComparisons(cfg)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: "Vertex-centric vs subgraph-centric: supersteps and message volume",
		Headers: []string{"graph", "partitioner", "workload",
			"steps (vtx)", "steps (sub)", "step ratio",
			"msgs (vtx)", "msgs (sub)", "remote (vtx)", "remote (sub)", "remote ratio",
			"sim-s (vtx)", "sim-s (sub)"},
	}
	for _, r := range rows {
		t.AddRow(r.graph, r.partitioner, r.workload,
			fmt.Sprintf("%d", r.vertex.supersteps), fmt.Sprintf("%d", r.subgraph.supersteps),
			fmtRatio(r.stepRatio()),
			fmt.Sprintf("%d", r.vertex.total), fmt.Sprintf("%d", r.subgraph.total),
			fmt.Sprintf("%d", r.vertex.remote), fmt.Sprintf("%d", r.subgraph.remote),
			fmtRatio(r.remoteRatio()),
			fmtSeconds(r.vertex.simSec), fmtSeconds(r.subgraph.simSec))
	}
	return &Report{
		ID:     "figsubgraph",
		Title:  "Subgraph-centric compute mode (extension)",
		Tables: []*metrics.Table{t},
		Notes: []string{
			"step ratio = vertex supersteps / subgraph supersteps; remote ratio = vertex remote messages / subgraph remote messages (higher = subgraph wins)",
			"results are identical across models: bit-identical for sssp/wcc (integer min fixpoints), ULP-equal for bc (the adapter sums on one goroutine per partition)",
			"grid-64x64 is the diameter-126 stress case; WG' shows the small-world regime where the superstep win is bounded by the ~6-hop diameter",
			"bc (sub) is the vertex program under the adapter: the same supersteps and messages as bc (vtx); a native port that cut the mesh's barriers 4.5x ran 5-80x slower on the wall clock and was deleted",
		},
	}, nil
}

// modelRun condenses one job run to the quantities the comparison reports.
type modelRun struct {
	supersteps int
	total      int64
	remote     int64
	simSec     float64
}

func summarizeModelRun[M any](res *core.JobResult[M]) modelRun {
	r := modelRun{supersteps: res.Supersteps, simSec: res.SimSeconds}
	for i := range res.Steps {
		r.total += res.Steps[i].TotalSent()
		r.remote += res.Steps[i].SentRemote
	}
	return r
}

// subgraphRow is one (graph, partitioner, workload) comparison.
type subgraphRow struct {
	graph       string
	partitioner string
	workload    string
	vertex      modelRun
	subgraph    modelRun
}

func (r subgraphRow) stepRatio() float64 {
	return float64(r.vertex.supersteps) / float64(r.subgraph.supersteps)
}

func (r subgraphRow) remoteRatio() float64 {
	return float64(r.vertex.remote) / float64(r.subgraph.remote)
}

func runModelPair[M any](vspec, sspec core.JobSpec[M], asn partition.Assignment) (vertex, sub modelRun, err error) {
	vspec.Assignment = asn
	sspec.Assignment = asn
	vres, err := core.Run(vspec)
	if err != nil {
		return vertex, sub, err
	}
	sres, err := core.Run(sspec)
	if err != nil {
		return vertex, sub, err
	}
	return summarizeModelRun(vres), summarizeModelRun(sres), nil
}

func subgraphComparisons(cfg Config) ([]subgraphRow, error) {
	grid := graph.Grid(64, 64)
	grid.SetName("grid-64x64")
	graphs := []*graph.Graph{grid, graph.DatasetWG()}
	partitioners := []partition.Partitioner{partition.Hash{}, partition.NewMultilevel()}
	var rows []subgraphRow
	for _, g := range graphs {
		roots := experimentRoots(g, cfg.rootsFor(g))
		for _, p := range partitioners {
			asn := p.Partition(g, cfg.Workers)
			add := func(workload string, v, s modelRun) {
				rows = append(rows, subgraphRow{
					graph: g.Name(), partitioner: p.Name(), workload: workload,
					vertex: v, subgraph: s,
				})
			}

			v, s, err := runModelPair(
				algorithms.SSSP(g, cfg.Workers, 0),
				algorithms.SSSPSubgraph(g, cfg.Workers, 0), asn)
			if err != nil {
				return nil, fmt.Errorf("sssp on %s/%s: %w", g.Name(), p.Name(), err)
			}
			add("sssp", v, s)

			v, s, err = runModelPair(
				algorithms.WCC(g, cfg.Workers),
				algorithms.WCCSubgraph(g, cfg.Workers), asn)
			if err != nil {
				return nil, fmt.Errorf("wcc on %s/%s: %w", g.Name(), p.Name(), err)
			}
			add("wcc", v, s)

			adapted := algorithms.BC(g, cfg.Workers, core.NewAllAtOnce(roots))
			core.UseVertexAdapter(&adapted)
			bv, bs, err := runModelPair(
				algorithms.BC(g, cfg.Workers, core.NewAllAtOnce(roots)), adapted, asn)
			if err != nil {
				return nil, fmt.Errorf("bc on %s/%s: %w", g.Name(), p.Name(), err)
			}
			add("bc", bv, bs)
		}
	}
	return rows, nil
}
