package algorithms

import (
	"pregelnet/internal/core"
	"pregelnet/internal/graph"
)

// DiameterEstimate is the result of a sampled multi-source BFS sweep — the
// BSP equivalent of the SNAP statistic the paper's Table 1 reports.
type DiameterEstimate struct {
	// Max is the largest hop distance observed from any sampled root.
	Max int32
	// Effective90 is the interpolated 90th-percentile pairwise distance.
	Effective90 float64
	// AvgPath is the mean pairwise distance over sampled pairs.
	AvgPath float64
	// Samples is the number of BFS roots actually used.
	Samples int
}

// EstimateDiameter runs a multi-source BFS (the APSP vertex program) from
// `samples` roots on the BSP engine and derives diameter statistics.
func EstimateDiameter(g *graph.Graph, workers, samples int) (*DiameterEstimate, error) {
	if samples <= 0 || samples > g.NumVertices() {
		samples = g.NumVertices()
	}
	roots := Sources(g, samples)
	// Swathed execution keeps the message peak bounded for large samples.
	sched := core.NewSwathRunner(roots, core.StaticSizer(max(1, samples/4)), core.DynamicPeakInitiator{})
	res, err := core.Run(APSP(g, workers, sched))
	if err != nil {
		return nil, err
	}
	dist := APSPDistances(res, g.NumVertices(), roots)
	est := &DiameterEstimate{Samples: len(roots)}
	var hist []int64
	var total, weighted int64
	for i := range dist {
		for _, d := range dist[i] {
			if d <= 0 {
				continue
			}
			if d > est.Max {
				est.Max = d
			}
			for int(d) >= len(hist) {
				hist = append(hist, 0)
			}
			hist[d]++
			total++
			weighted += int64(d)
		}
	}
	if total == 0 {
		return est, nil
	}
	est.AvgPath = float64(weighted) / float64(total)
	target := 0.9 * float64(total)
	var cum int64
	for d := 1; d < len(hist); d++ {
		prev := cum
		cum += hist[d]
		if float64(cum) >= target {
			frac := (target - float64(prev)) / float64(hist[d])
			est.Effective90 = float64(d-1) + frac
			break
		}
	}
	return est, nil
}
