// Command partitioner partitions a graph with every strategy and prints the
// quality comparison (edge-cut fraction and balance) — the paper's in-text
// partition-quality table for arbitrary inputs — beside each strategy's cost:
// the wall time of its Partition call and the MB that call allocated
// (runtime.MemStats.TotalAlloc before and after).
//
// Usage:
//
//	partitioner [-k 8] [-graph wg|cp|sd|lj | -file edges.txt] [-assign out.txt]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pregelnet/internal/graph"
	"pregelnet/internal/metrics"
	"pregelnet/internal/partition"
)

func main() {
	var (
		k         = flag.Int("k", 8, "number of partitions")
		graphName = flag.String("graph", "wg", "built-in dataset: sd|wg|cp|lj")
		file      = flag.String("file", "", "edge-list file (overrides -graph)")
		assignOut = flag.String("assign", "", "write the best (lowest-cut) assignment to this file")
	)
	flag.Parse()
	if *k < 1 {
		fatal(fmt.Errorf("-k must be at least 1, got %d", *k))
	}

	var g *graph.Graph
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		gg, err := graph.ReadEdgeList(f, true)
		f.Close()
		if err != nil {
			fatal(err)
		}
		gg.SetName(*file)
		g = gg
	} else {
		g = graph.Dataset(*graphName)
		if g == nil {
			fatal(fmt.Errorf("unknown dataset %q", *graphName))
		}
	}
	fmt.Printf("graph %s: %d vertices, %d directed edges, k=%d\n\n", g.Name(), g.NumVertices(), g.NumEdges(), *k)

	partitioners := []partition.Partitioner{
		partition.Hash{},
		partition.Chunk{},
		partition.NewLDG(partition.DefaultSlack),
		partition.NewLDGWithOrder(partition.DefaultSlack, partition.OrderBFS),
		partition.NewFennel(),
		partition.NewMultilevel(),
	}
	names := []string{"hash", "chunk", "ldg (ID order)", "ldg (BFS order)", "fennel", "metis (multilevel)"}

	t := &metrics.Table{
		Title:   "Partition quality (smaller cut is better; balance 1.0 is perfect)",
		Headers: []string{"strategy", "edge cut", "% remote edges", "balance", "time (ms)", "alloc (MB)", "sizes"},
	}
	var best partition.Assignment
	bestCut := 2.0
	var before, after runtime.MemStats
	for i, p := range partitioners {
		runtime.ReadMemStats(&before)
		start := time.Now()
		a := p.Partition(g, *k)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		q, err := partition.Evaluate(g, a, *k, p.Name())
		if err != nil {
			fatal(err)
		}
		t.AddRow(names[i],
			fmt.Sprintf("%d", q.EdgeCut),
			fmt.Sprintf("%.1f%%", 100*q.CutFraction),
			fmt.Sprintf("%.3f", q.Balance),
			fmt.Sprintf("%.1f", elapsed.Seconds()*1000),
			fmt.Sprintf("%.2f", float64(after.TotalAlloc-before.TotalAlloc)/1e6),
			fmt.Sprintf("%v", q.Sizes))
		if q.CutFraction < bestCut {
			bestCut, best = q.CutFraction, a
		}
	}
	t.Render(os.Stdout)

	if *assignOut != "" {
		f, err := os.Create(*assignOut)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		for v, p := range best {
			fmt.Fprintf(w, "%d\t%d\n", v, p)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote best assignment (%.1f%% cut) to %s\n", 100*bestCut, *assignOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partitioner:", err)
	os.Exit(1)
}
