// tcpcluster demonstrates the framework's generic API end to end: a custom
// vertex program (Pregel's classic maximum-value propagation), a custom
// codec and combiner, and the real TCP data plane — workers exchange bulk
// message batches over loopback sockets, re-established every superstep as
// the paper's Azure deployment does.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"pregelnet"
)

// maxProgram propagates the maximum initial value: every vertex adopts the
// largest value it has seen and forwards it when it improves. At halt, all
// vertices in a connected component agree on the component's maximum.
type maxProgram struct {
	values []uint32
	seed   []uint32 // initial values, indexed by local vertex
}

func (p *maxProgram) Compute(ctx *pregelnet.Context[uint32], msgs []uint32) {
	li := ctx.LocalIndex()
	best := p.values[li]
	if ctx.Superstep() == 0 {
		best = p.seed[li]
	}
	for _, m := range msgs {
		if m > best {
			best = m
		}
	}
	if best != p.values[li] {
		p.values[li] = best
		ctx.SendToNeighbors(best)
	}
	ctx.VoteToHalt()
}

// maxCombiner keeps only the largest message per destination — with it, a
// worker sends at most one message per target vertex per superstep.
type maxCombiner struct{}

func (maxCombiner) Combine(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func main() {
	model := flag.String("model", "vertex", "programming model: vertex|subgraph (runs the same program under the partition-centric adapter)")
	flag.Parse()

	g := pregelnet.GenerateWattsStrogatz(5000, 6, 0.1, 42)
	const workers = 4

	// The engine builds the data plane through the factory and closes it
	// when the job ends.
	tcp := func(n int) (pregelnet.Network, error) {
		network, err := pregelnet.NewTCPNetwork(n)
		if err != nil {
			return nil, err
		}
		for w := 0; w < n; w++ {
			fmt.Printf("worker %d data endpoint: %s\n", w, network.Addr(w))
		}
		return network, nil
	}

	rng := rand.New(rand.NewSource(7))
	initial := make([]uint32, g.NumVertices())
	for i := range initial {
		initial[i] = rng.Uint32()
	}

	spec := pregelnet.JobSpec[uint32]{
		Graph:          g,
		NumWorkers:     workers,
		NetworkFactory: tcp,
		Codec:          uint32Codec{},
		Combiner:       maxCombiner{},
		NewProgram: func(_ int, _ *pregelnet.Graph, owned []pregelnet.VertexID) pregelnet.VertexProgram[uint32] {
			p := &maxProgram{values: make([]uint32, len(owned)), seed: make([]uint32, len(owned))}
			for li, v := range owned {
				p.seed[li] = initial[v]
			}
			return p
		},
		ActivateAll: true,
	}
	switch *model {
	case "vertex":
	case "subgraph":
		pregelnet.UseSubgraphModel(&spec)
		fmt.Println("running under the subgraph-centric model (vertex adapter)")
	default:
		log.Fatalf("unknown -model %q (want vertex or subgraph)", *model)
	}
	res, err := pregelnet.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	// Verify: every vertex converged to the global maximum.
	var want uint32
	for _, v := range initial {
		if v > want {
			want = v
		}
	}
	for w, prog := range res.Programs {
		p := prog.(*maxProgram)
		for li := range res.Owned[w] {
			if p.values[li] != want {
				log.Fatalf("vertex did not converge: %d != %d", p.values[li], want)
			}
		}
	}
	var remoteBytes int64
	for _, s := range res.Steps {
		remoteBytes += s.RemoteBytes
	}
	fmt.Printf("\nconverged to max %d in %d supersteps over real TCP\n", want, res.Supersteps)
	fmt.Printf("%d messages total, %.1f KiB of bulk batches on the wire, %.1f ms wall time\n",
		res.TotalMessages(), float64(remoteBytes)/1024, res.WallSeconds*1000)
}

// uint32Codec encodes messages as 4 little-endian bytes.
type uint32Codec struct{}

func (uint32Codec) Append(buf []byte, m uint32) []byte {
	return append(buf, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
}

func (uint32Codec) Decode(data []byte) (uint32, int) {
	return uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24, 4
}

func (uint32Codec) Size(uint32) int { return 4 }
