package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"pregelnet/internal/core"
	"pregelnet/internal/graph"
	"pregelnet/internal/observe"
	"pregelnet/internal/partition"
	"pregelnet/internal/transport"
)

// Span kinds recorded by the runner around its calls into each layer. They
// share the engine's tracer, so the engine's own spans nest beneath
// bench.run in one trace.
const (
	kindJob       observe.Kind = "bench.job"
	kindLoad      observe.Kind = "bench.load"
	kindPartition observe.Kind = "bench.partition"
	kindRun       observe.Kind = "bench.run"
	kindSuperstep observe.Kind = "bench.superstep"
	kindSave      observe.Kind = "bench.save"
	kindSend      observe.Kind = "bench.send"
	kindRecv      observe.Kind = "bench.recv"
)

// jobEnv is what distinguishes a traced job from a timed one. The zero
// value (nil tracer, no step sampler) is the timed configuration: nothing
// of the benchmark's sits between the engine and its substrate.
type jobEnv struct {
	tracer *observe.Tracer
	// steps, when set, samples wall time and heap at every OnStep.
	steps *stepSampler
}

func tracedEnv(tracer *observe.Tracer) *jobEnv {
	return &jobEnv{tracer: tracer, steps: &stepSampler{tracer: tracer}}
}

// stepSampler turns OnStep callbacks into bench.superstep spans and heap
// samples. ReadMemStats stops the world, which is why it only runs traced.
type stepSampler struct {
	tracer   *observe.Tracer
	open     observe.Span
	peakHeap uint64
}

func (s *stepSampler) begin() {
	s.open = s.tracer.Start(kindSuperstep, observe.ManagerWorker, 0)
}

func (s *stepSampler) onStep(st core.StepStats) {
	s.open.End()
	s.open = s.tracer.Start(kindSuperstep, observe.ManagerWorker, st.Superstep+1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > s.peakHeap {
		s.peakHeap = ms.HeapInuse
	}
}

// configure applies the benchmark's fixed settings and the env's
// instrumentation to a workload's JobSpec.
func configure[M any](spec *core.JobSpec[M], w *workload, a partition.Assignment, env *jobEnv) {
	spec.Assignment = a
	spec.NumWorkers = numWorkers
	spec.ComputeParallelism = computeParallelism
	// A hung barrier must fail the job well inside the driver's per-run
	// limit rather than after the engine's 60 s default.
	spec.BarrierTimeout = 20 * time.Second
	spec.Tracer = env.tracer
	spec.NetworkFactory = w.network
	if env.tracer.Enabled() {
		spec.NetworkFactory = func(n int) (transport.Network, error) {
			inner, err := w.network(n)
			if err != nil {
				return nil, err
			}
			return &tracedNetwork{inner: inner, tracer: env.tracer}, nil
		}
	}
	if env.steps != nil {
		spec.OnStep = env.steps.onStep
	}
}

// engineRun is the part of a core.JobResult the report needs, erased over
// the message type.
type engineRun struct {
	runS          float64 // wall seconds inside core.Run
	simS          float64
	supersteps    int
	msgsLocal     int64
	msgsRemote    int64
	remoteBytes   int64
	computeOps    int64
	modelPeakMem  int64
	recoveries    int
	replayedMsgs  int64
	scaleEvents   int
	migratedBytes int64
	movedVertices int
	retries       int64
	queuePuts     uint64
}

func runEngine[M any](spec core.JobSpec[M], extract func(*core.JobResult[M]) output) (engineRun, func() output, error) {
	start := time.Now()
	res, err := core.Run(spec)
	er := engineRun{runS: time.Since(start).Seconds()}
	if err != nil {
		return er, nil, err
	}
	er.simS = res.SimSeconds
	er.supersteps = res.Supersteps
	er.modelPeakMem = res.PeakMemory()
	er.recoveries = res.Recoveries
	er.retries = res.Retries
	er.scaleEvents = len(res.ScaleEvents)
	for i := range res.Steps {
		er.msgsLocal += res.Steps[i].SentLocal
		er.msgsRemote += res.Steps[i].SentRemote
		er.remoteBytes += res.Steps[i].RemoteBytes
		er.computeOps += res.Steps[i].ComputeOps
	}
	for _, ev := range res.RecoveryEvents {
		er.replayedMsgs += ev.ReplayedMsgs
	}
	for _, ev := range res.ScaleEvents {
		er.migratedBytes += ev.MigratedBytes
		er.movedVertices += ev.MovedVertices
	}
	for _, qs := range res.QueueStats {
		er.queuePuts += qs.Puts
	}
	return er, func() output { return extract(res) }, nil
}

// input is what set-up hands the jobs: the graph file and the oracle.
type input struct {
	path      string
	fileBytes int64
	arcs      int
	vertices  int
	want      output
}

func (w *workload) inputPath(dir string) string {
	return filepath.Join(dir, w.name+pick(w.textIO, ".edges.txt", ".graph.bin"))
}

func (w *workload) resultPath(dir string) string {
	return filepath.Join(dir, w.name+pick(w.textIO, ".result.txt", ".result.bin"))
}

func (w *workload) loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if w.textIO {
		// The generators emit each undirected edge as two arcs already.
		return graph.ReadEdgeList(f, false)
	}
	return graph.ReadBinary(f)
}

func writeFile(path string, write func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// setup generates the workload's input from the seed, writes it to dir, and
// computes the sequential oracle on the graph as the job's loader will see
// it (the text loader renumbers vertices in first-appearance order).
func (w *workload) setup(seed int64, tiny bool, dir string) (input, error) {
	g := w.generate(seed, tiny)
	in := input{path: w.inputPath(dir)}
	err := writeFile(in.path, func(f *os.File) error {
		if w.textIO {
			return graph.WriteEdgeList(f, g)
		}
		return graph.WriteBinary(f, g)
	})
	if err != nil {
		return in, err
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return in, err
	}
	in.fileBytes = st.Size()
	loaded, err := w.loadGraph(in.path)
	if err != nil {
		return in, fmt.Errorf("reading back %s: %w", in.path, err)
	}
	in.vertices, in.arcs = loaded.NumVertices(), loaded.NumEdges()
	in.want = w.oracle(loaded)
	return in, nil
}

func (w *workload) saveResult(path string, out output) error {
	return writeFile(path, func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 1<<20)
		var buf [24]byte
		switch {
		case w.textIO:
			for v, x := range out.ints {
				line := strconv.AppendInt(buf[:0], int64(v), 10)
				line = append(line, '\t')
				line = strconv.AppendInt(line, int64(x), 10)
				line = append(line, '\n')
				if _, err := bw.Write(line); err != nil {
					return err
				}
			}
		case out.floats != nil:
			for _, x := range out.floats {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(x))
				if _, err := bw.Write(buf[:8]); err != nil {
					return err
				}
			}
		default:
			for _, x := range out.ints {
				binary.LittleEndian.PutUint32(buf[:4], uint32(x))
				if _, err := bw.Write(buf[:4]); err != nil {
					return err
				}
			}
		}
		return bw.Flush()
	})
}

// sample is one job's measurements. A job is: load file, partition,
// core.Run, extract the result and write the result file.
type sample struct {
	// jobS is the sum of the four stage times below.
	jobS, loadS, assignS, runS, extractS float64
	allocMB                              float64
	engine                               engineRun
	quality                              partition.Quality
}

const mb = 1e6

// runJob executes one whole job against the input file and checks its
// output against the oracle.
//
// Each stage starts from a collected heap, with the collection outside the
// clock (as the one before the job is). Without that fence a stage pays for
// its predecessor's garbage whenever the collector's trigger happens to
// fall inside it: on wcc-sub-frontend a cycle started by the loader's
// garbage landed inside the 30 ms core.Run in some processes and not in
// others, and execute_s read 0.028 s or 0.045 s accordingly. job_s is the
// sum of the stage times; the check and the partition-quality evaluation
// sit outside the timed region too.
func (w *workload) runJob(in input, dir string, env *jobEnv) (sample, error) {
	var s sample
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stage := func(kind observe.Kind, run func() error) (float64, error) {
		runtime.GC()
		span := env.tracer.Start(kind, observe.ManagerWorker, -1)
		start := time.Now()
		err := run()
		seconds := time.Since(start).Seconds()
		span.End()
		return seconds, err
	}

	jobSpan := env.tracer.Start(kindJob, observe.ManagerWorker, -1)
	var (
		g       *graph.Graph
		assign  partition.Assignment
		extract func() output
		out     output
		err     error
	)
	if s.loadS, err = stage(kindLoad, func() (err error) {
		g, err = w.loadGraph(in.path)
		return err
	}); err != nil {
		return s, err
	}
	s.assignS, _ = stage(kindPartition, func() error {
		assign = w.partitioner.Partition(g, numWorkers)
		return nil
	})
	if s.runS, err = stage(kindRun, func() (err error) {
		if env.steps != nil {
			env.steps.begin()
		}
		s.engine, extract, err = w.job(g, assign, env)
		return err
	}); err != nil {
		return s, err
	}
	if s.extractS, err = stage(kindSave, func() error {
		out = extract()
		return w.saveResult(w.resultPath(dir), out)
	}); err != nil {
		return s, err
	}
	jobSpan.End()
	runtime.ReadMemStats(&after)
	s.jobS = s.loadS + s.assignS + s.runS + s.extractS
	s.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / mb

	if err := w.check(out, in.want); err != nil {
		return s, fmt.Errorf("oracle check: %w", err)
	}
	s.quality, err = partition.Evaluate(g, assign, numWorkers, w.partitioner.Name())
	return s, err
}
