package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"pregelnet/internal/observe"
)

// metric names one reported number. exact marks counts that must repeat
// bit for bit between runs of the same commit on the same input.
type metric struct {
	name, unit string
	exact      bool
}

// endToEnd and perLayer list every metric the runner prints, in report
// order; BENCHMARK.json carries the same names (a test holds them equal)
// plus each end-to-end metric's regression bound.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "job_s", unit: "s"},
	{name: "execute_s", unit: "s"},
	{name: "alloc_mb", unit: "MB"},
}

var perLayer = []metric{
	{name: "graph.load_s", unit: "s"},
	{name: "graph.load_mb_per_s", unit: "MB/s"},
	{name: "partition.assign_s", unit: "s"},
	{name: "partition.cut_frac", unit: "frac", exact: true},
	{name: "partition.balance", unit: "ratio", exact: true},
	{name: "core.supersteps", unit: "count", exact: true},
	{name: "core.msgs_local", unit: "count", exact: true},
	{name: "core.msgs_remote", unit: "count", exact: true},
	{name: "core.compute_ops", unit: "count", exact: true},
	{name: "core.model_peak_mem_mb", unit: "MB", exact: true},
	{name: "core.recoveries", unit: "count", exact: true},
	{name: "core.replayed_msgs", unit: "count", exact: true},
	{name: "core.scale_events", unit: "count", exact: true},
	{name: "core.migrated_bytes", unit: "bytes", exact: true},
	{name: "core.moved_vertices", unit: "count", exact: true},
	{name: "core.retries", unit: "count", exact: true},
	{name: "core.run_s", unit: "s"},
	{name: "core.step_overhead_us", unit: "us"},
	{name: "core.superstep_ms_p50", unit: "ms"},
	{name: "core.superstep_ms_max", unit: "ms"},
	{name: "core.peak_heap_mb", unit: "MB"},
	{name: "core.compute_s", unit: "s"},
	{name: "core.barrier_wait_s", unit: "s"},
	{name: "core.barrier_collect_s", unit: "s"},
	{name: "core.send_stall_s", unit: "s"},
	{name: "core.outbox_flush_s", unit: "s"},
	{name: "core.checkpoint_s", unit: "s"},
	{name: "core.restore_s", unit: "s"},
	{name: "core.replay_s", unit: "s"},
	{name: "core.migrate_s", unit: "s"},
	{name: "core.resize_s", unit: "s"},
	{name: "core.unattributed_frac", unit: "frac"},
	{name: "core.codec_encode_ns", unit: "ns"},
	{name: "core.codec_decode_ns", unit: "ns"},
	{name: "transport.send_s", unit: "s"},
	{name: "transport.send_calls", unit: "count", exact: true},
	{name: "transport.wire_mb", unit: "MB", exact: true},
	{name: "transport.recv_batches", unit: "count", exact: true},
	{name: "transport.tcp_roundtrip_us", unit: "us"},
	{name: "transport.tcp_mb_per_s", unit: "MB/s"},
	{name: "transport.chan_roundtrip_us", unit: "us"},
	{name: "transport.msglog_append_ns", unit: "ns"},
	{name: "cloud.queue_roundtrip_us", unit: "us"},
	{name: "cloud.queue_puts", unit: "count", exact: true},
	{name: "cloud.queue_wait_s", unit: "s"},
	{name: "cloud.blob_put_mb_per_s", unit: "MB/s"},
	{name: "cloud.sim_s", unit: "s", exact: true},
	{name: "cloud.sim_over_wall", unit: "ratio"},
	{name: "algorithms.extract_s", unit: "s"},
	{name: "observe.trace_overhead_frac", unit: "frac"},
	{name: "observe.events", unit: "count"},
	{name: "observe.dropped_events", unit: "count", exact: true},
}

// stat is a timing's median with the spread and sample count printed
// beside it. No tail percentile: a run has fewer than ten samples beyond
// any.
type stat struct {
	Median, Min, Max float64
	N                int
}

func statOf(xs []float64) stat {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return stat{Median: (s[(n-1)/2] + s[n/2]) / 2, Min: s[0], Max: s[n-1], N: n}
}

func statBy(samples []sample, f func(*sample) float64) stat {
	xs := make([]float64, len(samples))
	for i := range samples {
		xs[i] = f(&samples[i])
	}
	return statOf(xs)
}

// report is everything one invocation measured. Values holds every metric
// by name, whichever family the JSON line then selects; the whole report is
// also saved beside the input so -selfcheck can compare two runs.
type report struct {
	Workload  string
	Seed      int64
	Vertices  int
	Arcs      int
	Attempted int
	Failed    int
	Failures  []string `json:",omitempty"`
	Correct   bool
	// AdditivityGap is (load + assign + run + extract) / job_s - 1.
	AdditivityGap float64
	// CountDrift names exact metrics that differed between this run's reps.
	CountDrift []string `json:",omitempty"`
	Values     map[string]float64
	Spread     map[string]stat
}

func newReport(cfg config, in input) *report {
	return &report{Workload: cfg.workload.name, Seed: cfg.seed, Vertices: in.vertices, Arcs: in.arcs,
		Values: make(map[string]float64), Spread: make(map[string]stat)}
}

func (r *report) set(name string, v float64) { r.Values[name] = v }

func (r *report) add(name string, s stat) {
	r.Values[name] = s.Median
	r.Spread[name] = s
}

// engineCounts maps one run's engine summary onto the exact core metrics.
func engineCounts(e engineRun) map[string]float64 {
	return map[string]float64{
		"core.supersteps":        float64(e.supersteps),
		"core.msgs_local":        float64(e.msgsLocal),
		"core.msgs_remote":       float64(e.msgsRemote),
		"core.compute_ops":       float64(e.computeOps),
		"core.model_peak_mem_mb": float64(e.modelPeakMem) / mb,
		"core.recoveries":        float64(e.recoveries),
		"core.replayed_msgs":     float64(e.replayedMsgs),
		"core.scale_events":      float64(e.scaleEvents),
		"core.migrated_bytes":    float64(e.migratedBytes),
		"core.moved_vertices":    float64(e.movedVertices),
		"core.retries":           float64(e.retries),
		"cloud.queue_puts":       float64(e.queuePuts),
		"cloud.sim_s":            e.simS,
	}
}

// addTimed reduces the timed (untraced) reps: the end-to-end metrics and
// every per-layer number that needs no tracing.
func (r *report) addTimed(samples []sample, in input) {
	r.add("job_s", statBy(samples, func(s *sample) float64 { return s.jobS }))
	r.add("execute_s", statBy(samples, func(s *sample) float64 { return s.engine.runS }))
	r.add("alloc_mb", statBy(samples, func(s *sample) float64 { return s.allocMB }))
	r.add("graph.load_s", statBy(samples, func(s *sample) float64 { return s.loadS }))
	r.add("partition.assign_s", statBy(samples, func(s *sample) float64 { return s.assignS }))
	r.add("algorithms.extract_s", statBy(samples, func(s *sample) float64 { return s.extractS }))
	r.set("core.run_s", r.Values["execute_s"])
	r.set("graph.load_mb_per_s", float64(in.fileBytes)/mb/r.Values["graph.load_s"])

	first := samples[0]
	r.set("partition.cut_frac", first.quality.CutFraction)
	r.set("partition.balance", first.quality.Balance)
	counts := engineCounts(first.engine)
	for name, v := range counts {
		r.set(name, v)
	}
	for i := range samples[1:] {
		for name, v := range engineCounts(samples[1+i].engine) {
			if v != counts[name] && !slices.Contains(r.CountDrift, name) {
				r.CountDrift = append(r.CountDrift, name)
			}
		}
	}
	slices.Sort(r.CountDrift)
	r.set("core.step_overhead_us", r.Values["core.run_s"]/float64(first.engine.supersteps)*1e6)
	r.set("cloud.sim_over_wall", first.engine.simS/r.Values["core.run_s"])

	layers := r.Values["graph.load_s"] + r.Values["partition.assign_s"] +
		r.Values["core.run_s"] + r.Values["algorithms.extract_s"]
	r.AdditivityGap = layers/r.Values["job_s"] - 1
}

func (r *report) additive() bool {
	return math.Abs(r.AdditivityGap) <= additivityTolerance
}

// traced runs the traced jobs: same job, with the benchmark's tracer handed
// to the engine, the network decorated and OnStep sampled. Their timings
// feed only the per-layer metrics and the tracing overhead.
func (r *runner) traced(rep *report, typical engineRun) error {
	// Sized from the untraced run so nothing drops: a few dozen spans per
	// superstep across manager, workers and their transport tracks, plus
	// send, recv and flush events per batch.
	perJob := 64*typical.supersteps + 8*int(typical.remoteBytes/batchBytes) + 4096
	tracer, rec := observe.NewTraceRecorder(tracedJobs * perJob)
	env := tracedEnv(tracer)

	var jobS []float64
	var jobs []int64
	ends := []int{0} // ends[i] is where job i's events stop in the recording
	for i := 0; i < tracedJobs; i++ {
		s, ok := r.job(env)
		ends = append(ends, rec.Len())
		if ok {
			jobS = append(jobS, s.jobS)
			jobs = append(jobs, int64(i+1))
		}
	}
	rep.set("observe.dropped_events", float64(rec.Dropped()))
	events := rec.Snapshot()
	for i := 0; i < tracedJobs; i++ {
		stampJob(events[ends[i]:ends[i+1]], int64(i+1))
	}
	err := writeFile(filepath.Join(r.cfg.dir, r.cfg.workload.name+".trace.json"), func(f *os.File) error {
		return observe.WriteChromeTrace(f, events)
	})
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return nil
	}

	// Per-job numbers are averaged over the traced jobs; superstep durations
	// are pooled.
	mean := make(map[string]float64)
	var stepMs []float64
	for _, job := range jobs {
		ts := summarize(events, job)
		share := 1 / float64(len(jobs))
		attributed := 0.0
		for _, a := range attribution {
			mean[a.metric] += ts.attributed[a.metric] * share
			attributed += ts.attributed[a.metric]
		}
		mean["core.unattributed_frac"] += (1 - attributed/ts.runS) * share
		mean["transport.send_s"] += ts.sendS * share
		mean["transport.send_calls"] += float64(ts.sendCalls) * share
		mean["transport.wire_mb"] += float64(ts.wireBytes) / mb * share
		mean["transport.recv_batches"] += float64(ts.recvBatches) * share
		mean["observe.events"] += float64(ts.events) * share
		stepMs = append(stepMs, ts.stepMs...)
	}
	for name, v := range mean {
		rep.set(name, v)
	}
	steps := statOf(stepMs)
	rep.set("core.superstep_ms_p50", steps.Median)
	rep.set("core.superstep_ms_max", steps.Max)
	rep.set("core.peak_heap_mb", float64(env.steps.peakHeap)/mb)
	rep.set("observe.trace_overhead_frac", statOf(jobS).Median/rep.Values["job_s"]-1)
	return nil
}

// addMicro runs the micro-drives. Every workload runs all of them, so every
// run prints every per-layer metric; README.md says on which workload each
// one is the number to watch.
func (r *report) addMicro(w *workload, tiny bool) error {
	scale := pick(tiny, 100, 1)
	runtime.GC() // start from the same heap whatever the jobs left behind
	enc, dec := w.codecDrive(1_000_000 / scale)
	r.set("core.codec_encode_ns", enc)
	r.set("core.codec_decode_ns", dec)

	tcp, err := tcpNetwork(2)
	if err != nil {
		return err
	}
	rtt, rate, err := networkDrive(tcp, 2000/scale, 512/scale+1)
	if err != nil {
		return err
	}
	r.set("transport.tcp_roundtrip_us", rtt)
	r.set("transport.tcp_mb_per_s", rate)
	channels, _ := chanNetwork(2)
	rtt, _, err = networkDrive(channels, 20000/scale, 1)
	if err != nil {
		return err
	}
	r.set("transport.chan_roundtrip_us", rtt)
	r.set("transport.msglog_append_ns", msglogDrive(2048/scale+32))
	r.set("cloud.queue_roundtrip_us", queueDrive(20000/scale))
	blob, err := blobDrive(128/scale + 4)
	if err != nil {
		return err
	}
	r.set("cloud.blob_put_mb_per_s", blob)
	return nil
}

// print writes the human-readable report: every metric measured, by name,
// with its unit, and min/max/N beside each median.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  %d vertices  %d arcs  (%.0f arcs/s)\n",
		r.Workload, r.Seed, r.Vertices, r.Arcs, float64(r.Arcs)/r.Values["job_s"])
	for _, family := range [][]metric{endToEnd, perLayer} {
		for _, m := range family {
			v, ok := r.Values[m.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-28s %14.6g %-6s", m.name, v, m.unit)
			if s, ok := r.Spread[m.name]; ok {
				fmt.Fprintf(w, "  [min %.6g  max %.6g  N=%d]", s.Min, s.Max, s.N)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-6s  [%d failed of %d jobs]\n", "failed_frac",
		float64(r.Failed)/float64(r.Attempted), "frac", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	verdict := "ok"
	if !r.additive() {
		verdict = "INVALID"
	}
	fmt.Fprintf(w, "  additivity: load + assign + run + extract = job_s %+.2f%% (tolerance %.0f%%): %s\n",
		100*r.AdditivityGap, 100*additivityTolerance, verdict)
	if len(r.CountDrift) > 0 {
		fmt.Fprintf(w, "  WARNING: counts differed between reps: %v\n", r.CountDrift)
	}
}

// result is the driver-facing summary: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result(family []metric) result {
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]resultValue, len(family))}
	for _, m := range family {
		res.Metrics[m.name] = resultValue{Value: r.Values[m.name], Unit: m.unit}
	}
	return res
}

func (r *report) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
