// Command benchmark is the repository's benchmark: five real-size BSP
// workloads, each timed end to end (load, partition, run, results out) and
// layer by layer, with every job's output checked against a sequential
// oracle. See README.md in this directory.
//
//	go run ./benchmark -workload pr-rmat-chan -seed 1 -seconds 12 -trace 0
//	go run ./benchmark -workload bc-swath-tcp -trace 1     # per-layer numbers + Chrome trace
//	go run ./benchmark -selfcheck                          # whole suite twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	var cfg config
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the input graph is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "seconds of timed reps (at least 3 reps run regardless)")
	trace := flag.Int("trace", 0, "1: also run the traced jobs and micro-drives and print the per-layer metrics")
	flag.BoolVar(&cfg.tiny, "tiny", false, "test-sized inputs (not a measurement)")
	flag.StringVar(&cfg.dir, "out", filepath.Join("benchmark", "out"), "directory for input, result, report and trace files")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of extra, untimed jobs run after the timed reps")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write an allocation profile after those extra jobs")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice in fresh processes and compare against BENCHMARK.json's bounds")
	flag.Parse()
	cfg.trace = *trace != 0

	if *selfcheck {
		if err := runSelfcheck(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	cfg.workload = workloadByName(*name)
	if cfg.workload == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have:\n", *name)
		for _, w := range workloads() {
			fmt.Fprintf(os.Stderr, "  %-18s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	family := endToEnd
	if cfg.trace {
		family = perLayer
	}
	line, err := json.Marshal(rep.result(family))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// config is one invocation's settings.
type config struct {
	workload               *workload
	seed                   int64
	seconds                float64
	trace, tiny            bool
	dir                    string
	cpuProfile, memProfile string
}

const (
	// setupRounds is how often set-up runs so setup_s is a median too.
	setupRounds = 3
	minReps     = 3
	tracedJobs  = 2
	// profiledJobs run under -cpuprofile/-memprofile, after every timed rep.
	profiledJobs = 3
	// additivityTolerance bounds how far the reported layer medians may be
	// from summing to the reported job_s before the run is printed as invalid
	// (and fails -selfcheck). It does not touch "correct", which is about the
	// jobs' outputs.
	additivityTolerance = 0.02
)

// runner carries one invocation's job bookkeeping.
type runner struct {
	cfg               config
	in                input
	attempted, failed int
	failures          []string
}

// job runs one checked job and counts it. A job that errors, times out
// inside the engine or fails the oracle counts as failed and yields no
// sample.
func (r *runner) job(env *jobEnv) (sample, bool) {
	r.attempted++
	s, err := r.cfg.workload.runJob(r.in, r.cfg.dir, env)
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
		return s, false
	}
	return s, true
}

func run(cfg config) (*report, error) {
	w := cfg.workload
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg}
	var setupS []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		in, err := w.setup(cfg.seed, cfg.tiny, cfg.dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		r.in = in
	}

	timed := &jobEnv{}
	r.job(timed) // warm-up: pools filled, pages faulted in; checked, not timed
	var samples []sample
	start := time.Now()
	for reps := 0; reps < minReps || time.Since(start).Seconds() < cfg.seconds; reps++ {
		if s, ok := r.job(timed); ok {
			samples = append(samples, s)
		}
	}
	rep := newReport(cfg, r.in)
	rep.add("setup_s", statOf(setupS))
	if len(samples) > 0 {
		rep.addTimed(samples, r.in)
	}

	if cfg.trace && len(samples) > 0 {
		if err := r.traced(rep, samples[0].engine); err != nil {
			return nil, err
		}
		if err := rep.addMicro(w, cfg.tiny); err != nil {
			return nil, err
		}
	}
	if cfg.cpuProfile != "" || cfg.memProfile != "" {
		if err := r.profiled(timed); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed, rep.Failures = r.attempted, r.failed, r.failures
	rep.Correct = r.failed == 0
	return rep, rep.save(filepath.Join(cfg.dir, w.name+".report.json"))
}

// profiled runs extra jobs under the profilers. They are not samples: a
// profile perturbs what it measures, so it never overlaps a timed rep.
func (r *runner) profiled(env *jobEnv) error {
	if r.cfg.cpuProfile != "" {
		f, err := os.Create(r.cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	for i := 0; i < profiledJobs; i++ {
		r.job(env)
	}
	if r.cfg.memProfile == "" {
		return nil
	}
	runtime.GC() // materialize the allocation samples of the jobs just run
	return writeFile(r.cfg.memProfile, func(f *os.File) error {
		return pprof.Lookup("allocs").WriteTo(f, 0)
	})
}
