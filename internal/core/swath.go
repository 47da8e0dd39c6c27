package core

import (
	"fmt"
	"strconv"
	"strings"

	"pregelnet/internal/graph"
)

// Swath scheduling (paper §IV): instead of starting all |V| traversals at
// once — which buffers O(|V||E|) messages and blows past physical memory —
// computation is initiated for a subset ("swath") of source vertices at a
// time. Two families of heuristics control it:
//
//   - Swath *size* heuristics decide how many sources form a swath so that
//     peak-superstep messages fit in physical memory: a static size, a
//     sampling heuristic (run small probe swaths, extrapolate), and an
//     adaptive heuristic (linear interpolation on the previous swath's peak
//     memory).
//   - Swath *initiation* heuristics decide when to start the next swath:
//     sequentially (after the previous fully drains), every N supersteps
//     (static-N), or dynamically when the message traffic shows a phase
//     change — an increase followed by a decrease (the traversal peak has
//     passed).

// SwathScheduler is consulted by the job manager before every superstep.
type SwathScheduler interface {
	// NextSources returns the vertices to inject (activate) before the
	// upcoming superstep. prev is the just-completed superstep's stats, or
	// nil before superstep 0. Returning an empty slice injects nothing.
	NextSources(prev *StepStats) []graph.VertexID
	// Done reports whether every source has been injected.
	Done() bool
}

// AllAtOnce injects every source at superstep 0 — the original Pregel model
// (and the paper's single-swath baseline when given a subset of sources).
type AllAtOnce struct {
	sources  []graph.VertexID
	injected bool
}

// NewAllAtOnce returns a scheduler that injects all sources at superstep 0.
func NewAllAtOnce(sources []graph.VertexID) *AllAtOnce {
	return &AllAtOnce{sources: sources}
}

// NextSources implements SwathScheduler.
func (a *AllAtOnce) NextSources(prev *StepStats) []graph.VertexID {
	if a.injected {
		return nil
	}
	a.injected = true
	return a.sources
}

// Done implements SwathScheduler.
func (a *AllAtOnce) Done() bool { return a.injected }

// SwathObservation records one completed swath window: the number of sources
// injected and the peak worker memory observed between that injection and
// the next.
type SwathObservation struct {
	Size       int
	PeakMemory int64
	Supersteps int
}

// SwathSizer chooses the size of the next swath from the completed
// observations.
type SwathSizer interface {
	NextSize(history []SwathObservation) int
}

// SwathInitiator decides when to start the next swath. The runner always
// initiates when the system has fully quiesced, regardless of the
// initiator, so jobs cannot stall.
type SwathInitiator interface {
	// ShouldInitiate is consulted after each superstep. stepsSinceInject is
	// the number of supersteps completed since the last injection;
	// msgWindow holds total messages sent in each of those supersteps.
	ShouldInitiate(stepsSinceInject int, prev *StepStats, msgWindow []int64) bool
}

// SwathRunner composes a sizer and an initiator into a SwathScheduler over
// a fixed list of source vertices.
type SwathRunner struct {
	sources   []graph.VertexID
	next      int
	sizer     SwathSizer
	initiator SwathInitiator

	history       []SwathObservation
	msgWindow     []int64
	peakMemWindow int64
	stepsSince    int
	lastSize      int
}

// NewSwathRunner returns a scheduler that injects `sources` in swaths sized
// by `sizer`, initiated by `initiator`.
func NewSwathRunner(sources []graph.VertexID, sizer SwathSizer, initiator SwathInitiator) *SwathRunner {
	return &SwathRunner{sources: sources, sizer: sizer, initiator: initiator}
}

// History returns the completed swath observations (for tests and reports).
func (r *SwathRunner) History() []SwathObservation { return r.history }

// NextSources implements SwathScheduler.
func (r *SwathRunner) NextSources(prev *StepStats) []graph.VertexID {
	if prev != nil {
		r.stepsSince++
		r.msgWindow = append(r.msgWindow, prev.TotalSent())
		if prev.PeakMemoryBytes > r.peakMemWindow {
			r.peakMemWindow = prev.PeakMemoryBytes
		}
	}
	if r.next >= len(r.sources) {
		// All sources injected: once the final swath drains, flush its
		// pending observation so History() covers every swath (without this
		// the last window's size/peak-memory would be silently dropped from
		// reports and sizer feedback).
		if prev != nil && prev.ActiveVertices == 0 && prev.TotalSent() == 0 {
			r.flushObservation()
		}
		return nil
	}
	if prev == nil {
		return r.inject() // first swath at superstep 0
	}
	quiesced := prev.ActiveVertices == 0 && prev.TotalSent() == 0
	if quiesced || r.initiator.ShouldInitiate(r.stepsSince, prev, r.msgWindow) {
		return r.inject()
	}
	return nil
}

// flushObservation records the in-flight swath's window into history and
// resets the window accumulators. No-op when no swath is pending.
func (r *SwathRunner) flushObservation() {
	if r.lastSize == 0 {
		return
	}
	r.history = append(r.history, SwathObservation{
		Size:       r.lastSize,
		PeakMemory: r.peakMemWindow,
		Supersteps: r.stepsSince,
	})
	r.lastSize = 0
	r.peakMemWindow = 0
	r.stepsSince = 0
	r.msgWindow = r.msgWindow[:0]
}

func (r *SwathRunner) inject() []graph.VertexID {
	r.flushObservation()
	size := r.sizer.NextSize(r.history)
	if size < 1 {
		size = 1
	}
	if size > len(r.sources)-r.next {
		size = len(r.sources) - r.next
	}
	swath := r.sources[r.next : r.next+size]
	r.next += size
	r.lastSize = size
	r.peakMemWindow = 0
	r.stepsSince = 0
	r.msgWindow = r.msgWindow[:0]
	return swath
}

// Done implements SwathScheduler.
func (r *SwathRunner) Done() bool { return r.next >= len(r.sources) }

// StaticSizer always returns a fixed swath size.
type StaticSizer int

// NextSize implements SwathSizer.
func (s StaticSizer) NextSize([]SwathObservation) int { return int(s) }

// AdaptiveSizer implements the paper's adaptive heuristic: the next swath
// size is the previous size linearly scaled by target/observed peak memory,
// so memory usage converges toward (but stays under) the target.
type AdaptiveSizer struct {
	// Initial is the first swath's size (a small safe probe).
	Initial int
	// TargetMemoryBytes is the per-worker memory ceiling to aim for (the
	// paper uses 6 GB against 7 GB physical). Zero or negative means "no
	// target": the sizer keeps the previous swath's size instead of scaling
	// it (a zero target must not collapse every swath to size 1).
	TargetMemoryBytes int64
	// MaxGrowth bounds the growth factor per adjustment (default 2.0) so a
	// low-memory observation cannot trigger a catastrophic overshoot.
	MaxGrowth float64
	// MaxSize caps the swath size (0 = unlimited).
	MaxSize int
}

// NextSize implements SwathSizer.
func (a *AdaptiveSizer) NextSize(history []SwathObservation) int {
	if len(history) == 0 {
		if a.Initial < 1 {
			return 1
		}
		return a.Initial
	}
	last := history[len(history)-1]
	size := last.Size
	if a.TargetMemoryBytes > 0 && last.PeakMemory > 0 {
		scaled := float64(size) * float64(a.TargetMemoryBytes) / float64(last.PeakMemory)
		growth := a.MaxGrowth
		if growth <= 0 {
			growth = 2.0
		}
		if scaled > float64(size)*growth {
			scaled = float64(size) * growth
		}
		size = int(scaled)
	}
	if size < 1 {
		size = 1
	}
	if a.MaxSize > 0 && size > a.MaxSize {
		size = a.MaxSize
	}
	return size
}

// SamplingSizer implements the paper's sampling heuristic: run a few small
// probe swaths while monitoring peak memory, then extrapolate a single
// static size for the rest of the computation.
type SamplingSizer struct {
	// SampleSize is the size of each probe swath.
	SampleSize int
	// Samples is how many probe swaths to run before extrapolating.
	Samples int
	// TargetMemoryBytes is the per-worker memory ceiling to aim for.
	TargetMemoryBytes int64
	// MaxSize caps the extrapolated size (0 = unlimited).
	MaxSize int

	extrapolated int
}

// NextSize implements SwathSizer.
func (s *SamplingSizer) NextSize(history []SwathObservation) int {
	if len(history) < s.Samples {
		if s.SampleSize < 1 {
			return 1
		}
		return s.SampleSize
	}
	if s.extrapolated == 0 {
		var peak int64
		for _, obs := range history[:s.Samples] {
			if obs.PeakMemory > peak {
				peak = obs.PeakMemory
			}
		}
		size := s.SampleSize
		if peak > 0 {
			size = int(float64(s.SampleSize) * float64(s.TargetMemoryBytes) / float64(peak))
		}
		if size < 1 {
			size = 1
		}
		if s.MaxSize > 0 && size > s.MaxSize {
			size = s.MaxSize
		}
		s.extrapolated = size
	}
	return s.extrapolated
}

// SequentialInitiator only starts the next swath when the previous has fully
// drained (the paper's baseline initiation).
type SequentialInitiator struct{}

// ShouldInitiate implements SwathInitiator.
func (SequentialInitiator) ShouldInitiate(_ int, prev *StepStats, _ []int64) bool {
	return prev.ActiveVertices == 0 && prev.TotalSent() == 0
}

// StaticNInitiator starts a new swath every N supersteps (the paper's
// Static-N). Performance depends on how N compares to the graph's average
// shortest-path length.
type StaticNInitiator int

// ShouldInitiate implements SwathInitiator.
func (n StaticNInitiator) ShouldInitiate(stepsSinceInject int, _ *StepStats, _ []int64) bool {
	return stepsSinceInject >= int(n)
}

// DynamicPeakInitiator starts a new swath when it detects a phase change in
// message traffic — an increase followed by a decrease — meaning the
// previous swath's traversal peak has passed (the paper's dynamic
// heuristic for BC's triangle-waveform message profile).
type DynamicPeakInitiator struct{}

// ShouldInitiate implements SwathInitiator.
func (DynamicPeakInitiator) ShouldInitiate(_ int, _ *StepStats, msgWindow []int64) bool {
	if len(msgWindow) < 2 {
		return false
	}
	last, prev := msgWindow[len(msgWindow)-1], msgWindow[len(msgWindow)-2]
	if last >= prev {
		return false // still rising or flat
	}
	// Confirm traffic actually rose earlier in this swath window.
	for i := 1; i < len(msgWindow)-1; i++ {
		if msgWindow[i] > msgWindow[i-1] {
			return true
		}
	}
	return false
}

// FirstNSources returns the first n vertex IDs (the conventional source set
// for swath experiments over a vertex subset, as the paper samples roots).
func FirstNSources(g *graph.Graph, n int) []graph.VertexID {
	if n > g.NumVertices() {
		n = g.NumVertices()
	}
	sources := make([]graph.VertexID, n)
	for i := range sources {
		sources[i] = graph.VertexID(i)
	}
	return sources
}

// ParseSwathScheduler builds the scheduler for the first roots vertices of g
// from the two options the CLI and the job service spell the same way
// (ParseSwathOptions): swath sizing none|adaptive|sampling (none injects
// every root at once) and initiation seq|dynamic|static<N>. The sizers aim
// at 6/7 of memoryBytes. Fewer than one root is an error.
func ParseSwathScheduler(g *graph.Graph, roots int, swath, initiate string, memoryBytes int64) (SwathScheduler, error) {
	if roots < 1 {
		return nil, fmt.Errorf("roots %d: need at least 1", roots)
	}
	init, err := ParseSwathOptions(swath, initiate)
	if err != nil {
		return nil, err
	}
	sources := FirstNSources(g, roots)
	target := memoryBytes * 6 / 7
	switch swath {
	case "adaptive":
		return NewSwathRunner(sources, &AdaptiveSizer{Initial: max(2, roots/4), TargetMemoryBytes: target}, init), nil
	case "sampling":
		return NewSwathRunner(sources, &SamplingSizer{SampleSize: max(2, roots/4), Samples: 2, TargetMemoryBytes: target}, init), nil
	}
	return NewAllAtOnce(sources), nil
}

// ParseSwathOptions checks the spelling of the swath sizing
// (none|adaptive|sampling) and initiation (seq|dynamic|static<N>) options
// without a graph, and returns the initiator the second one names.
func ParseSwathOptions(swath, initiate string) (SwathInitiator, error) {
	switch swath {
	case "none", "adaptive", "sampling":
	default:
		return nil, fmt.Errorf("unknown swath mode %q (want none|adaptive|sampling)", swath)
	}
	switch {
	case initiate == "seq":
		return SequentialInitiator{}, nil
	case initiate == "dynamic":
		return DynamicPeakInitiator{}, nil
	case strings.HasPrefix(initiate, "static"):
		n, err := strconv.Atoi(strings.TrimPrefix(initiate, "static"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad initiation %q (want static<N>, N >= 1)", initiate)
		}
		return StaticNInitiator(n), nil
	}
	return nil, fmt.Errorf("unknown initiation %q (want seq|dynamic|static<N>)", initiate)
}
