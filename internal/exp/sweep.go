package exp

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"div/internal/core"
	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
	"div/internal/sched"
	"div/internal/sim"
)

// This file is the declarative sweep layer every experiment runs its
// trials through. A sweep is a list of grid points (graph, base seed,
// trial count) plus one trial function; StartSweep fans the trials out
// at *trial* granularity onto the process-wide work-stealing pool
// (internal/sched), the one trial scheduler, and returns a future, so
// a long-tail point — or a whole experiment — holds no barrier over
// idle cores: trials from E2's n=3200 point interleave with E5's small
// points and with every other experiment running concurrently. A
// one-worker pool (Params.Parallelism 1) runs the same tasks one after
// another.
//
// Determinism: the schedule cannot influence results. Each trial's
// seed is rng.DeriveSeed(point.Seed, trial), every trial writes only
// results[point][trial], and per-worker Scratch reuse is
// distribution-neutral (byte-identity tests in internal/core).
// TestSweepResultSlots checks every slot against the trial function
// called with no scheduler at all, and the suite matrix test asserts
// the full report is byte-identical across pool widths and block
// sizes.

// Point is one grid point of a sweep: Trials trials on G with trial
// seeds derived from Seed. For blocked sweeps the structure may
// instead be an implicit topology in T (graph.ImplicitTorus,
// graph.HashedRegular, …), which never materializes adjacency; set
// exactly one of G and T. Sequential (non-blocked) sweeps require G.
type Point struct {
	G      *graph.Graph
	T      graph.Topology
	Seed   uint64
	Trials int
}

// topology returns the point's structure: T when set, else G.
func (pt Point) topology() graph.Topology {
	if pt.T != nil {
		return pt.T
	}
	return pt.G
}

// Span telemetry for the sweep layer (obs span hierarchy
// suite→experiment→point→block, DESIGN.md §12). Point latency is the
// wall time from a point's first trial starting to its last trial
// completing — under parallelism that is the real end-to-end latency
// of the grid point, stragglers included. Block latency is one blocked
// span task. Per-engine trial histograms slice sim_trial_micros by the
// stepping engine that ran the sweep.
var (
	pointTimer = obs.Default.Timer("suite_experiment_point")
	blockTimer = obs.Default.Timer("suite_experiment_point_block")
)

// engineTrialHist returns the per-engine trial duration histogram for
// the sweep's engine selection.
func engineTrialHist(p Params) *obs.Histogram {
	eng := p.Engine
	if eng == "" {
		eng = "auto"
	}
	return obs.Default.Histogram("sim_trial_nanos_engine_" + obs.SanitizeMetricName(eng))
}

// pointSpan tracks one point's completion across its concurrently
// executing trials: the last trial (or block) to finish observes the
// point's wall time.
type pointSpan struct {
	start     time.Time
	remaining atomic.Int32
}

func newPointSpan(units int) *pointSpan {
	ps := &pointSpan{start: time.Now()}
	ps.remaining.Store(int32(units))
	return ps
}

// unitDone marks one unit complete; the final unit records the span.
func (ps *pointSpan) unitDone() {
	if ps.remaining.Add(-1) == 0 {
		pointTimer.ObserveSince(ps.start)
	}
}

// SweepFuture is a pending sweep's result: one slice per point,
// indexed by trial.
type SweepFuture[T any] struct {
	done chan struct{}
	res  [][]T
	err  error
}

// Wait blocks until the sweep completes and returns results[point][trial]
// or the first trial error.
func (f *SweepFuture[T]) Wait() ([][]T, error) {
	<-f.done
	return f.res, f.err
}

// rejected completes f with an error, before any trial runs, if a
// point has a negative trial count.
func (f *SweepFuture[T]) rejected(points []Point) bool {
	for pi, pt := range points {
		if pt.Trials < 0 {
			f.err = fmt.Errorf("sim: point %d: negative trial count %d", pi, pt.Trials)
			close(f.done)
			return true
		}
	}
	return false
}

// StartSweep launches every trial of every point and returns a
// future. fn computes one trial; it must draw all randomness from
// seed (and may use the per-worker scratch, which is bound to the
// point's graph).
func StartSweep[T any](p Params, id string, points []Point, fn func(point, trial int, seed uint64, sc *core.Scratch) (T, error)) *SweepFuture[T] {
	f := &SweepFuture[T]{done: make(chan struct{})}
	if f.rejected(points) {
		return f
	}
	pool := sched.Shared(p.Parallelism)
	res := make([][]T, len(points))
	engHist := engineTrialHist(p)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		canceled atomic.Bool
	)
	for pi, pt := range points {
		res[pi] = make([]T, pt.Trials)
		wg.Add(pt.Trials)
	}
	for pi := range points {
		pi := pi
		pt := points[pi]
		if pt.Trials == 0 {
			continue
		}
		// One point-granularity task per point: it expands into trial
		// tasks on the running worker's own deque, so that worker keeps
		// scratch affinity with the point while idle workers steal the
		// tail of the trial list.
		pool.Submit(sched.Task{Tag: sched.Tag{Exp: id, Point: pi}, Run: func(w *sched.Worker) {
			ps := newPointSpan(pt.Trials)
			ts := make([]sched.Task, pt.Trials)
			for t := range ts {
				t := t
				ts[t] = sched.Task{Tag: sched.Tag{Exp: id, Point: pi, Trial: t}, Run: func(w *sched.Worker) {
					defer wg.Done()
					defer ps.unitDone()
					if canceled.Load() {
						return
					}
					sc := workerScratch(w, pt.G)
					seed := rng.DeriveSeed(pt.Seed, uint64(t))
					v, elapsed, err := sim.Instrumented(func() (T, error) { return fn(pi, t, seed, sc) })
					engHist.Observe(elapsed.Nanoseconds())
					if err != nil {
						canceled.Store(true)
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("sim: trial %d: %w", t, err)
						}
						errMu.Unlock()
						return
					}
					res[pi][t] = v
				}}
			}
			w.Submit(ts...)
		}})
	}
	go func() {
		wg.Wait()
		if firstErr != nil {
			f.err = firstErr
		} else {
			f.res = res
		}
		close(f.done)
	}()
	return f
}

// Sweep is StartSweep + Wait: run every trial of every point, return
// results[point][trial].
func Sweep[T any](p Params, id string, points []Point, fn func(point, trial int, seed uint64, sc *core.Scratch) (T, error)) ([][]T, error) {
	return StartSweep(p, id, points, fn).Wait()
}

// SweepTrials is the single-point convenience: trials on one graph,
// results indexed by trial.
func SweepTrials[T any](p Params, id string, g *graph.Graph, baseSeed uint64, trials int, fn func(trial int, seed uint64, sc *core.Scratch) (T, error)) ([]T, error) {
	res, err := Sweep(p, id, []Point{{G: g, Seed: baseSeed, Trials: trials}},
		func(_, trial int, seed uint64, sc *core.Scratch) (T, error) { return fn(trial, seed, sc) })
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// BlockTrial is the per-trial core configuration of a blocked sweep:
// everything core.RunBlock needs beyond the grid point itself. Init
// fills dst with the initial opinions of (point, trial), drawing only
// from r; the zero values of Rule, Stop, and MaxSteps inherit the
// core defaults (DIV, run to consensus, 200n² steps).
type BlockTrial struct {
	Process  core.Process
	Rule     core.Rule
	Stop     core.StopCondition
	MaxSteps int64
	// Compact runs each trial on the byte opinion slab (window ≤ 256);
	// results are byte-identical to the int32 representation.
	Compact bool
	Init    func(point, trial int, dst []int, r *rand.Rand) error
}

// config assembles the core.BlockConfig for one point of a blocked
// sweep. The point's Seed becomes the kernel's stream base, so every
// trial's randomness is the counter stream keyed (Seed, trial) —
// independent of block size, span boundaries, and scheduling.
func (bt BlockTrial) config(p Params, pi int, pt Point, sc *core.Scratch) core.BlockConfig {
	return core.BlockConfig{
		Graph:    pt.G,
		Topology: pt.T,
		Compact:  bt.Compact,
		Process:  bt.Process,
		Rule:     bt.Rule,
		Engine:   p.coreEngine(),
		Stop:     bt.Stop,
		MaxSteps: bt.MaxSteps,
		Seed:     pt.Seed,
		Init: func(trial int, dst []int, r *rand.Rand) error {
			return bt.Init(pi, trial, dst, r)
		},
		Probe:   p.Probe,
		Scratch: sc,
		Block:   p.blockSize(),
	}
}

// StartSweepBlocked launches a sweep on the blocked multi-trial kernel
// and returns a future. Work is submitted at *span* granularity — each
// task runs one block of consecutive trials of one point through
// core.RunBlock on the worker's scratch arena — so the scheduler
// steals whole blocks and the SoA slab stays hot within each task.
// post maps each trial's core.Result to the sweep's element type (and
// may reject it with an error); it runs inside the span task, ordered
// by trial within the span.
func StartSweepBlocked[T any](p Params, id string, points []Point, bt BlockTrial, post func(point, trial int, res core.Result) (T, error)) *SweepFuture[T] {
	f := &SweepFuture[T]{done: make(chan struct{})}
	if f.rejected(points) {
		return f
	}
	pool := sched.Shared(p.Parallelism)
	res := make([][]T, len(points))
	span := p.blockSize()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		canceled atomic.Bool
	)
	for pi, pt := range points {
		res[pi] = make([]T, pt.Trials)
		wg.Add((pt.Trials + span - 1) / span)
	}
	for pi := range points {
		pi := pi
		pt := points[pi]
		if pt.Trials == 0 {
			continue
		}
		pool.Submit(sched.Task{Tag: sched.Tag{Exp: id, Point: pi}, Run: func(w *sched.Worker) {
			ps := newPointSpan((pt.Trials + span - 1) / span)
			var ts []sched.Task
			for t0 := 0; t0 < pt.Trials; t0 += span {
				t0 := t0
				t1 := t0 + span
				if t1 > pt.Trials {
					t1 = pt.Trials
				}
				ts = append(ts, sched.Task{Tag: sched.Tag{Exp: id, Point: pi, Trial: t0, Span: t1 - t0}, Run: func(w *sched.Worker) {
					defer wg.Done()
					defer ps.unitDone()
					if canceled.Load() {
						return
					}
					sc := workerScratch(w, pt.topology())
					out := make([]core.Result, t1-t0)
					elapsed, err := sim.InstrumentedBlock(t1-t0, func() error {
						if err := core.RunBlock(bt.config(p, pi, pt, sc), t0, t1, out); err != nil {
							return err
						}
						for t := t0; t < t1; t++ {
							v, err := post(pi, t, out[t-t0])
							if err != nil {
								return fmt.Errorf("trial %d: %w", t, err)
							}
							res[pi][t] = v
						}
						return nil
					})
					blockTimer.Observe(elapsed)
					if err != nil {
						canceled.Store(true)
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("sim: trials [%d,%d): %w", t0, t1, err)
						}
						errMu.Unlock()
					}
				}})
			}
			w.Submit(ts...)
		}})
	}
	go func() {
		wg.Wait()
		if firstErr != nil {
			f.err = firstErr
		} else {
			f.res = res
		}
		close(f.done)
	}()
	return f
}

// SweepBlocked is StartSweepBlocked + Wait.
func SweepBlocked[T any](p Params, id string, points []Point, bt BlockTrial, post func(point, trial int, res core.Result) (T, error)) ([][]T, error) {
	return StartSweepBlocked(p, id, points, bt, post).Wait()
}

// workerScratch returns the worker's Scratch for g, reusing across
// trials and points. A tiny per-worker LRU (a handful of graphs) is
// enough: a worker that bounces between graphs is stealing across
// points anyway, and Scratch reuse only pays within a graph.
const workerScratchCap = 4

type workerScratchKey struct{}

type scratchLRU struct {
	entries []scratchEntry
}

type scratchEntry struct {
	t  graph.Topology
	sc *core.Scratch
}

func workerScratch(w *sched.Worker, t graph.Topology) *core.Scratch {
	lru := w.Local(workerScratchKey{}, func() any { return &scratchLRU{} }).(*scratchLRU)
	for i, e := range lru.entries {
		if e.t == t {
			if i != 0 {
				copy(lru.entries[1:i+1], lru.entries[:i])
				lru.entries[0] = e
			}
			return e.sc
		}
	}
	sc := core.NewScratchTopo(t)
	if len(lru.entries) < workerScratchCap {
		lru.entries = append(lru.entries, scratchEntry{})
	}
	copy(lru.entries[1:], lru.entries)
	lru.entries[0] = scratchEntry{t: t, sc: sc}
	return sc
}
