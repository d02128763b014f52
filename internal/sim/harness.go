// Package sim is the experiment harness: it fans Monte-Carlo trials
// across a worker pool with deterministic per-trial seeds, aggregates
// results, and renders the tables that regenerate the paper's claims
// (see DESIGN.md §3 for the experiment index E1–E19).
package sim

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"div/internal/obs"
	"div/internal/rng"
)

// Metrics is the registry the harness aggregates into (obs.Default
// unless a test swaps it): per-trial wall-time histograms
// (sim_trial_micros), per-span wall times of the blocked kernel's
// work units (sim_block_micros), trial counters (sim_trials_total,
// sim_trial_errors_total), the current pool width (sim_workers), and
// the worker-utilization of the last batch in permille
// (sim_worker_utilization_permille = Σ trial time / (wall · workers) ·
// 1000 — 1000 means every worker was busy the whole batch, low values
// mean the pool was starved by stragglers).
var Metrics = obs.Default

// TrialFunc computes one trial. The trial index and a derived seed are
// supplied; the function must draw all randomness from the seed so
// trials are reproducible and order-independent.
type TrialFunc[T any] func(trial int, seed uint64) (T, error)

// WorkerTrialFunc computes one trial with access to its worker's
// reusable scratch value W. As with TrialFunc, all randomness must
// derive from seed; the scratch carries reusable *memory* (e.g. a
// *core.Scratch), never randomness or results, so trials stay
// reproducible and order-independent regardless of which worker runs
// them.
type WorkerTrialFunc[T, W any] func(trial int, seed uint64, scratch W) (T, error)

// Instrumented executes one trial body with the harness's standard
// instrumentation and containment: wall time observed in
// sim_trial_micros, sim_trials_total incremented, a panic recovered
// into an error (with stack attached) and errors counted in
// sim_trial_errors_total. Both the in-package worker pool and the
// suite scheduler's trial tasks (internal/exp's sweeps) run trial
// bodies through this, so per-trial metrics mean the same thing on
// every execution path.
func Instrumented[T any](fn func() (T, error)) (res T, elapsed time.Duration, err error) {
	start := time.Now()
	res, err = func() (res T, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		return fn()
	}()
	elapsed = time.Since(start)
	Metrics.Histogram("sim_trial_micros").Observe(elapsed.Microseconds())
	Metrics.Counter("sim_trials_total").Inc()
	if err != nil {
		Metrics.Counter("sim_trial_errors_total").Inc()
	}
	return res, elapsed, err
}

// InstrumentedBlock executes one span of trials with the same
// instrumentation and containment as Instrumented, amortized over the
// span: the body runs once for all `trials` trials (the blocked
// kernel steps them together, so per-trial wall times are not
// individually observable), sim_trial_micros records the per-trial
// mean, sim_trials_total advances by the span size, and a panic is
// recovered into an error counted once in sim_trial_errors_total.
func InstrumentedBlock(trials int, fn func() error) (elapsed time.Duration, err error) {
	start := time.Now()
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		return fn()
	}()
	elapsed = time.Since(start)
	if trials > 0 {
		h := Metrics.Histogram("sim_trial_micros")
		per := (elapsed / time.Duration(trials)).Microseconds()
		for i := 0; i < trials; i++ {
			h.Observe(per)
		}
		Metrics.Counter("sim_trials_total").Add(int64(trials))
		// The span itself — the blocked kernel's unit of work — gets its
		// own latency distribution, undivided.
		Metrics.Histogram("sim_block_micros").Observe(elapsed.Microseconds())
	}
	if err != nil {
		Metrics.Counter("sim_trial_errors_total").Inc()
	}
	return elapsed, err
}

// TrialBlocks partitions trials 0..trials-1 into consecutive spans of
// `block` trials and runs fn once per span across the worker pool —
// the span-granularity analog of TrialsWorker, for trial bodies that
// step a whole span together (core.RunBlock). Spans are claimed
// dynamically, so the worker-to-span assignment is load-dependent; fn
// must derive all randomness from its trial indices (counter-based
// streams do) so results stay reproducible regardless. The scratch
// rules match TrialsWorker: newScratch runs once per worker, carries
// memory only.
func TrialBlocks[W any](trials, block, parallelism int, newScratch func() W, fn func(t0, t1 int, scratch W) error) error {
	if trials < 0 {
		return fmt.Errorf("sim: negative trial count %d", trials)
	}
	if block <= 0 {
		block = 1
	}
	spans := (trials + block - 1) / block
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > spans {
		parallelism = spans
	}
	if spans == 0 {
		return nil
	}
	var (
		mu       sync.Mutex
		firstErr error
		next     int
		wg       sync.WaitGroup

		busyNanos int64
	)
	Metrics.Gauge("sim_workers").Set(int64(parallelism))
	batchStart := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= spans {
			return 0, false
		}
		s := next
		next++
		return s, true
	}
	for p := 0; p < parallelism; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch W
			haveScratch := false
			for {
				s, ok := take()
				if !ok {
					return
				}
				if !haveScratch {
					scratch = newScratch()
					haveScratch = true
				}
				t0 := s * block
				t1 := t0 + block
				if t1 > trials {
					t1 = trials
				}
				elapsed, err := InstrumentedBlock(t1-t0, func() error { return fn(t0, t1, scratch) })
				mu.Lock()
				busyNanos += elapsed.Nanoseconds()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("sim: trials [%d,%d): %w", t0, t1, err)
				}
				abort := firstErr != nil
				mu.Unlock()
				if abort {
					return
				}
			}
		}()
	}
	wg.Wait()
	if wall := time.Since(batchStart).Nanoseconds(); wall > 0 {
		util := 1000 * busyNanos / (wall * int64(parallelism))
		Metrics.Gauge("sim_worker_utilization_permille").Set(util)
	}
	return firstErr
}

// Trials runs fn for trial = 0..trials-1 in parallel and returns the
// results indexed by trial. Parallelism 0 means GOMAXPROCS. The first
// error aborts outstanding work and is returned. A panic inside fn is
// recovered and surfaced the same way (with the trial index and stack
// attached) instead of tearing down the whole process from a worker
// goroutine — a single bad trial out of thousands should fail the
// experiment, not lose every other experiment sharing the run.
func Trials[T any](trials int, baseSeed uint64, parallelism int, fn TrialFunc[T]) ([]T, error) {
	return TrialsWorker(trials, baseSeed, parallelism,
		func() struct{} { return struct{}{} },
		func(trial int, seed uint64, _ struct{}) (T, error) { return fn(trial, seed) })
}

// TrialsWorker is Trials with a per-worker scratch: newScratch runs
// once per worker goroutine (lazily, before its first trial) and the
// returned value is passed to every trial that worker executes. This
// is the allocation-reuse hook behind the zero-allocation trial
// pipeline — a worker's core.Scratch amortizes all O(n+m) state across
// its trials — while keeping the result distribution independent of
// the worker-to-trial assignment.
func TrialsWorker[T, W any](trials int, baseSeed uint64, parallelism int, newScratch func() W, fn WorkerTrialFunc[T, W]) ([]T, error) {
	if trials < 0 {
		return nil, fmt.Errorf("sim: negative trial count %d", trials)
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > trials {
		parallelism = trials
	}
	results := make([]T, trials)
	if trials == 0 {
		return results, nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		next     int
		wg       sync.WaitGroup

		busyNanos int64 // Σ per-trial wall time, for utilization
	)
	Metrics.Gauge("sim_workers").Set(int64(parallelism))
	batchStart := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= trials {
			return 0, false
		}
		t := next
		next++
		return t, true
	}
	fail := func(t int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = fmt.Errorf("sim: trial %d: %w", t, err)
		}
	}
	for p := 0; p < parallelism; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch W
			haveScratch := false
			for {
				t, ok := take()
				if !ok {
					return
				}
				if !haveScratch {
					scratch = newScratch()
					haveScratch = true
				}
				seed := rng.DeriveSeed(baseSeed, uint64(t))
				res, elapsed, err := Instrumented(func() (T, error) { return fn(t, seed, scratch) })
				mu.Lock()
				busyNanos += elapsed.Nanoseconds()
				mu.Unlock()
				if err != nil {
					fail(t, err)
					return
				}
				results[t] = res
			}
		}()
	}
	wg.Wait()
	if wall := time.Since(batchStart).Nanoseconds(); wall > 0 {
		util := 1000 * busyNanos / (wall * int64(parallelism))
		Metrics.Gauge("sim_worker_utilization_permille").Set(util)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// Map applies fn to every element of xs in parallel (same pool
// semantics as Trials), for sweeps whose points are independent.
func Map[X, Y any](xs []X, baseSeed uint64, parallelism int, fn func(i int, x X, seed uint64) (Y, error)) ([]Y, error) {
	return Trials(len(xs), baseSeed, parallelism, func(trial int, seed uint64) (Y, error) {
		return fn(trial, xs[trial], seed)
	})
}

// GeometricInts returns approximately count integers spaced
// geometrically from lo to hi inclusive, deduplicated and ascending —
// the standard n-sweep for scaling experiments.
func GeometricInts(lo, hi, count int) []int {
	if count < 2 || hi <= lo {
		return []int{lo}
	}
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(count-1))
	out := make([]int, 0, count)
	x := float64(lo)
	last := 0
	for i := 0; i < count; i++ {
		v := int(x + 0.5)
		if v > hi {
			v = hi
		}
		if v != last {
			out = append(out, v)
			last = v
		}
		x *= ratio
	}
	if out[len(out)-1] != hi {
		out = append(out, hi)
	}
	return out
}
