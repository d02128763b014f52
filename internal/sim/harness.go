// Package sim holds the experiment harness's shared pieces: the
// per-trial and per-span instrumentation every sweep task runs its
// body through (internal/exp schedules those tasks on the
// work-stealing pool, internal/sched), and the tables that regenerate
// the paper's claims (see DESIGN.md §3 for the experiment index
// E1–E19).
package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"div/internal/obs"
)

// Metrics is the registry the harness aggregates into (obs.Default
// unless a test swaps it): per-trial wall-time histograms
// (sim_trial_micros), per-span wall times of the blocked kernel's
// work units (sim_block_micros), and trial counters (sim_trials_total,
// sim_trial_errors_total).
var Metrics = obs.Default

// Instrumented executes one trial body with the harness's standard
// instrumentation and containment: wall time observed in
// sim_trial_micros, sim_trials_total incremented, a panic recovered
// into an error (with stack attached) and errors counted in
// sim_trial_errors_total. Every trial task of internal/exp's sweeps
// runs its body through this.
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
