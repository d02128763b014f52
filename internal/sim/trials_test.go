package sim_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"div/internal/core"
	"div/internal/exp"
	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
	"div/internal/sched"
	"div/internal/sim"
)

// These tests hold the harness's trial-level contract — results
// independent of parallelism and in trial order, the first error
// propagated with its trial index, panics contained with their stack,
// every trial counted in sim.Metrics — on the one trial scheduler:
// internal/exp's sweeps on the work-stealing pool, whose every trial
// body runs through sim.Instrumented.

// sweepTrials runs trials on a small graph at the given pool width and
// returns results indexed by trial.
func sweepTrials[T any](width, trials int, seed uint64, fn func(trial int, seed uint64) (T, error)) ([]T, error) {
	return exp.SweepTrials(exp.Params{Parallelism: width}, "sim-trials", graph.Path(4), seed, trials,
		func(trial int, seed uint64, _ *core.Scratch) (T, error) { return fn(trial, seed) })
}

func swapSimMetrics(t *testing.T) *obs.Registry {
	t.Helper()
	old := sim.Metrics
	reg := obs.NewRegistry()
	sim.Metrics = reg
	t.Cleanup(func() { sim.Metrics = old })
	return reg
}

func TestTrialsDeterministicAcrossParallelism(t *testing.T) {
	fn := func(trial int, seed uint64) (uint64, error) {
		return rng.New(seed).Uint64() + uint64(trial), nil
	}
	serial, err := sweepTrials(1, 64, 7, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweepTrials(8, 64, 7, fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 64 || len(parallel) != 64 {
		t.Fatalf("got %d and %d results, want 64", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("trial %d differs: %d vs %d", i, serial[i], parallel[i])
		}
	}
}

func TestTrialsErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := sweepTrials(4, 100, 1, func(trial int, seed uint64) (int, error) {
		if trial == 37 {
			return 0, boom
		}
		return trial, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "trial 37") {
		t.Errorf("error %q does not name the failing trial", err)
	}
}

func TestTrialsEdgeCases(t *testing.T) {
	res, err := sweepTrials(4, 0, 1, func(int, uint64) (int, error) { return 0, nil })
	if err != nil || len(res) != 0 {
		t.Errorf("zero trials: %v, %v", res, err)
	}
	if _, err := sweepTrials(4, -1, 1, func(int, uint64) (int, error) { return 0, nil }); err == nil {
		t.Error("negative trials accepted")
	}
	bt := exp.BlockTrial{
		Process: core.VertexProcess,
		Init: func(_, _ int, dst []int, r *rand.Rand) error {
			core.UniformOpinionsInto(dst, 2, r)
			return nil
		},
	}
	points := []exp.Point{{G: graph.Path(4), Seed: 1, Trials: 2}, {G: graph.Path(4), Seed: 2, Trials: -1}}
	if _, err := exp.SweepBlocked(exp.Params{Parallelism: 4}, "sim-trials-blocked", points, bt,
		func(_, _ int, r core.Result) (core.Result, error) { return r, nil }); err == nil {
		t.Error("negative trials accepted by a blocked sweep")
	}
}

func TestMapPreservesOrder(t *testing.T) {
	xs := []int{10, 20, 30, 40}
	points := make([]exp.Point, len(xs))
	for i := range points {
		points[i] = exp.Point{G: graph.Path(4), Seed: 1, Trials: 1}
	}
	ys, err := exp.Sweep(exp.Params{Parallelism: 4}, "sim-map", points, func(i, _ int, _ uint64, _ *core.Scratch) (int, error) {
		return xs[i] * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range ys {
		if len(y) != 1 || y[0] != xs[i]*2 {
			t.Fatalf("ys = %v", ys)
		}
	}
}

func TestTrialsRecoversPanic(t *testing.T) {
	_, err := sweepTrials(4, 8, 1, func(trial int, seed uint64) (int, error) {
		if trial == 3 {
			panic("boom in trial")
		}
		return trial, nil
	})
	if err == nil {
		t.Fatal("sweep returned nil error for a panicking trial")
	}
	for _, want := range []string{"trial 3", "panic", "boom in trial"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if !strings.Contains(err.Error(), "trials_test.go") {
		t.Errorf("error does not carry the panicking site's stack:\n%v", err)
	}
}

// TestTrialsRecoversPanicSerial: on a one-worker pool the first trial
// to run panics, the rest are cancelled without running, and the
// error names that first trial.
func TestTrialsRecoversPanicSerial(t *testing.T) {
	var ran atomic.Int32
	first := -1
	_, err := sweepTrials(1, 4, 1, func(trial int, seed uint64) (int, error) {
		if ran.Add(1) == 1 {
			first = trial
		}
		panic(trial)
	})
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d trial bodies ran after the first panic on a one-worker pool, want 1", n)
	}
	if want := fmt.Sprintf("trial %d", first); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("serial panic not surfaced as first error (%s): %v", want, err)
	}
}

func TestTrialsMetrics(t *testing.T) {
	reg := swapSimMetrics(t)
	const trials, width = 12, 3
	pool := sched.Shared(width)
	busy0, start := pool.BusyNanos(), time.Now()
	_, err := sweepTrials(width, trials, 1, func(trial int, seed uint64) (int, error) {
		time.Sleep(time.Millisecond)
		return trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	busy, wall := pool.BusyNanos()-busy0, time.Since(start)
	if got := reg.Counter("sim_trials_total").Value(); got != trials {
		t.Fatalf("sim_trials_total = %d, want %d", got, trials)
	}
	if got := reg.Counter("sim_trial_errors_total").Value(); got != 0 {
		t.Fatalf("sim_trial_errors_total = %d", got)
	}
	if got := pool.Width(); got != width {
		t.Fatalf("pool width = %d, want %d", got, width)
	}
	h := reg.Histogram("sim_trial_micros")
	if h.Count() != trials {
		t.Fatalf("trial-time histogram count = %d, want %d", h.Count(), trials)
	}
	if h.Sum() < trials*1000 {
		t.Fatalf("trial-time histogram sum = %dµs, below %d sleeps of 1ms", h.Sum(), trials)
	}
	util := 1000 * busy / (width * wall.Nanoseconds())
	if util <= 0 || util > 1100 { // small scheduling slack above 1000
		t.Fatalf("worker utilization = %d‰, outside (0, 1100]", util)
	}
}

func TestTrialsMetricsOnError(t *testing.T) {
	reg := swapSimMetrics(t)
	boom := errors.New("boom")
	_, err := sweepTrials(2, 8, 1, func(trial int, seed uint64) (int, error) {
		if trial == 3 {
			return 0, boom
		}
		return trial, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := reg.Counter("sim_trial_errors_total").Value(); got == 0 {
		t.Fatal("error counter not incremented")
	}
}
