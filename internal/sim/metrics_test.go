package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"div/internal/obs"
)

func swapMetrics(t *testing.T) *obs.Registry {
	t.Helper()
	old := Metrics
	reg := obs.NewRegistry()
	Metrics = reg
	t.Cleanup(func() { Metrics = old })
	return reg
}

func TestInstrumented(t *testing.T) {
	reg := swapMetrics(t)
	v, elapsed, err := Instrumented(func() (int, error) {
		time.Sleep(time.Millisecond)
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("Instrumented = (%d, %v), want (42, nil)", v, err)
	}
	if elapsed < time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 1ms", elapsed)
	}
	if got := reg.Counter("sim_trials_total").Value(); got != 1 {
		t.Fatalf("sim_trials_total = %d, want 1", got)
	}
	if got := reg.Histogram("sim_trial_micros").Count(); got != 1 {
		t.Fatalf("sim_trial_micros count = %d, want 1", got)
	}

	// Error path counts.
	boom := errors.New("boom")
	if _, _, err := Instrumented(func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := reg.Counter("sim_trial_errors_total").Value(); got != 1 {
		t.Fatalf("sim_trial_errors_total = %d, want 1", got)
	}

	// A panic is contained into an error with the stack attached.
	_, _, err = Instrumented(func() (int, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
	if got := reg.Counter("sim_trial_errors_total").Value(); got != 2 {
		t.Fatalf("sim_trial_errors_total = %d, want 2", got)
	}

	// InstrumentedBlock: one span of 5 trials counts 5 trials, observes
	// 5 per-trial times and 1 span time.
	trials0 := reg.Counter("sim_trials_total").Value()
	trialObs0 := reg.Histogram("sim_trial_micros").Count()
	elapsed, err = InstrumentedBlock(5, func() error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || elapsed < time.Millisecond {
		t.Fatalf("InstrumentedBlock = (%v, %v), want (>= 1ms, nil)", elapsed, err)
	}
	if got := reg.Counter("sim_trials_total").Value() - trials0; got != 5 {
		t.Fatalf("sim_trials_total advanced by %d, want 5", got)
	}
	if got := reg.Histogram("sim_trial_micros").Count() - trialObs0; got != 5 {
		t.Fatalf("sim_trial_micros gained %d observations, want 5", got)
	}
	if got := reg.Histogram("sim_block_micros").Count(); got != 1 {
		t.Fatalf("sim_block_micros count = %d, want 1", got)
	}

	// A failing span counts one error, not one per trial.
	if _, err := InstrumentedBlock(5, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := reg.Counter("sim_trial_errors_total").Value(); got != 3 {
		t.Fatalf("sim_trial_errors_total = %d, want 3", got)
	}

	// A panicking span is contained into an error carrying the
	// panicking site's stack.
	_, err = InstrumentedBlock(5, func() error { panic("span kaboom") })
	if err == nil || !strings.Contains(err.Error(), "span kaboom") {
		t.Fatalf("span panic not surfaced as error: %v", err)
	}
	if !strings.Contains(err.Error(), "metrics_test.go") {
		t.Errorf("span panic error does not carry the stack:\n%v", err)
	}
	if got := reg.Counter("sim_trial_errors_total").Value(); got != 4 {
		t.Fatalf("sim_trial_errors_total = %d, want 4", got)
	}
}
