package exp

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"div/internal/core"
	"div/internal/graph"
	"div/internal/rng"
)

// TestSweepResultSlots checks both sweep entry points on the
// work-stealing pool against their trial functions called with no
// scheduler at all: every res[point][trial] must hold exactly what a
// direct call for (point, trial) returns, at every pool width and
// block size, empty points included. One failing or panicking trial
// must surface from Wait as the sweep's error, naming the trial (or
// carrying the panic and its stack), with no results.
func TestSweepResultSlots(t *testing.T) {
	g := graph.Path(10)
	var points []Point
	for i, n := range []int{0, 1, 7, 17} {
		points = append(points, Point{G: g, Seed: rng.DeriveSeed(0x5107, uint64(i)), Trials: n})
	}
	type slot struct {
		point, trial int
		seed         uint64
	}
	bt := BlockTrial{
		Process: core.VertexProcess,
		Init: func(point, trial int, dst []int, r *rand.Rand) error {
			core.UniformOpinionsInto(dst, 2+point, r)
			return nil
		},
	}
	// direct is the reference for a blocked slot: one trial of the
	// point's stream on a fresh scratch, at block 1.
	direct := func(pi, trial int) core.Result {
		pt := points[pi]
		out := make([]core.Result, 1)
		cfg := core.BlockConfig{
			Graph:   pt.G,
			Process: bt.Process,
			Engine:  core.EngineAuto,
			Seed:    pt.Seed,
			Init: func(trial int, dst []int, r *rand.Rand) error {
				return bt.Init(pi, trial, dst, r)
			},
			Scratch: core.NewScratch(pt.G),
			Block:   1,
		}
		if err := core.RunBlock(cfg, trial, trial+1, out); err != nil {
			t.Fatalf("direct RunBlock point %d trial %d: %v", pi, trial, err)
		}
		return out[0]
	}
	want := make([][]core.Result, len(points))
	for pi, pt := range points {
		for trial := 0; trial < pt.Trials; trial++ {
			want[pi] = append(want[pi], direct(pi, trial))
		}
	}
	boom := errors.New("boom")
	const failPoint, failTrial = 3, 11

	for _, width := range []int{1, 2, 4} {
		p := Params{Parallelism: width}

		res, err := StartSweep(p, "slots", points, func(pi, trial int, seed uint64, sc *core.Scratch) (slot, error) {
			if sc == nil {
				return slot{}, errors.New("nil scratch")
			}
			return slot{pi, trial, seed}, nil
		}).Wait()
		if err != nil {
			t.Fatalf("width %d: StartSweep: %v", width, err)
		}
		for pi, pt := range points {
			if len(res[pi]) != pt.Trials {
				t.Fatalf("width %d: point %d has %d slots, want %d", width, pi, len(res[pi]), pt.Trials)
			}
			for trial, got := range res[pi] {
				if w := (slot{pi, trial, rng.DeriveSeed(pt.Seed, uint64(trial))}); got != w {
					t.Errorf("width %d: slot [%d][%d] = %+v, want %+v", width, pi, trial, got, w)
				}
			}
		}

		res, err = StartSweep(p, "slots-error", points, func(pi, trial int, seed uint64, _ *core.Scratch) (slot, error) {
			if pi == failPoint && trial == failTrial {
				return slot{}, boom
			}
			return slot{pi, trial, seed}, nil
		}).Wait()
		checkSweepError(t, fmt.Sprintf("width %d: StartSweep", width), res, err, boom, failTrial)

		res, err = StartSweep(p, "slots-panic", points, func(pi, trial int, seed uint64, _ *core.Scratch) (slot, error) {
			if pi == failPoint && trial == failTrial {
				panic("kaboom in a trial")
			}
			return slot{pi, trial, seed}, nil
		}).Wait()
		checkSweepPanic(t, fmt.Sprintf("width %d: StartSweep", width), res, err, "kaboom in a trial")

		for _, block := range []int{1, 3, 8} {
			p.Block = block
			name := fmt.Sprintf("width %d block %d: StartSweepBlocked", width, block)
			got, err := StartSweepBlocked(p, "slots-blocked", points, bt, func(_, _ int, r core.Result) (core.Result, error) {
				return r, nil
			}).Wait()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for pi, pt := range points {
				if len(got[pi]) != pt.Trials {
					t.Fatalf("%s: point %d has %d slots, want %d", name, pi, len(got[pi]), pt.Trials)
				}
				for trial := range got[pi] {
					if gs, ws := fmt.Sprintf("%+v", got[pi][trial]), fmt.Sprintf("%+v", want[pi][trial]); gs != ws {
						t.Errorf("%s: slot [%d][%d] = %s, want the direct run's %s", name, pi, trial, gs, ws)
					}
				}
			}

			got, err = StartSweepBlocked(p, "slots-blocked-error", points, bt, func(pi, trial int, r core.Result) (core.Result, error) {
				if pi == failPoint && trial == failTrial {
					return r, boom
				}
				return r, nil
			}).Wait()
			checkSweepError(t, name, got, err, boom, failTrial)

			got, err = StartSweepBlocked(p, "slots-blocked-panic", points, bt, func(pi, trial int, r core.Result) (core.Result, error) {
				if pi == failPoint && trial == failTrial {
					panic("kaboom in a span")
				}
				return r, nil
			}).Wait()
			checkSweepPanic(t, name, got, err, "kaboom in a span")
		}
	}
}

// checkSweepError asserts a sweep with one failing trial returned that
// trial's error, naming its index, and no results.
func checkSweepError[T any](t *testing.T, name string, res [][]T, err, cause error, trial int) {
	t.Helper()
	if !errors.Is(err, cause) {
		t.Fatalf("%s: err = %v, want %v", name, err, cause)
	}
	if want := fmt.Sprintf("trial %d", trial); !strings.Contains(err.Error(), want) {
		t.Errorf("%s: error %q does not name %q", name, err, want)
	}
	if res != nil {
		t.Errorf("%s: failed sweep returned results", name)
	}
}

// checkSweepPanic asserts a sweep with one panicking trial returned an
// error carrying the panic value and the panicking site's stack, and
// no results.
func checkSweepPanic[T any](t *testing.T, name string, res [][]T, err error, value string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: a panicking trial returned no error", name)
	}
	for _, want := range []string{"panic", value, "sweep_test.go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error does not carry %q:\n%v", name, want, err)
		}
	}
	if res != nil {
		t.Errorf("%s: failed sweep returned results", name)
	}
}
