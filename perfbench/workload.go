package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"div/internal/core"
	"div/internal/exp"
	"div/internal/graph"
	"div/internal/rng"
	"div/internal/sched"
	"div/internal/spectral"
)

// Stream labels: every input of a run derives from the workload seed
// through rng.DeriveSeed(seed, label).
const (
	seedWarmup uint64 = 1
	seedGraph  uint64 = 1 << 16 // + set-up repetition
	seedTrials uint64 = 1 << 32 // + unit index on sweep workloads
)

// setupStats is what one set-up measured about the layers it called.
type setupStats struct {
	wall     time.Duration // the whole set-up, filled by the caller
	build    time.Duration // the builder (or implicit constructor) call
	phases   graph.BuildStats
	arcIndex time.Duration
	lambda   time.Duration
	lambdaV  float64
	csrBytes int64
}

// workload is one benchmark input shape. setup builds every artifact
// the first measured trial needs, on the graph of set-up repetition rep
// (the measured trials run on rep 0's); step runs step call u (one
// sweep of span-task units, or one trial as one unit), checks its trials
// and folds them into tl.
type workload interface {
	setup(tr *Tracer, parent, rep int) (setupStats, error)
	release()
	step(tr *Tracer, parent, u int, tl *tally)
	laws() []check
	// pool is the work-stealing pool the workload's sweeps run on, nil
	// when it steps on one goroutine.
	pool() *sched.Pool
}

// unitStat is one measured unit: one stepping call, which is one span
// task of a sweep (reduce-rr) or one trial (endgames).
type unitStat struct {
	trials int
	steps  int64
	wall   time.Duration
	// cpu is the CPU time of the thread that ran the call. Unlike wall
	// time it leaves out time the hypervisor stole from the vCPU and
	// time the thread waited for a CPU.
	cpu time.Duration
	// gauge is the host gauge's CPU time on the same thread just before
	// the call (see gauge.go).
	gauge time.Duration
}

// tally accumulates one phase of measured units.
type tally struct {
	attempted, failed int
	elapsed           time.Duration // wall time of the phase's step calls
	units             []unitStat
	errs              []string // the first few failure messages
}

const keepErrs = 5

func (tl *tally) steps() int64 {
	var s int64
	for _, u := range tl.units {
		s += u.steps
	}
	return s
}

// rates returns each unit's trials and steps per second of its
// thread's CPU time, scaled to the nominal host (rateAtNominal).
func (tl *tally) rates() (trials, steps []float64) {
	for _, u := range tl.units {
		trials = append(trials, rateAtNominal(float64(u.trials), u))
		steps = append(steps, rateAtNominal(float64(u.steps), u))
	}
	return trials, steps
}

// rawRates returns each unit's trials and steps per second of its
// thread's CPU time, unscaled.
func (tl *tally) rawRates() (trials, steps []float64) {
	for _, u := range tl.units {
		trials = append(trials, float64(u.trials)/u.cpu.Seconds())
		steps = append(steps, float64(u.steps)/u.cpu.Seconds())
	}
	return trials, steps
}

// gauges returns each unit's gauge time in milliseconds.
func (tl *tally) gauges() []float64 {
	var xs []float64
	for _, u := range tl.units {
		xs = append(xs, float64(u.gauge.Nanoseconds())/1e6)
	}
	return xs
}

// calls returns each unit's wall time in seconds.
func (tl *tally) calls() []float64 {
	var xs []float64
	for _, u := range tl.units {
		xs = append(xs, u.wall.Seconds())
	}
	return xs
}

// trial counts one attempted trial; a non-nil err marks it failed.
func (tl *tally) trial(err error) {
	tl.attempted++
	if err != nil {
		tl.failed++
		tl.note(err)
	}
}

// lost counts n trials that err kept from finishing as failed.
func (tl *tally) lost(n int, err error) {
	tl.attempted += n
	tl.failed += n
	tl.note(err)
}

func (tl *tally) note(err error) {
	if len(tl.errs) < keepErrs {
		tl.errs = append(tl.errs, err.Error())
	}
}

// newWorkload returns the named workload at benchmark scale.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "reduce-rr":
		return &reduceRR{sh: reduceShape{n: 1 << 14, d: 8, k: 8, block: 8, perSweep: 128, width: runtime.NumCPU()}, seed: seed}, nil
	case "endgame-rr":
		return newEndgame(endgameShape{n: 1_000_000, d: 8, dissenters: 64, rounds: endgameRounds}, seed), nil
	case "endgame-implicit":
		return newEndgame(endgameShape{n: 1_000_000, d: 8, dissenters: 64, rounds: endgameRounds, implicit: true}, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want reduce-rr, endgame-rr or endgame-implicit)", name)
}

// ---------------------------------------------------------------------
// reduce-rr: Theorem 1's reduction phase on a random regular expander,
// fanned out as blocked sweeps on the shared work-stealing pool.
// ---------------------------------------------------------------------

type reduceShape struct {
	n, d, k  int
	block    int // trials per span task (the blocked kernel's B)
	perSweep int // trials per exp.SweepBlocked call
	width    int // pool width
}

type reduceRR struct {
	sh   reduceShape
	seed uint64
	g    *graph.Graph
	law  lemma3
}

func (w *reduceRR) params() exp.Params {
	return exp.Params{Seed: w.seed, Parallelism: w.sh.width, Engine: "auto", Block: w.sh.block}
}

func (w *reduceRR) pool() *sched.Pool { return sched.Shared(w.sh.width) }

func (w *reduceRR) release() { w.g = nil }

func (w *reduceRR) laws() []check { return []check{w.law.check()} }

func (w *reduceRR) setup(tr *Tracer, parent, rep int) (setupStats, error) {
	var st setupStats
	var g *graph.Graph
	var err error
	opts := graph.BuildOpts{Workers: runtime.GOMAXPROCS(0), Stats: &st.phases}
	st.build, err = tr.timed("graph.build", parent, func() (err error) {
		g, err = graph.RandomRegularSeeded(w.sh.n, w.sh.d, rng.DeriveSeed(w.seed, seedGraph+uint64(rep)), opts)
		return err
	})
	if err != nil {
		return st, fmt.Errorf("build: %w", err)
	}
	st.arcIndex, _ = tr.timed("graph.arcindex", parent, func() error { g.ArcIndex(); return nil })
	adj, idx := graph.CSRMemEstimate(g.N(), g.DegreeSum())
	st.csrBytes = adj + idx
	st.lambda, err = tr.timed("spectral.lambda", parent, func() (err error) {
		st.lambdaV, err = spectral.Lambda(g, spectral.Options{})
		return err
	})
	if err != nil {
		return st, fmt.Errorf("lambda: %w", err)
	}
	// Two one-step spans per worker let every worker allocate its
	// scratch arena and opinion slab before the first measured sweep.
	_, err = tr.timed("exp.warmup", parent, func() error {
		warm := []exp.Point{{G: g, Seed: rng.DeriveSeed(w.seed, seedWarmup), Trials: 2 * w.sh.width * w.sh.block}}
		bt := w.trials(nil)
		bt.MaxSteps = 1
		_, err := exp.SweepBlocked(w.params(), "perfbench-warmup", warm, bt,
			func(_, _ int, r core.Result) (core.Result, error) { return r, nil })
		return err
	})
	if err != nil {
		return st, fmt.Errorf("warm-up sweep: %w", err)
	}
	w.g = g
	return st, nil
}

// spanClock times the stepping call of each span task of one sweep
// from inside the task: the sweep's Init callback for a span's first
// trial runs on the worker just before core.RunBlock steps the span, and
// the post callback for that trial runs just after it returns. The
// worker goroutine stays on its OS thread in between, so the gauge and
// the thread's CPU clock run on the thread that steps the span.
type spanClock struct {
	block               int
	gaugeAt, start, end []time.Time
	gauge, cpu0, cpu1   []time.Duration
}

func newSpanClock(trials, block int) *spanClock {
	n := (trials + block - 1) / block
	return &spanClock{block: block,
		gaugeAt: make([]time.Time, n), start: make([]time.Time, n), end: make([]time.Time, n),
		gauge: make([]time.Duration, n), cpu0: make([]time.Duration, n), cpu1: make([]time.Duration, n)}
}

func (c *spanClock) begin(t int) {
	if t%c.block == 0 {
		runtime.LockOSThread()
		i := t / c.block
		c.gaugeAt[i] = time.Now()
		c.gauge[i] = gauge()
		c.cpu0[i], c.start[i] = threadCPU(), time.Now()
	}
}

func (c *spanClock) finish(t int) {
	if t%c.block == 0 {
		i := t / c.block
		c.end[i], c.cpu1[i] = time.Now(), threadCPU()
		runtime.UnlockOSThread()
	}
}

// trials is the sweep's per-trial configuration: k uniform opinions,
// vertex process, stop at two adjacent opinions. With clock non-nil,
// Init opens the timing of each span task's stepping call.
func (w *reduceRR) trials(clock *spanClock) exp.BlockTrial {
	return exp.BlockTrial{
		Process: core.VertexProcess,
		Stop:    core.UntilTwoAdjacent,
		Init: func(_, t int, dst []int, r *rand.Rand) error {
			if clock != nil {
				clock.begin(t)
			}
			core.UniformOpinionsInto(dst, w.sh.k, r)
			return nil
		},
	}
}

func (w *reduceRR) step(tr *Tracer, parent, u int, tl *tally) {
	m, b := w.sh.perSweep, w.sh.block
	clock := newSpanClock(m, b)
	// post runs inside each span task right after core.RunBlock
	// returns, so the first post of a span closes its stepping call.
	post := func(_, t int, r core.Result) (core.Result, error) {
		clock.finish(t)
		return r, nil
	}
	pt := []exp.Point{{G: w.g, Seed: rng.DeriveSeed(w.seed, seedTrials+uint64(u)), Trials: m}}
	start := time.Now()
	res, err := exp.SweepBlocked(w.params(), "perfbench", pt, w.trials(clock), post)
	end := time.Now()
	tl.elapsed += end.Sub(start)
	sweep := tr.record("exp.sweep", parent, start, end)
	if err != nil {
		tl.lost(m, err)
		return
	}
	for i := range clock.start {
		t0, t1 := i*b, min((i+1)*b, m)
		var steps int64
		for _, r := range res[0][t0:t1] {
			err := checkReduceTrial(r, w.sh.k)
			tl.trial(err)
			steps += r.Steps
			if err == nil {
				w.law.add(r)
			}
		}
		tr.record("bench.gauge", sweep, clock.gaugeAt[i], clock.start[i])
		tr.record("core.step", sweep, clock.start[i], clock.end[i])
		tl.units = append(tl.units, unitStat{trials: t1 - t0, steps: steps, wall: clock.end[i].Sub(clock.start[i]),
			cpu: clock.cpu1[i] - clock.cpu0[i], gauge: clock.gauge[i]})
	}
}

// ---------------------------------------------------------------------
// endgame-rr / endgame-implicit: the two-opinion final stage (Lemma 5,
// Eq. (3)) at n = 10⁶, one trial per core.RunBlock call on one
// goroutine, on a materialized random regular graph or on the O(1)-state
// hashed regular topology with compact opinion slabs.
// ---------------------------------------------------------------------

// endgameRounds caps each final-stage trial at this many rounds (n
// scheduler draws each). With two opinions DIV is the voter model, and
// the dissenters' excursions give the consensus time a t^(-1/2) tail:
// uncapped at n = 10⁶, one of 23 trials ran for over three minutes on a
// 2-vCPU host. At 50 rounds about a quarter of the trials still reach
// consensus, and every trial's work is bounded.
const endgameRounds = 50

type endgameShape struct {
	n, d, dissenters int
	rounds           int64
	implicit         bool
}

type endgame struct {
	sh   endgameShape
	seed uint64
	cfg  core.BlockConfig
	law  eq3
}

func newEndgame(sh endgameShape, seed uint64) *endgame {
	return &endgame{sh: sh, seed: seed, law: eq3{pMinority: float64(sh.dissenters) / float64(sh.n)}}
}

func (w *endgame) maxSteps() int64 { return w.sh.rounds * int64(w.sh.n) }

func (w *endgame) pool() *sched.Pool { return nil }

func (w *endgame) release() { w.cfg = core.BlockConfig{} }

func (w *endgame) laws() []check { return []check{w.law.check()} }

// dissent fills dst with opinion 1 and sets evenly spaced dissenters
// to opinion 2.
func (w *endgame) dissent(_ int, dst []int, _ *rand.Rand) error {
	for i := range dst {
		dst[i] = 1
	}
	stride := len(dst) / w.sh.dissenters
	for i := 0; i < w.sh.dissenters; i++ {
		dst[i*stride] = 2
	}
	return nil
}

func (w *endgame) setup(tr *Tracer, parent, rep int) (setupStats, error) {
	var st setupStats
	cfg := core.BlockConfig{
		Process:  core.VertexProcess,
		Engine:   core.EngineAuto,
		Stop:     core.UntilConsensus,
		MaxSteps: w.maxSteps(),
		Seed:     rng.DeriveSeed(w.seed, seedTrials),
		Init:     w.dissent,
	}
	var err error
	if w.sh.implicit {
		var h *graph.HashedRegular
		st.build, err = tr.timed("graph.build", parent, func() (err error) {
			h, err = graph.NewHashedRegular(w.sh.n, w.sh.d, rng.DeriveSeed(w.seed, seedGraph+uint64(rep)))
			return err
		})
		if err != nil {
			return st, fmt.Errorf("topology: %w", err)
		}
		cfg.Topology, cfg.Compact, cfg.Scratch = h, true, core.NewScratchTopo(h)
	} else {
		var g *graph.Graph
		opts := graph.BuildOpts{Workers: runtime.GOMAXPROCS(0), Stats: &st.phases}
		st.build, err = tr.timed("graph.build", parent, func() (err error) {
			g, err = graph.RandomRegularSeeded(w.sh.n, w.sh.d, rng.DeriveSeed(w.seed, seedGraph+uint64(rep)), opts)
			return err
		})
		if err != nil {
			return st, fmt.Errorf("build: %w", err)
		}
		st.arcIndex, _ = tr.timed("graph.arcindex", parent, func() error { g.ArcIndex(); return nil })
		adj, idx := graph.CSRMemEstimate(g.N(), g.DegreeSum())
		st.csrBytes = adj + idx
		cfg.Graph, cfg.Scratch = g, core.NewScratch(g)
	}
	// One one-step trial under EngineFast retires to the discordance
	// engine at step 0, so the scratch arena holds the opinion slab and
	// the FastState or SparseState index the measured trials reuse.
	warm := cfg
	warm.Engine, warm.MaxSteps, warm.Seed = core.EngineFast, 1, rng.DeriveSeed(w.seed, seedWarmup)
	_, err = tr.timed("core.warmup", parent, func() error {
		var out [1]core.Result
		return core.RunBlock(warm, 0, 1, out[:])
	})
	if err != nil {
		return st, fmt.Errorf("warm-up trial: %w", err)
	}
	w.cfg = cfg
	return st, nil
}

func (w *endgame) step(tr *Tracer, parent, u int, tl *tally) {
	var out [1]core.Result
	// RunBlock steps the trial on this goroutine; pinned to its OS
	// thread, the gauge and the thread's CPU clock run where it steps.
	runtime.LockOSThread()
	gaugeAt := time.Now()
	g := gauge()
	cpu0, start := threadCPU(), time.Now()
	err := core.RunBlock(w.cfg, u, u+1, out[:])
	end, cpu1 := time.Now(), threadCPU()
	runtime.UnlockOSThread()
	tl.elapsed += end.Sub(gaugeAt)
	tr.record("bench.gauge", parent, gaugeAt, start)
	tr.record("core.step", parent, start, end)
	unit := unitStat{trials: 1, wall: end.Sub(start), cpu: cpu1 - cpu0, gauge: g}
	if err != nil {
		tl.lost(1, fmt.Errorf("trial %d: %w", u, err))
		tl.units = append(tl.units, unit)
		return
	}
	r := out[0]
	if err = checkEndgameTrial(r, w.maxSteps()); err != nil {
		err = fmt.Errorf("trial %d: %w", u, err)
	}
	tl.trial(err)
	if err == nil {
		w.law.add(r)
	}
	unit.steps = r.Steps
	tl.units = append(tl.units, unit)
}
