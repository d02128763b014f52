package core

import (
	"fmt"
	"math/rand/v2"

	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
)

// StopCondition tells Run when to halt.
type StopCondition int

const (
	// UntilConsensus runs until one opinion remains (or MaxSteps).
	UntilConsensus StopCondition = iota
	// UntilTwoAdjacent runs until at most two adjacent opinions remain
	// — the end of the paper's reduction phase (Theorem 1).
	UntilTwoAdjacent
	// UntilMaxSteps runs for exactly MaxSteps steps.
	UntilMaxSteps
	// UntilThreeConsecutive runs until the opinion range spans at most
	// three consecutive values. This is the guaranteed absorbing band
	// of the load-balancing baseline ([5] proves convergence to three
	// consecutive values; with floor/ceil averaging, adjacent values
	// exchange nothing, so a sparse graph can stall there forever).
	UntilThreeConsecutive
)

// Config describes one run of an asynchronous voting process.
type Config struct {
	// Graph is the (connected) interaction graph. Required.
	Graph *graph.Graph
	// Initial is the initial opinion per vertex. Required. Opinions
	// must fit in int32, within a window of at most 2²² values.
	Initial []int
	// Process is the scheduler (vertex or edge). Default VertexProcess.
	Process Process
	// Rule is the update rule. Default DIV{}.
	Rule Rule
	// Engine selects the stepping strategy: EngineNaive (default)
	// simulates every scheduler invocation in a sequential loop;
	// EngineFast, and EngineAuto on a PairwiseRule, run the trial as
	// trial 0 of a one-row RunBlock, where EngineFast skip-samples idle
	// steps through the discordance engine (SparseState, sparse.go) and
	// EngineAuto switches between blocked stepping and that engine as
	// discordance falls and rebounds. EngineAuto on any other rule is
	// the sequential loop. All engines realize the exact same process
	// distribution; only EngineNaive's seeded trajectories are
	// byte-stable across engine changes.
	Engine Engine
	// Seed seeds the run's randomness: the sequential loop's private PCG
	// stream (rng.New(Seed)), or, for the one-row RunBlock, the Philox
	// counter stream keyed by (Seed, 0).
	Seed uint64
	// MaxSteps caps the run. 0 means 200·n² steps, far beyond the
	// o(n²) reduction plus O(n²) final-stage times on expanders.
	MaxSteps int64
	// Stop selects the halting condition. Default UntilConsensus.
	Stop StopCondition
	// Observer, when non-nil, is invoked every ObserveEvery steps (and
	// once at step 0) with the live state. Returning false aborts the
	// run early (Result.Aborted is set). The observer must treat the
	// state as read-only: all mutation goes through the engines, whose
	// stop-condition checks assume the support set only changes on
	// simulated steps.
	Observer func(s *State) bool
	// ObserveEvery is the observer period in steps. Default n. It also
	// sets the cadence of the Probe's step-batch and discordance
	// events.
	ObserveEvery int64
	// Probe, when non-nil, receives structured engine events: step
	// batches, block↔sparse switches, discordance-mass samples, stage
	// transitions, and the final resolution (package internal/obs). A
	// nil Probe costs nothing — emission sites reduce to one
	// predictable branch per simulated step — and a non-nil Probe never
	// consumes randomness or alters control flow, so the realized
	// trajectory of a seeded run is identical with and without it.
	Probe obs.Probe
	// TraceSupport records a Stage whenever the set of present opinions
	// changes (the paper's {1,2,5}→{1,2,4}→… evolution).
	TraceSupport bool
	// Scratch, when non-nil, supplies reusable per-worker state: the
	// sequential loop resets the scratch's State and RNG in place, and
	// the one-row RunBlock reuses its block arena (opinion slab, row
	// State, SparseStates), instead of allocating fresh ones, making
	// repeated trials on the same graph O(1) allocations each. The
	// scratch must be bound to the same Graph (NewScratch(cfg.Graph))
	// and must not be shared across goroutines; a seeded run produces a
	// byte-identical Result with and without it.
	Scratch *Scratch
}

// Stage is one entry of the support trace: the set of opinions present
// from FromStep until the next stage.
type Stage struct {
	FromStep int64
	Opinions []int
}

// Result summarizes a run.
type Result struct {
	// Winner is the consensus opinion, or 0 with Consensus=false.
	Winner    int
	Consensus bool
	// Steps is the total number of scheduler invocations performed.
	Steps int64
	// ThreeStep is the first step at which at most three consecutive
	// opinions remained (-1 if never).
	ThreeStep int64
	// TwoAdjacentStep is the first step at which at most two adjacent
	// opinions remained — the paper's T (-1 if never).
	TwoAdjacentStep int64
	// MajorityStep is the first observed step at which some opinion's
	// multiplicity reached BlockConfig.MajorityFrac·n (-1 if never
	// reached or not tracked; blocked runs only — see MajorityFrac for
	// the observation granularity).
	MajorityStep int64
	// InitialAverage is S(0)/n.
	InitialAverage float64
	// InitialWeightedAverage is Σ π_v X_v(0) (= Z(0)/n).
	InitialWeightedAverage float64
	// WeightAtTwoAdjacent is the process-appropriate average when the
	// final stage began (c' in Lemma 5(ii); NaN if never reached).
	WeightAtTwoAdjacent float64
	// FinalMin and FinalMax bound the surviving opinions.
	FinalMin, FinalMax int
	// Aborted is set when the Observer stopped the run.
	Aborted bool
	// Stages is the support trace (nil unless Config.TraceSupport).
	Stages []Stage
}

// Run executes one voting process to its stopping condition.
func Run(cfg Config) (Result, error) {
	if cfg.Graph == nil {
		return Result{}, fmt.Errorf("core: Config.Graph is required")
	}
	rule := cfg.Rule
	if rule == nil {
		rule = DIV{}
	}
	_, pairwise := rule.(PairwiseRule)
	switch cfg.Engine {
	case EngineNaive:
	case EngineFast:
		return runBlock(cfg, rule)
	case EngineAuto:
		if pairwise {
			return runBlock(cfg, rule)
		}
	default:
		return Result{}, fmt.Errorf("core: unknown engine %d", int(cfg.Engine))
	}
	var s *State
	var err error
	if cfg.Scratch != nil {
		s, err = cfg.Scratch.stateFor(cfg.Graph, cfg.Initial)
	} else {
		s, err = NewState(cfg.Graph, cfg.Initial)
	}
	if err != nil {
		return Result{}, err
	}
	sched, err := NewScheduler(s, cfg.Process)
	if err != nil {
		return Result{}, err
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		n := int64(s.N())
		maxSteps = 200 * n * n
	}
	observeEvery := cfg.ObserveEvery
	if observeEvery <= 0 {
		observeEvery = int64(s.N())
	}
	var r *rand.Rand
	if cfg.Scratch != nil {
		r = cfg.Scratch.Rand(cfg.Seed)
	} else {
		r = rng.New(cfg.Seed)
	}

	res := Result{
		ThreeStep:              -1,
		TwoAdjacentStep:        -1,
		MajorityStep:           -1,
		InitialAverage:         s.Average(),
		InitialWeightedAverage: s.WeightedAverage(),
		WeightAtTwoAdjacent:    nan(),
	}
	recordMilestones := func() {
		if res.ThreeStep < 0 && s.Range() <= 2 {
			res.ThreeStep = s.Steps()
		}
		if res.TwoAdjacentStep < 0 && s.Range() <= 1 {
			res.TwoAdjacentStep = s.Steps()
			res.WeightAtTwoAdjacent = sched.WeightAverage()
		}
	}
	recordMilestones()

	var stages []Stage
	recordStage := func() {
		if !cfg.TraceSupport {
			return
		}
		stages = append(stages, Stage{FromStep: s.Steps(), Opinions: s.Support(nil)})
	}
	recordStage()

	if cfg.Observer != nil && !cfg.Observer(s) {
		res.Aborted = true
	}

	done := func() bool { return stopMet(s, cfg.Stop) }

	env := &loopEnv{
		s:            s,
		sched:        sched,
		rule:         rule,
		r:            r,
		maxSteps:     maxSteps,
		observeEvery: observeEvery,
		observer:     cfg.Observer,
		probe:        cfg.Probe,
		nextEmit:     observeEvery,
		res:          &res,
		done:         done,
		onSupport: func() {
			recordMilestones()
			recordStage()
			if cfg.Probe != nil {
				cfg.Probe.Stage(obs.Stage{
					Step:        s.Steps(),
					Support:     s.SupportSize(),
					Min:         s.Min(),
					Max:         s.Max(),
					TwoAdjacent: s.Range() <= 1,
				})
			}
		},
	}
	env.naiveLoop()

	res.Steps = s.Steps()
	res.FinalMin, res.FinalMax = s.Min(), s.Max()
	if w, ok := s.Consensus(); ok {
		res.Winner = w
		res.Consensus = true
	}
	res.Stages = stages
	if cfg.Probe != nil {
		cfg.Probe.Done(obs.Done{
			Step:      res.Steps,
			Winner:    res.Winner,
			Consensus: res.Consensus,
			Aborted:   res.Aborted,
		})
	}
	return res, nil
}

// runBlock runs cfg as trial 0 of a one-row RunBlock: Run's path for
// EngineFast, and for EngineAuto on a PairwiseRule. Its stream is keyed
// by (Seed, 0), and its Init copies cfg.Initial.
func runBlock(cfg Config, rule Rule) (Result, error) {
	if n := cfg.Graph.N(); len(cfg.Initial) != n {
		return Result{}, fmt.Errorf("core: %d initial opinions for %d vertices", len(cfg.Initial), n)
	}
	bc := BlockConfig{
		Graph:    cfg.Graph,
		Process:  cfg.Process,
		Rule:     rule,
		Engine:   cfg.Engine,
		Stop:     cfg.Stop,
		MaxSteps: cfg.MaxSteps,
		Seed:     cfg.Seed,
		Init: func(_ int, dst []int, _ *rand.Rand) error {
			copy(dst, cfg.Initial)
			return nil
		},
		Probe:        obs.ConstMaker(cfg.Probe),
		ObserveEvery: cfg.ObserveEvery,
		TraceSupport: cfg.TraceSupport,
		Scratch:      cfg.Scratch,
		Block:        1,
	}
	if cfg.Observer != nil {
		bc.Observer = func(_ int, s *State) bool { return cfg.Observer(s) }
	}
	var out [1]Result
	err := RunBlock(bc, 0, 1, out[:])
	return out[0], err
}

// loopEnv carries the per-run context of the sequential naive loop
// below.
type loopEnv struct {
	s            *State
	sched        *Scheduler
	rule         Rule
	r            *rand.Rand
	maxSteps     int64
	observeEvery int64
	observer     func(*State) bool
	probe        obs.Probe // nil = no instrumentation, zero overhead
	batch        obs.StepBatch
	nextEmit     int64 // next step boundary for batch/discordance events
	res          *Result
	done         func() bool
	onSupport    func() // milestone + stage recording on support change
}

// stopMet evaluates a stopping condition against the current state.
// Every condition is a predicate on the opinion support set, which is
// why the stepping loops only re-check it when SupportVersion changes.
func stopMet(s *State, stop StopCondition) bool {
	switch stop {
	case UntilConsensus:
		_, ok := s.Consensus()
		return ok
	case UntilTwoAdjacent:
		return s.Range() <= 1
	case UntilThreeConsecutive:
		return s.Range() <= 2
	default: // UntilMaxSteps: only the step cap stops the run
		return false
	}
}

// flushBatch emits the step batch accumulated since the last flush,
// attributed to the given engine regime, and starts a new batch at the
// current step. No-op when no probe is attached or no steps elapsed.
func (e *loopEnv) flushBatch(regime string) {
	to := e.s.Steps()
	if e.probe == nil || to == e.batch.FromStep {
		return
	}
	e.batch.ToStep = to
	e.batch.Engine = regime
	e.probe.StepBatch(e.batch)
	e.batch = obs.StepBatch{FromStep: to}
}

// advanceEmit aligns the next probe-event boundary past the current
// step (multiples of observeEvery, the same cadence observers use).
func (e *loopEnv) advanceEmit() {
	e.nextEmit = (e.s.Steps()/e.observeEvery + 1) * e.observeEvery
}

// naiveLoop is the reference engine: every scheduler invocation is
// simulated individually, including the idle ones.
//
// Two hot-loop refinements keep the per-step cost at a few RNG draws
// plus the rule application, without changing observable behaviour:
// the stop condition is only re-evaluated when the support set changed
// (every StopCondition is a predicate on the support set — range,
// consensus — so it can only flip on a SupportVersion bump; observers
// are read-only by the Config.Observer contract), and the default DIV
// rule is dispatched statically instead of through the Rule interface.
func (e *loopEnv) naiveLoop() {
	s := e.s
	if e.done() {
		return
	}
	prevVersion := s.SupportVersion()
	_, isDIV := e.rule.(DIV)
	for !e.res.Aborted && s.Steps() < e.maxSteps {
		v, w := e.sched.Pair(e.r)
		s.countStep()
		if e.probe != nil {
			if s.opinions[v] != s.opinions[w] {
				e.batch.Active++
			} else {
				e.batch.Idle++
			}
			if s.Steps() >= e.nextEmit {
				e.flushBatch(obs.RegimeNaive)
				e.advanceEmit()
			}
		}
		if isDIV {
			DIV{}.Step(s, e.r, v, w)
		} else {
			e.rule.Step(s, e.r, v, w)
		}
		supportChanged := s.SupportVersion() != prevVersion
		if supportChanged {
			e.onSupport()
			prevVersion = s.SupportVersion()
		}
		if e.observer != nil && s.Steps()%e.observeEvery == 0 {
			if !e.observer(s) {
				e.res.Aborted = true
			}
		}
		if supportChanged && e.done() {
			break
		}
	}
	e.flushBatch(obs.RegimeNaive)
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// RunMany executes trials independent runs of cfg with per-trial
// derived seeds and returns every result. It is a convenience for
// tests; the experiment harness in internal/sim adds parallelism and
// aggregation on top of Run.
func RunMany(cfg Config, trials int) ([]Result, error) {
	results := make([]Result, trials)
	for t := 0; t < trials; t++ {
		c := cfg
		c.Seed = rng.DeriveSeed(cfg.Seed, uint64(t))
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("core: trial %d: %w", t, err)
		}
		results[t] = res
	}
	return results, nil
}
