package core

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
)

// This file implements the blocked multi-trial stepping kernel: B
// independent trials of one (graph, initial-profile) experiment point
// execute in an interleaved loop over structure-of-arrays state — the
// trials' opinion rows live side by side in one int32 slab, all rows
// share the graph's hot adjacency/arc structures, and stop checks,
// engine-switch decisions, and metric flushes happen at chunk
// granularity instead of per step.
//
// Why it is faster than B sequential runs: a consensus trial spends
// almost all of its steps in tight draw→compare→update iterations whose
// working set is the opinion row plus the graph. Running trials back to
// back re-walks the same graph structures per trial with cold branch
// history in between; running them blocked keeps the shared read-only
// structures resident across rows and lets the per-row loops specialize
// (the complete-graph DIV kernel below spends one bounded draw and no
// adjacency traffic per step). The engine dispatch, probe plumbing, and
// stop-condition checks are hoisted out of the per-step path entirely.
//
// Why it is deterministic regardless of blocking: every trial draws
// from its own counter-based rng.Stream keyed by (Seed, trialIndex)
// (see internal/rng/stream.go), and rows share no mutable state — so a
// trial's trajectory is a pure function of its own indices. Running it
// alone, inside a block of any size, or on any worker of the
// work-stealing pool produces bit-identical Results, which is what the
// suite's byte-identity test pins (internal/exp).
//
// The process law is exactly the naive engine's: every scheduler
// invocation is realized individually from the trial's own stream, with
// the same pair distribution (on K_n the single joint draw below is the
// same uniform ordered pair the two-draw path realizes, and on any
// regular topology the vertex process's pair is a uniform arc, drawn
// as the edge process draws it). Idle-draw
// skip-sampling still pays off in the long final stage, so a row whose
// windowed idle fraction crosses the hybrid engine's threshold hands off
// to the discordance engine (sparse.go), borrowing the arena's shared
// SparseState (one per process, rebound per hand-off), and returns to
// blocked stepping if discordance rebounds.

// DefaultBlock is the number of trials a blocked batch keeps in flight
// when BlockConfig.Block is zero. Eight int32 rows of a few thousand
// vertices fit comfortably in L2 next to the shared graph structures;
// measured throughput is flat from 4 to 16, so the default just picks
// the middle of the plateau.
const DefaultBlock = 8

var (
	// blockTrialsTotal counts trials completed by the blocked kernel
	// (including rows that handed off to the discordance engine).
	blockTrialsTotal = obs.Default.Counter("core_block_trials_total")
	// streamRefillsTotal counts per-trial counter-stream buffer refills,
	// flushed once per finished trial (64 words each; see rng.Stream).
	streamRefillsTotal = obs.Default.Counter("rng_stream_refills_total")
)

// BlockConfig describes a batch of independent trials of one
// experiment point, all on the same graph under the same process, rule,
// and stopping condition, differing only in their trial index. The
// trial index determines both the RNG stream (rng.NewStream(Seed, t))
// and the initial profile (Init is called with the trial's own stream-
// backed generator), so a trial's Result is a pure function of
// (configuration, Seed, t).
//
// Run is the one-row case: its fast and auto engines run as trial 0 of
// a BlockConfig. Probes get chunk-granular batch events (regime
// "block", then "sparse" after a hand-off).
type BlockConfig struct {
	// Graph is the (connected, min-degree ≥ 1) interaction graph.
	Graph *graph.Graph
	// Topology, when non-nil, supplies the interaction structure instead
	// of Graph: either a materialized *graph.Graph or one of the
	// O(1)-state implicit families (graph.ImplicitTorus,
	// graph.HashedRegular, …), which never build adjacency and so make
	// n = 10⁶–10⁷ runs affordable. Implicit topologies support only the
	// DIV rule (the generic-rule path needs CSR structure). Under
	// EngineNaive, results are byte-identical to running on
	// Materialize(Topology); EngineFast and EngineAuto hand off to the
	// discordance engine (core/sparse.go) on every backend, which
	// preserves the naive law in distribution but not pointwise (implicit
	// complete topologies, where its rejection sampler degenerates, are
	// rejected / never entered). Setting both Graph and a Topology other
	// than Graph itself is an error.
	Topology graph.Topology
	// Compact stores each trial's opinions as a byte slab (opinion
	// window ≤ 256) instead of int32 — 4× less opinion memory, so a
	// block's working set fits L2 at n = 2²⁰. Requires the DIV rule;
	// under EngineNaive results are byte-identical to the int32
	// representation.
	Compact bool
	// Process is the scheduler (vertex or edge). Default VertexProcess.
	Process Process
	// Rule is the update rule. Default DIV{}. Non-pairwise rules run on
	// the generic scheduler path and never hand off to the discordance
	// engine.
	Rule Rule
	// Engine selects the stepping strategy, with the same semantics as
	// Config.Engine reinterpreted for blocked execution: EngineNaive
	// keeps every trial in the blocked loop to the end, EngineFast
	// hands every trial to the discordance engine immediately (erroring
	// if the run is ineligible), EngineAuto hands a trial off when its
	// windowed idle fraction crosses the hybrid threshold and takes it
	// back when discordance rebounds.
	Engine Engine
	// Stop selects the halting condition. Default UntilConsensus.
	Stop StopCondition
	// MaxSteps caps each trial. 0 means 200·n².
	MaxSteps int64
	// MajorityFrac, when positive, makes each trial record
	// Result.MajorityStep: the first observed step at which some single
	// opinion's multiplicity reaches MajorityFrac·n. The check runs at
	// chunk granularity in the blocked loops and per active step under
	// the discordance engine, so the recorded step is an upper bound
	// within one chunk of the true crossing — the resolution the bign
	// phase split needs, at zero hot-path cost.
	MajorityFrac float64
	// Seed is the experiment point's base seed; trial t draws from the
	// counter stream keyed by (Seed, t).
	Seed uint64
	// Init fills dst (length n) with trial t's initial opinions, using r
	// — the trial's own stream-backed generator — for any randomness.
	// Required.
	Init func(trial int, dst []int, r *rand.Rand) error
	// Probe, when non-nil, builds a per-trial probe exactly as the sim
	// harness does: Probe(t, rng.DeriveSeed(Seed, t)).
	Probe obs.ProbeMaker
	// ObserveEvery is the Observer period in steps and the probe's
	// batch-event cadence (rounded up to chunk boundaries when no
	// Observer is set). Default n.
	ObserveEvery int64
	// Observer, when non-nil, is invoked with each trial's live state at
	// step 0 and at every multiple of ObserveEvery the trial reaches, on
	// every kernel: chunks and sparse skips are clipped at those
	// boundaries, which they are not without an Observer (an observed
	// EngineAuto trial hands off at other steps than an unobserved one;
	// under EngineNaive the Results are byte-identical). Returning false
	// aborts the trial at that step (Result.Aborted). The observer must
	// treat the state as read-only, as Config.Observer.
	Observer func(trial int, s *State) bool
	// TraceSupport records each trial's Result.Stages: a Stage whenever
	// the set of present opinions changes.
	TraceSupport bool
	// Scratch, when non-nil, supplies the reusable block arena (opinion
	// slab, row states, hand-off SparseStates) so repeated batches on one
	// graph allocate nothing. Must be bound to Graph.
	Scratch *Scratch
	// Block is the number of trials stepped concurrently. 0 means
	// DefaultBlock. The value never affects results, only locality.
	Block int
}

// RunBlock executes trials [t0, t1) of the point described by cfg and
// stores trial t's Result in out[t-t0]. Trials are stepped in blocks of
// cfg.Block rows; as a row finishes, the next pending trial is admitted
// into its slot, so the tail of an uneven batch still runs blocked.
func RunBlock(cfg BlockConfig, t0, t1 int, out []Result) error {
	b, err := newBlockRun(cfg)
	if err != nil {
		return err
	}
	if t0 < 0 || t1 < t0 {
		return fmt.Errorf("core: RunBlock trial range [%d,%d)", t0, t1)
	}
	if len(out) < t1-t0 {
		return fmt.Errorf("core: RunBlock needs %d result slots, got %d", t1-t0, len(out))
	}
	bn := b.block
	if r := t1 - t0; r < bn {
		bn = r
	}
	if bn == 0 {
		return nil
	}
	a := b.arena
	a.grow(bn, b.compact)
	a.inflight = append(a.inflight[:0], a.rows[:bn]...)
	rows := a.inflight
	next := t0
	for i := range rows {
		if err := b.initRow(rows[i], next); err != nil {
			return err
		}
		next++
	}
	for len(rows) > 0 {
		// Resolve phase: hand off rows that want the discordance engine,
		// finalize finished trials, and admit replacements, repeating on
		// each slot until it stabilizes (an admitted trial may be born
		// done, or want the fast engine immediately under EngineFast).
		for i := 0; i < len(rows); {
			row := rows[i]
			if row.wantFast && !row.done {
				if err := b.handoffSparse(row); err != nil {
					return err
				}
			}
			if !row.done {
				i++
				continue
			}
			b.finalize(row, out, t0)
			if next < t1 {
				if err := b.initRow(row, next); err != nil {
					return err
				}
				next++
				continue // reprocess slot i with its new trial
			}
			rows[i] = rows[len(rows)-1]
			rows = rows[:len(rows)-1]
		}
		if len(rows) == 0 {
			break
		}
		// Advance phase: one chunk for every runnable row. CSR DIV rows
		// step lane-interleaved (laneChunk) so independent cache misses
		// overlap across trials; other kinds advance row by row.
		if b.lane {
			b.laneChunk(rows)
		} else {
			for _, row := range rows {
				b.advanceChunk(row)
			}
		}
	}
	return nil
}

// kernelKind selects the specialized per-chunk stepping loop.
type kernelKind int

const (
	kindGeneric  kernelKind = iota // any rule, via Scheduler.Pair + Rule.Step
	kindComplete                   // DIV on K_n: one joint bounded draw per step
	kindVertex                     // DIV, vertex process on an irregular topology
	kindEdge                       // DIV, uniform arc: edge process, or vertex process on a regular topology
)

// blockRow is one trial's slot in a block: its State (opinions aliased
// into the arena slab), its counter stream, and the bookkeeping the
// sequential engines keep in locals.
type blockRow struct {
	trial  int
	s      *State
	stream rng.Stream
	r      *rand.Rand // rand.New(&stream): generic path, Init, hand-off
	sched  *Scheduler // built lazily, generic kernel only
	probe  obs.Probe
	batch  obs.StepBatch
	res    Result

	nextEmit int64
	prevVer  uint64
	// Hybrid-trigger window accounting (EngineAuto): counters over the
	// row's own draws, plus the bounce-back cooldown in windows.
	windowDraws, windowActive int64
	cooldown, nextCooldown    int64

	// Unused upper half of the last stream word drawn by the 32-bit
	// kernels (chunkCompleteSmallG and the CSR lane loops). Row-local so
	// the word↔draw alignment follows the trial, not the chunk schedule.
	spare     uint32
	haveSpare bool

	// One-step lookahead slot of the CSR lane loops: step t+1's
	// endpoints (and the tail's degree), pre-drawn — in stream order —
	// while step t retires, so the CSR and opinion loads they imply
	// start a full lane rotation before the pair is consumed (see
	// laneLoopVertex). Row-local like the spare, so the draw↔step
	// alignment is a pure function of the trial's own history.
	nextV, nextW int32
	nextDeg      int64
	haveNext     bool

	// Lane-loop accounting (CSR kernels): the chunk budget left for
	// this lane, steps accepted but not yet added to the State, the
	// deferred sum/degree-sum deltas, and the chunk's draw/active
	// tallies. All row-local, so interleaving lanes cannot couple
	// trials.
	laneRemaining int64
	lanePending   int64
	laneSum       int64
	laneDegSum    int64
	laneDrawn     int64
	laneActive    int64

	done     bool
	wantFast bool // hand off to the discordance engine
}

// blockArena owns the reusable storage of the blocked kernel for one
// graph: the SoA opinion slab, the per-slot rows (state + stream), the
// initial-profile buffer, and one SparseState per process. Like
// Scratch, it is single-goroutine; Scratch.blockArenaFor caches one per
// worker.
type blockArena struct {
	g       *graph.Graph   // nil when topo is an implicit family
	topo    graph.Topology // the backing structure (== g when CSR)
	compact bool           // representation rows are currently aliased to
	slab    []int32
	slab8   []uint8
	rows    []*blockRow
	initBuf []int
	lanes   []*blockRow // scratch live-lane list for laneChunk
	// inflight backs RunBlock's list of rows still stepping, and run is
	// the resolved configuration of the current RunBlock call: both live
	// here so a call on a warm Scratch allocates nothing.
	inflight []*blockRow
	run      blockRun
	// sparse is the shared SparseState per process (O(n) position index
	// + O(discordance) member set), rebound and reseeded per hand-off.
	sparse [2]*SparseState
}

func newBlockArena(t graph.Topology) *blockArena {
	g, _ := t.(*graph.Graph)
	return &blockArena{g: g, topo: t}
}

// grow ensures the arena holds at least bn rows aliased into the slab
// of the requested representation (int32 or compact byte), re-aliasing
// on every call so representation switches between batches are safe.
// Row states are fully rebuilt by initRow, so re-aliasing need not
// preserve contents.
func (a *blockArena) grow(bn int, compact bool) {
	n := a.topo.N()
	for j := len(a.rows); j < bn; j++ {
		row := &blockRow{s: &State{g: a.g}}
		if a.g == nil {
			row.s.topo = a.topo
		}
		row.r = rand.New(&row.stream)
		a.rows = append(a.rows, row)
	}
	a.compact = compact
	if compact {
		if cap(a.slab8) < bn*n {
			a.slab8 = make([]uint8, bn*n)
		} else {
			a.slab8 = a.slab8[:bn*n]
		}
		for j := 0; j < bn; j++ {
			s := a.rows[j].s
			s.opb = a.slab8[j*n : (j+1)*n : (j+1)*n]
			s.opinions = nil
		}
		return
	}
	if cap(a.slab) < bn*n {
		a.slab = make([]int32, bn*n)
	} else {
		a.slab = a.slab[:bn*n]
	}
	for j := 0; j < bn; j++ {
		s := a.rows[j].s
		s.opinions = a.slab[j*n : (j+1)*n : (j+1)*n]
		s.opb = nil
	}
}

// sparseFor returns the arena's shared SparseState for proc, rebound
// to s and reseeded against its current opinions: a hand-off's seeding
// costs one read of the opinion row plus O(old members + n/64 +
// n_off·d̄) (see SparseState.Seed). One per process, lent
// to whichever trial is stepping under the discordance engine; that
// trial finishes or bounces back before any other can need it.
func (a *blockArena) sparseFor(s *State, proc Process) (*SparseState, error) {
	if sp := a.sparse[proc]; sp != nil {
		sp.rebind(s)
		sp.Seed()
		return sp, nil
	}
	sp, err := NewSparseState(s, proc)
	if err != nil {
		return nil, err
	}
	a.sparse[proc] = sp
	return sp, nil
}

// blockRun is the resolved, validated configuration plus the
// kernel-selection constants hoisted out of the stepping loops.
type blockRun struct {
	g *graph.Graph // nil when the run is backed by an implicit topology
	// topo is the structure backing the kernels (== g when CSR); atopo
	// its arc-map view, set for the implicit edge process and read only
	// on irregular topologies (regular ones draw through arcTail). tuned
	// marks the CSR + int32 combination, which keeps the hand-tuned lane
	// loops; every other combination (implicit topology and/or compact
	// byte slab) runs the topology-generic loops in block_topo.go, whose
	// draw structure is transcribed from the tuned loops so trajectories
	// stay byte-identical across backends and representations.
	topo    graph.Topology
	atopo   graph.ArcTopology
	compact bool
	tuned   bool
	proc    Process
	rule    Rule
	pw      PairwiseRule // nil when the rule is not pairwise
	isDIV   bool
	engine  Engine
	stop    StopCondition

	seed         uint64
	maxSteps     int64
	observeEvery int64
	observer     func(trial int, s *State) bool
	traceSupport bool
	init         func(trial int, dst []int, r *rand.Rand) error
	probeMaker   obs.ProbeMaker
	arena        *blockArena
	block        int

	kind  kernelKind
	n     int
	un    uint64 // n
	arcs  uint64 // degree sum (edge kernel modulus)
	m     uint64 // n(n-1), complete kernel modulus
	d     uint64 // n-1
	magic uint64 // ⌈2^40/d⌉ for the divide-free decomposition; 0 ⇒ q/d

	// CSR lane-kernel constants: lane is true when the vertex/edge DIV
	// kernels can run the inline 32-bit lane loops (n and arc count fit
	// a half word — always, in practice, since vertices are int32); off
	// and adj alias the graph's CSR arrays, tails its ArcIndex (irregular
	// edge-process runs only).
	lane  bool
	off   []int64
	adj   []int32
	tails []int32
	// Regular arc draw: deg is the constant degree d of a regular
	// topology with arc count below 2^32, and 0 on every other run;
	// recip is arcRecip(d), which maps an arc to its tail with one
	// multiply (see arcTail).
	deg   uint32
	recip uint64
	// laneSink absorbs the lane loops' lookahead touches of op[nextV]
	// and op[nextW]: accumulating the loaded values into a heap field
	// keeps the compiler from discarding the loads, which are the
	// software prefetch that hides the next step's opinion misses
	// behind the other lanes' work. Never read.
	laneSink int64

	// Hybrid hand-off thresholds (see hybrid.go's cost model) and the
	// batch-wide kill switch, set for runs that cannot hand off and when
	// SparseState construction fails.
	enterScale, exitScale int64
	handoffDisabled       bool
	// majorityCount is the opinion multiplicity at which MajorityFrac is
	// reached; 0 disables the check.
	majorityCount int64
}

func newBlockRun(cfg BlockConfig) (*blockRun, error) {
	g := cfg.Graph
	topo := cfg.Topology
	switch tg := topo.(type) {
	case nil:
		if g == nil {
			return nil, fmt.Errorf("core: BlockConfig.Graph or Topology is required")
		}
		topo = g
	case *graph.Graph:
		if g != nil && g != tg {
			return nil, fmt.Errorf("core: BlockConfig.Graph and Topology disagree")
		}
		g = tg
	default:
		if g != nil {
			return nil, fmt.Errorf("core: BlockConfig.Graph and Topology disagree")
		}
	}
	if cfg.Init == nil {
		return nil, fmt.Errorf("core: BlockConfig.Init is required")
	}
	if cfg.Process != VertexProcess && cfg.Process != EdgeProcess {
		return nil, fmt.Errorf("core: unknown process %v", cfg.Process)
	}
	if topo.MinDegree() == 0 {
		return nil, fmt.Errorf("core: %v process requires min degree >= 1", cfg.Process)
	}
	rule := cfg.Rule
	if rule == nil {
		rule = DIV{}
	}
	pw, _ := rule.(PairwiseRule)
	_, isDIV := rule.(DIV)
	if !isDIV {
		if g == nil {
			return nil, fmt.Errorf("core: implicit topology %q supports only the DIV rule (rule %q needs CSR structure)", topo.Name(), rule.Name())
		}
		if cfg.Compact {
			return nil, fmt.Errorf("core: compact opinion representation supports only the DIV rule, got %q", rule.Name())
		}
	}
	switch cfg.Engine {
	case EngineNaive, EngineAuto:
	case EngineFast:
		if pw == nil {
			return nil, fmt.Errorf("core: fast engine requires a PairwiseRule, got %q", rule.Name())
		}
		// Implicit/compact eligibility is kind-dependent and validated
		// after kernel selection below.
	default:
		return nil, fmt.Errorf("core: unknown engine %d", int(cfg.Engine))
	}
	n := topo.N()
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 200 * int64(n) * int64(n)
	}
	observeEvery := cfg.ObserveEvery
	if observeEvery <= 0 {
		observeEvery = int64(n)
	}
	var arena *blockArena
	if cfg.Scratch != nil {
		var err error
		if arena, err = cfg.Scratch.blockArenaFor(topo); err != nil {
			return nil, err
		}
	} else {
		arena = newBlockArena(topo)
	}
	block := cfg.Block
	if block <= 0 {
		block = DefaultBlock
	}
	costUnits := hybridCostRatio * hybridCostUnits(topo)
	b := &arena.run
	*b = blockRun{
		g: g, topo: topo, compact: cfg.Compact,
		proc: cfg.Process, rule: rule, pw: pw, isDIV: isDIV,
		engine: cfg.Engine, stop: cfg.Stop,
		seed: cfg.Seed, maxSteps: maxSteps, observeEvery: observeEvery,
		observer: cfg.Observer, traceSupport: cfg.TraceSupport,
		init: cfg.Init, probeMaker: cfg.Probe, arena: arena, block: block,
		n: n, un: uint64(n), arcs: uint64(topo.DegreeSum()),
		enterScale: 2 * costUnits, exitScale: costUnits,
	}
	if cfg.MajorityFrac > 0 {
		b.majorityCount = int64(cfg.MajorityFrac * float64(n))
		if b.majorityCount < 1 {
			b.majorityCount = 1
		}
	}
	b.tuned = g != nil && !cfg.Compact
	complete := false
	if g != nil {
		complete = g.IsComplete()
	} else if _, ok := topo.(*graph.ImplicitComplete); ok {
		complete = true
	}
	// A regular topology whose arc indices fit a half word draws its
	// arcs through arcTail, whose exactness needs a < 2^32.
	regular := b.arcs == b.un*uint64(topo.MinDegree()) && b.arcs < 1<<32
	switch {
	case !isDIV:
		b.kind = kindGeneric
	case complete:
		b.kind = kindComplete
		b.m = uint64(n) * uint64(n-1)
		b.d = uint64(n - 1)
		// Divide-free decomposition of the joint draw q ∈ [0, n(n-1)):
		// with M = ⌊2^40/d⌋+1, (q·M)>>40 equals ⌊q/d⌋ exactly because
		// the rounding error q·(M - 2^40/d)/2^40 < q/2^40 < 2^-14 can
		// never bridge frac(q/d) ≤ 1-1/d to 1 while d < 2^13 ≤ 2^14.
		// The product stays under (d+1)·2^40 < 2^53. Above the gate the
		// kernel falls back to a hardware divide per step.
		if n <= 8192 {
			b.magic = (1<<40)/b.d + 1
		}
	case cfg.Process == VertexProcess && !regular:
		b.kind = kindVertex
	default:
		// On a d-regular topology the vertex process picks (v, w) with
		// probability 1/n · 1/d = 1/2m, a uniform arc: one draw over the
		// arcs realizes both processes.
		b.kind = kindEdge
	}
	if b.kind == kindVertex || b.kind == kindEdge {
		if g != nil {
			b.off = g.Offsets()
			b.adj = g.Arcs()
		} else if cfg.Process == EdgeProcess {
			at, ok := topo.(graph.ArcTopology)
			if !ok {
				return nil, fmt.Errorf("core: edge process on implicit topology %q requires an arc map (graph.ArcTopology)", topo.Name())
			}
			b.atopo = at
		}
		switch {
		case regular:
			b.deg = uint32(topo.MinDegree())
			b.recip = arcRecip(b.deg)
		case b.kind == kindEdge && g != nil:
			b.tails = g.ArcIndex()
		}
		b.lane = b.un <= 1<<32-1 && (b.kind == kindVertex || b.arcs <= 1<<32-1)
		if !b.lane && !b.tuned {
			// The full-word fallback kernels are CSR + int32 only; the
			// generic lane loops cover every realistic size (n and arc
			// count below 2^32).
			return nil, fmt.Errorf("core: implicit/compact blocked runs require n and arc count < 2^32")
		}
	}
	// Hand-off eligibility: every pairwise rule on the tuned CSR+int32
	// path, and DIV on every other non-complete backend. Implicit and
	// compact complete topologies are excluded: with d = n-1 the member
	// set is ~n and rejection sampling degenerates, and K_n's extreme
	// cost-model thresholds mean the window would essentially never
	// trigger anyway.
	b.handoffDisabled = pw == nil || (!b.tuned && b.kind == kindComplete)
	if cfg.Engine == EngineFast && b.handoffDisabled {
		return nil, fmt.Errorf("core: fast engine on %q: the sparse discordance engine serves pairwise rules on CSR graphs with int32 opinions and DIV on non-complete implicit/compact runs", topo.Name())
	}
	// An observer every few steps clips every skip to a few steps, so
	// skip-sampling would cost more than the draws it skips: EngineAuto
	// stays blocked then.
	if cfg.Engine == EngineAuto && cfg.Observer != nil && observeEvery < 8 {
		b.handoffDisabled = true
	}
	return b, nil
}

// initRow prepares row to run trial, reusing every allocation: the
// stream is reseeded to (Seed, trial), Init fills the arena's profile
// buffer from the trial's own stream, and the row State is ResetTo it
// (keeping its slab-aliased opinion row).
func (b *blockRun) initRow(row *blockRow, trial int) error {
	row.trial = trial
	row.stream.Seed(b.seed, uint64(trial))
	if b.arena.initBuf == nil {
		b.arena.initBuf = make([]int, b.n)
	}
	if err := b.init(trial, b.arena.initBuf, row.r); err != nil {
		return fmt.Errorf("core: block trial %d init: %w", trial, err)
	}
	if err := row.s.ResetTo(b.arena.initBuf); err != nil {
		return fmt.Errorf("core: block trial %d: %w", trial, err)
	}
	if b.kind == kindGeneric && row.sched == nil {
		sc, err := NewScheduler(row.s, b.proc)
		if err != nil {
			return err
		}
		row.sched = sc
	}
	s := row.s
	row.res = Result{
		ThreeStep:              -1,
		TwoAdjacentStep:        -1,
		MajorityStep:           -1,
		InitialAverage:         s.Average(),
		InitialWeightedAverage: s.WeightedAverage(),
		WeightAtTwoAdjacent:    nan(),
	}
	row.probe = nil
	if b.probeMaker != nil {
		row.probe = b.probeMaker(trial, rng.DeriveSeed(b.seed, uint64(trial)))
	}
	row.batch = obs.StepBatch{}
	row.nextEmit = b.observeEvery
	row.prevVer = s.SupportVersion()
	row.windowDraws, row.windowActive = 0, 0
	row.cooldown, row.nextCooldown = 0, 1
	row.spare, row.haveSpare = 0, false
	row.nextV, row.nextW, row.nextDeg, row.haveNext = 0, 0, 0, false
	row.laneRemaining, row.lanePending = 0, 0
	row.laneSum, row.laneDegSum = 0, 0
	row.laneDrawn, row.laneActive = 0, 0
	row.done, row.wantFast = false, false
	b.recordMilestones(row)
	b.recordStage(row)
	b.checkMajority(row)
	if b.observer != nil {
		b.observe(row)
	}
	switch {
	case row.done:
	case stopMet(s, b.stop) || b.maxSteps <= 0:
		row.done = true
	case b.engine == EngineFast:
		row.wantFast = true
	}
	return nil
}

// observe invokes the observer when row's trial sits on an ObserveEvery
// boundary, and ends the trial there if the observer aborts it. Callers
// check b.observer first and call it at step 0 and after each advance
// (a running trial never has a zero chunk or skip budget), so no
// boundary is observed twice.
func (b *blockRun) observe(row *blockRow) {
	if s := row.s; s.Steps()%b.observeEvery == 0 && !b.observer(row.trial, s) {
		row.res.Aborted = true
		row.done = true
	}
}

// chunkLimit is the draw budget of a chunk: hybridWindow, clipped at
// MaxSteps and, with an observer, at the next ObserveEvery boundary.
func (b *blockRun) chunkLimit(s *State) int64 {
	limit := min(hybridWindow, b.maxSteps-s.Steps())
	if b.observer != nil {
		limit = min(limit, b.observeEvery-s.Steps()%b.observeEvery)
	}
	return limit
}

// recordStage appends the current support to the trial's Stages when
// TraceSupport is set.
func (b *blockRun) recordStage(row *blockRow) {
	if b.traceSupport {
		s := row.s
		row.res.Stages = append(row.res.Stages, Stage{FromStep: s.Steps(), Opinions: s.Support(nil)})
	}
}

// weightAverage mirrors Scheduler.WeightAverage without needing a
// Scheduler per row: the process-appropriate average opinion.
func (b *blockRun) weightAverage(s *State) float64 {
	if b.proc == EdgeProcess {
		return s.Average()
	}
	return s.WeightedAverage()
}

// checkMajority records the MajorityFrac crossing (see
// BlockConfig.MajorityFrac). Counts move only on active steps, so
// calling this at chunk boundaries and after sparse active steps
// observes every crossing within one check interval.
func (b *blockRun) checkMajority(row *blockRow) {
	if b.majorityCount == 0 || row.res.MajorityStep >= 0 {
		return
	}
	if row.s.LargestCount() >= b.majorityCount {
		row.res.MajorityStep = row.s.Steps()
	}
}

func (b *blockRun) recordMilestones(row *blockRow) {
	s := row.s
	if row.res.ThreeStep < 0 && s.Range() <= 2 {
		row.res.ThreeStep = s.Steps()
	}
	if row.res.TwoAdjacentStep < 0 && s.Range() <= 1 {
		row.res.TwoAdjacentStep = s.Steps()
		row.res.WeightAtTwoAdjacent = b.weightAverage(s)
	}
}

// supportEvent records milestones and the support stage and emits the
// probe Stage event: the support handling of every kernel and of the
// sparse loop.
func (b *blockRun) supportEvent(row *blockRow) {
	b.recordMilestones(row)
	b.recordStage(row)
	if row.probe != nil {
		s := row.s
		row.probe.Stage(obs.Stage{
			Step:        s.Steps(),
			Support:     s.SupportSize(),
			Min:         s.Min(),
			Max:         s.Max(),
			TwoAdjacent: s.Range() <= 1,
		})
	}
}

// afterSupport is the cold path of an active step that changed the
// support set: milestones, probe, stop re-evaluation. Returns done.
func (b *blockRun) afterSupport(row *blockRow) bool {
	row.prevVer = row.s.SupportVersion()
	b.supportEvent(row)
	if stopMet(row.s, b.stop) {
		row.done = true
	}
	return row.done
}

// flushRow emits the accumulated block-regime step batch, if any.
func (b *blockRun) flushRow(row *blockRow) {
	to := row.s.Steps()
	if row.probe == nil || to == row.batch.FromStep {
		return
	}
	row.batch.ToStep = to
	row.batch.Engine = obs.RegimeBlock
	row.probe.StepBatch(row.batch)
	row.batch = obs.StepBatch{FromStep: to}
}

// advanceChunk runs one chunk (hybridWindow draws, clipped at MaxSteps)
// of row's trial through the specialized per-row kernel, then the
// chunk-granular bookkeeping. The CSR DIV kinds normally go through
// laneChunk instead; only the edge kind lands here, above the 32-bit
// arc gate, where the full-word fallback applies. The vertex kind
// never does: with min degree ≥ 1 every vertex id appears in the int32
// adjacency, so n < 2^32 on CSR, and implicit runs past the gate are
// rejected at set-up.
func (b *blockRun) advanceChunk(row *blockRow) {
	switch b.kind {
	case kindComplete:
		b.chunkComplete(row)
	case kindEdge:
		b.chunkEdgeBig(row)
	default:
		b.chunkGeneric(row)
	}
	b.afterChunk(row)
}

// afterChunk is the chunk-granular bookkeeping shared by the per-row
// and lane-interleaved paths: MaxSteps termination, the observer at
// ObserveEvery boundaries, probe batch flushing on the same cadence,
// and the hybrid hand-off trigger. All decisions depend only on the
// row's own draws and state, which is what keeps results independent
// of block composition.
func (b *blockRun) afterChunk(row *blockRow) {
	s := row.s
	if b.observer != nil {
		b.observe(row)
	}
	if !row.done && s.Steps() >= b.maxSteps {
		row.done = true
	}
	b.checkMajority(row)
	if row.probe != nil && s.Steps() >= row.nextEmit {
		b.flushRow(row)
		row.nextEmit = (s.Steps()/b.observeEvery + 1) * b.observeEvery
	}
	if row.done || row.wantFast {
		return
	}
	// Hybrid trigger, evaluated at chunk granularity: the windowed
	// idle-fraction policy of hybrid.go's cost model, a lawful stopping
	// time because it is a function of the row's own realized draws.
	if b.engine == EngineAuto && !b.handoffDisabled && row.windowDraws >= hybridWindow {
		switch {
		case row.cooldown > 0:
			row.cooldown--
		case row.windowActive*b.enterScale < row.windowDraws:
			// handoffSparse reports the window's tallies, then clears them.
			row.wantFast = true
			return
		}
		row.windowDraws, row.windowActive = 0, 0
	}
}

// chunkComplete is the K_n DIV kernel: one bounded draw per step over
// ordered pairs. On K_n the vertex and edge processes coincide — both
// schedule a uniform ordered pair (v, w), v ≠ w, the vertex path as
// 1/n · 1/(n-1) and the edge path as 1/(n(n-1)) — so a single joint
// draw q ∈ [0, n(n-1)) with v = ⌊q/(n-1)⌋, w = q mod (n-1) (+1 if
// ≥ v) realizes either process exactly.
//
// At the magic-divide gate (n ≤ 8192, so m = n(n-1) < 2^26) the kernel
// goes two steps further than the general-graph loops:
//
//   - Half-word draws: m < 2^32, so the Lemire bounded draw runs on 32
//     bits — q = hi32(x·m) of a 32-bit half of a stream word, accepted
//     when lo32(x·m) ≥ (2^32-m) mod m, exactly uniform by the same
//     argument as the 64-bit version. Each stream word feeds two steps,
//     halving the Philox refill cost per step. The spare half persists
//     in the row, so the word↔step alignment is a pure function of the
//     trial's own history.
//
//   - Inlined DIV update: the hot loop maintains only the opinion row
//     and the counts histogram, accumulating the S-sum delta in a
//     register. Everything else the State carries — degree masses,
//     degree-weighted sum, extremes, support — is degenerate on K_n
//     (uniform degree d makes degMass = d·counts and degSum = d·sum)
//     or can only change when a counts cell crosses zero, which the
//     loop detects directly (counts[to] == 1 or counts[from] == 0) and
//     routes to a cold flush that restores the full State invariants
//     before milestones and stop checks run.
//
// Above the gate the fallback loop uses full-word draws, a hardware
// divide, and the general SetOpinion path.
//
// Both loops live in block_topo.go, generic over the opinion cell, and
// serve the int32 and compact representations alike: they resolve the
// slab and the bias once per chunk, so the int32 instances cost what
// hand-specialized copies did (paired thread-CPU time at K_n(3200),
// B = 8: generic/specialized 0.985–1.010 in the median).
func (b *blockRun) chunkComplete(row *blockRow) {
	switch {
	case b.compact && b.magic != 0:
		chunkCompleteSmallG[uint8](b, row)
	case b.compact:
		chunkCompleteBigG[uint8](b, row)
	case b.magic != 0:
		chunkCompleteSmallG[int32](b, row)
	default:
		chunkCompleteBigG[int32](b, row)
	}
}

// syncCompleteState restores the State aggregates the small-K_n loop
// leaves stale: the sums (from the accumulated delta; degrees are
// uniformly d on K_n, so degSum = d·sum moves in lockstep) and the
// counts-derived degree masses, support size, and extreme pointers.
func (b *blockRun) syncCompleteState(s *State, sumDelta int64) {
	d := int64(b.d)
	s.sum += sumDelta
	s.degSum += d * sumDelta
	support := 0
	minIdx, maxIdx := -1, 0
	for i, c := range s.counts {
		s.degMass[i] = d * c
		if c > 0 {
			support++
			if minIdx < 0 {
				minIdx = i
			}
			maxIdx = i
		}
	}
	s.support = support
	s.minIdx, s.maxIdx = minIdx, maxIdx
}

// chunkEdgeBig is the fallback DIV kernel for the edge process when
// the arc count exceeds the 32-bit lane gate (degree sum ≥ 2^32): one
// full-word bounded draw over directed arcs, endpoints from the shared
// tails/heads arrays, general SetOpinion path.
func (b *blockRun) chunkEdgeBig(row *blockRow) {
	s := row.s
	st := &row.stream
	tails, heads := b.g.ArcIndex(), b.g.Arcs()
	op := s.opinions
	arcs := b.arcs
	probe := row.probe != nil
	limit := b.chunkLimit(s)
	var pending int64
	for i := int64(0); i < limit; i++ {
		x := st.Uint64()
		hi, lo := bits.Mul64(x, arcs)
		if lo < arcs {
			hi = st.Uint64nSlow(hi, lo, arcs)
		}
		v, w := tails[hi], heads[hi]
		pending++
		xv := op[v]
		if xv == op[w] {
			if probe {
				row.batch.Idle++
			}
			continue
		}
		row.windowActive++
		s.addSteps(pending)
		pending = 0
		if probe {
			row.batch.Active++
		}
		if xv < op[w] {
			s.SetOpinion(int(v), int(xv)+1)
		} else {
			s.SetOpinion(int(v), int(xv)-1)
		}
		if s.SupportVersion() != row.prevVer && b.afterSupport(row) {
			row.windowDraws += i + 1
			return
		}
	}
	s.addSteps(pending)
	row.windowDraws += limit
}

// laneChunk advances every runnable row by one chunk with the rows
// interleaved step by step — the CSR analogue of advanceChunk. Each
// row ("lane") gets the same budget it would get alone (hybridWindow
// accepted draws, clipped at MaxSteps) and draws only from its own
// stream, so the interleave order is unobservable in the results: a
// trial's trajectory is identical whether it runs with 0 or 7
// neighbours. What interleaving buys is memory-level parallelism — on
// graphs whose opinion rows outgrow the close caches, the random
// op[v] access of one lane misses while the other lanes' independent
// work keeps the core busy, instead of every miss serializing behind
// the previous step's data-dependent branch.
func (b *blockRun) laneChunk(rows []*blockRow) {
	live := b.arena.lanes[:0]
	for _, row := range rows {
		limit := b.chunkLimit(row.s)
		row.laneRemaining = limit
		row.lanePending, row.laneSum, row.laneDegSum = 0, 0, 0
		row.laneDrawn, row.laneActive = 0, 0
		if limit > 0 {
			live = append(live, row)
		}
	}
	switch {
	case b.kind == kindVertex && b.tuned:
		live = b.laneLoopVertex(live)
	case b.kind == kindVertex && b.compact:
		live = laneLoopTopoVertex[uint8](b, live)
	case b.kind == kindVertex:
		live = laneLoopTopoVertex[int32](b, live)
	case b.tuned:
		live = b.laneLoopEdge(live)
	case b.compact:
		live = laneLoopTopoEdge[uint8](b, live)
	default:
		live = laneLoopTopoEdge[int32](b, live)
	}
	b.arena.lanes = live[:0]
	for _, row := range rows {
		b.afterChunk(row)
	}
}

// laneCommit applies the row's deferred step count and sum deltas to
// its State. Idempotent between accumulations.
func (b *blockRun) laneCommit(row *blockRow) {
	s := row.s
	if row.lanePending != 0 {
		s.addSteps(row.lanePending)
		row.lanePending = 0
	}
	if row.laneSum != 0 || row.laneDegSum != 0 {
		s.sum += row.laneSum
		s.degSum += row.laneDegSum
		row.laneSum, row.laneDegSum = 0, 0
	}
}

// laneRetire folds the row's chunk tallies into the hybrid-trigger
// window when the lane leaves the live set (budget exhausted or done).
func (b *blockRun) laneRetire(row *blockRow) {
	b.laneCommit(row)
	row.windowDraws += row.laneDrawn
	row.windowActive += row.laneActive
	row.laneDrawn, row.laneActive = 0, 0
}

// syncCSRSupport recomputes support size and the extreme pointers from
// the counts histogram after the lane loops detect a cell crossing
// zero. Unlike the K_n sync, only the support aggregates need
// restoring: the lane loops maintain counts and degMass inline and
// commit the sum deltas before calling here. Values outside the old
// [minIdx, maxIdx] window are impossible (DIV moves opinions strictly
// inward), so the rescan is bounded by the current range.
func syncCSRSupport(s *State) {
	support := 0
	minIdx, maxIdx := -1, 0
	for i := s.minIdx; i <= s.maxIdx; i++ {
		if s.counts[i] > 0 {
			support++
			if minIdx < 0 {
				minIdx = i
			}
			maxIdx = i
		}
	}
	s.support = support
	s.minIdx, s.maxIdx = minIdx, maxIdx
}

// drawLaneVertex draws the next vertex-process pair from row's own
// stream — v by half-word Lemire over the fixed bound n, then a
// neighbour index over [0, deg(v)), whose varying bound gets its exact
// rejection threshold computed only in the ambiguous band — and
// stashes (v, w, deg(v)) in the row's lookahead slot. Called one lane
// visit before the pair is consumed, so the CSR offset and adjacency
// loads it performs (plus the caller's touch of both opinion cells)
// are the software prefetch of the NEXT step: by consumption time the
// loads have had a full lane rotation to complete behind the other
// lanes' work.
func (b *blockRun) drawLaneVertex(row *blockRow) {
	st := &row.stream
	n32 := uint32(b.un)
	threshN := -n32 % n32 // (2^32 - n) mod n
	var v uint32
	for {
		var x uint32
		if row.haveSpare {
			x, row.haveSpare = row.spare, false
		} else {
			word := st.Uint64()
			x, row.spare, row.haveSpare = uint32(word), uint32(word>>32), true
		}
		prod := uint64(x) * uint64(n32)
		if uint32(prod) >= threshN {
			v = uint32(prod >> 32)
			break
		}
	}
	o := b.off[v]
	d32 := uint32(b.off[v+1] - o)
	var ni uint32
	for {
		var x uint32
		if row.haveSpare {
			x, row.haveSpare = row.spare, false
		} else {
			word := st.Uint64()
			x, row.spare, row.haveSpare = uint32(word), uint32(word>>32), true
		}
		prod := uint64(x) * uint64(d32)
		lo := uint32(prod)
		if lo >= d32 || lo >= -d32%d32 {
			ni = uint32(prod >> 32)
			break
		}
	}
	row.nextV = int32(v)
	row.nextW = b.adj[o+int64(ni)]
	row.nextDeg = int64(d32)
}

// arcRecip returns ⌈2^64/d⌉ for d ≥ 2, and 0 for d = 1 (where
// 2^64 − 1 + 1 wraps): the multiplier arcTail divides by d with.
func arcRecip(d uint32) uint64 {
	return ^uint64(0)/uint64(d) + 1
}

// arcTail returns ⌊a/d⌋, the tail of arc a on a d-regular topology
// (vertex v owns arcs v·d … v·d+d−1), as hi64(recip·a) with recip =
// arcRecip(d); recip = 0 is d = 1, the identity. Exact for every
// a < 2^32 and d < 2^32: write recip = (2^64 + e)/d with 0 ≤ e < d and
// a = qd + r with r ≤ d−1; then recip·a/2^64 = q + (r + a·e/2^64)/d,
// and a·e < 2^32·d ≤ 2^64 keeps r + a·e/2^64 below d, so the floor
// is q.
func arcTail(a uint32, recip uint64) uint32 {
	if recip == 0 {
		return a
	}
	hi, _ := bits.Mul64(recip, uint64(a))
	return uint32(hi)
}

// drawLaneEdge is drawLaneVertex's uniform-arc counterpart, serving the
// edge process and, on a regular topology, the vertex process: one
// half-word Lemire draw over the fixed arc count selects a directed
// arc, whose head is adj[a]. On a regular run the tail is arcTail(a)
// and the degree the constant d, so the draw reads no tails slice and
// no offsets; otherwise the tail comes from the shared tails array and
// its degree (needed by the degree-mass update) from the CSR offsets
// at pre-draw time, which doubles as its prefetch.
func (b *blockRun) drawLaneEdge(row *blockRow) {
	st := &row.stream
	a32 := uint32(b.arcs)
	threshA := -a32 % a32 // (2^32 - arcs) mod arcs
	var ai uint32
	for {
		var x uint32
		if row.haveSpare {
			x, row.haveSpare = row.spare, false
		} else {
			word := st.Uint64()
			x, row.spare, row.haveSpare = uint32(word), uint32(word>>32), true
		}
		prod := uint64(x) * uint64(a32)
		if uint32(prod) >= threshA {
			ai = uint32(prod >> 32)
			break
		}
	}
	row.nextW = b.adj[ai]
	if b.deg != 0 {
		row.nextV = int32(arcTail(ai, b.recip))
		row.nextDeg = int64(b.deg)
		return
	}
	v := b.tails[ai]
	row.nextV = v
	row.nextDeg = b.off[v+1] - b.off[v]
}

// laneLoopVertex is the interleaved CSR DIV kernel for the vertex
// process, stepped with one-step lookahead: each visit consumes the
// pair stashed by the PREVIOUS visit's drawLaneVertex, immediately
// pre-draws the pair after it, and touches the pre-drawn opinion
// cells, so every lane keeps its next random-access misses in flight
// while the other lanes execute. The draws still leave the stream in
// exactly the order the non-lookahead kernel consumed them — pair t is
// the t-th pair drawn either way — so trajectories are unchanged, and
// the stash lives in the row, so the alignment survives chunk and span
// boundaries at any block size. The inlined DIV update maintains
// opinions, counts, and degree masses directly, accumulates the sum
// deltas in row-local registers, and routes counts-cell zero-crossings
// to the cold commit/sync/milestone path, exactly the K_n small
// kernel's structure generalized to CSR adjacency. Removing a finished
// lane swaps from the end; service order among lanes is unobservable
// (streams are per-trial), so no rotation bookkeeping is needed beyond
// the round-robin index.
func (b *blockRun) laneLoopVertex(live []*blockRow) []*blockRow {
	var touch int32
	for li := 0; len(live) > 0; {
		if li >= len(live) {
			li = 0
		}
		row := live[li]
		s := row.s
		op := s.opinions
		if !row.haveNext {
			// Trial's first lane visit: fill the lookahead slot so the
			// steady state below always consumes a pair drawn one full
			// lane rotation earlier.
			b.drawLaneVertex(row)
			row.haveNext = true
		}
		v, w, dv := row.nextV, row.nextW, row.nextDeg
		b.drawLaneVertex(row)
		touch += op[row.nextV] ^ op[row.nextW]
		row.laneDrawn++
		row.lanePending++
		xv := op[v]
		xw := op[w]
		if xv != xw {
			row.laneActive++
			if row.probe != nil {
				row.batch.Active++
			}
			var nw int32
			var ds int64
			if xv < xw {
				nw, ds = xv+1, 1
			} else {
				nw, ds = xv-1, -1
			}
			op[v] = nw
			i := nw - s.base
			j := xv - s.base
			s.counts[i]++
			s.counts[j]--
			s.degMass[i] += dv
			s.degMass[j] -= dv
			row.laneSum += ds
			row.laneDegSum += ds * dv
			if s.counts[i] == 1 || s.counts[j] == 0 {
				b.laneCommit(row)
				syncCSRSupport(s)
				s.supVer++
				if b.afterSupport(row) {
					b.laneRetire(row)
					live[li] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
			}
		} else if row.probe != nil {
			row.batch.Idle++
		}
		row.laneRemaining--
		if row.laneRemaining == 0 {
			b.laneRetire(row)
			live[li] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		li++
	}
	b.laneSink += int64(touch)
	return live
}

// laneLoopEdge is the interleaved CSR DIV kernel for the edge process,
// with the same one-step lookahead as laneLoopVertex: consume the
// stashed arc, pre-draw the next one (drawLaneEdge), touch its
// endpoints. The update path is laneLoopVertex's, with the tail degree
// carried in the stash.
func (b *blockRun) laneLoopEdge(live []*blockRow) []*blockRow {
	var touch int32
	for li := 0; len(live) > 0; {
		if li >= len(live) {
			li = 0
		}
		row := live[li]
		s := row.s
		op := s.opinions
		if !row.haveNext {
			b.drawLaneEdge(row)
			row.haveNext = true
		}
		v, w, dv := row.nextV, row.nextW, row.nextDeg
		b.drawLaneEdge(row)
		touch += op[row.nextV] ^ op[row.nextW]
		row.laneDrawn++
		row.lanePending++
		xv := op[v]
		xw := op[w]
		if xv != xw {
			row.laneActive++
			if row.probe != nil {
				row.batch.Active++
			}
			var nw int32
			var ds int64
			if xv < xw {
				nw, ds = xv+1, 1
			} else {
				nw, ds = xv-1, -1
			}
			op[v] = nw
			i := nw - s.base
			j := xv - s.base
			s.counts[i]++
			s.counts[j]--
			s.degMass[i] += dv
			s.degMass[j] -= dv
			row.laneSum += ds
			row.laneDegSum += ds * dv
			if s.counts[i] == 1 || s.counts[j] == 0 {
				b.laneCommit(row)
				syncCSRSupport(s)
				s.supVer++
				if b.afterSupport(row) {
					b.laneRetire(row)
					live[li] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
			}
		} else if row.probe != nil {
			row.batch.Idle++
		}
		row.laneRemaining--
		if row.laneRemaining == 0 {
			b.laneRetire(row)
			live[li] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		li++
	}
	b.laneSink += int64(touch)
	return live
}

// chunkGeneric is the fallback for non-DIV rules: scheduler and rule
// dispatched dynamically, steps committed eagerly (a rule may consume
// randomness, so there is no lazy batching to reorder around).
func (b *blockRun) chunkGeneric(row *blockRow) {
	s := row.s
	probe := row.probe != nil
	limit := b.chunkLimit(s)
	for i := int64(0); i < limit; i++ {
		v, w := row.sched.Pair(row.r)
		s.countStep()
		if probe {
			if s.opinions[v] != s.opinions[w] {
				row.batch.Active++
			} else {
				row.batch.Idle++
			}
		}
		if s.opinions[v] != s.opinions[w] {
			row.windowActive++
		}
		b.rule.Step(s, row.r, v, w)
		if s.SupportVersion() != row.prevVer && b.afterSupport(row) {
			row.windowDraws += i + 1
			return
		}
	}
	row.windowDraws += limit
}

// handoffSparse moves row from the blocked loop to the discordance
// engine: seed the arena's shared set — one read of the opinion row
// plus O(old members + n/64 + n_off·d̄), see SparseState.Seed — and
// continue the trial under skip-sampling. Under
// EngineAuto the exact mass vetoes noisy triggers first: if
// discordance is still above the exit threshold the row
// bounces back to blocked stepping with an exponentially growing
// cooldown, and a mid-flight rebound returns the row to blocked
// stepping the same way — the blocked loop IS the naive regime here. A SparseState
// construction failure (degree-lcm overflow) is fatal under EngineFast
// and disables hand-off for the whole batch under EngineAuto — it is a
// property of (graph, process), not of the trial.
func (b *blockRun) handoffSparse(row *blockRow) error {
	row.wantFast = false
	windowDraws, windowActive := row.windowDraws, row.windowActive
	row.windowDraws, row.windowActive = 0, 0
	sp, err := b.arena.sparseFor(row.s, b.proc)
	if err != nil {
		if b.engine == EngineFast {
			return fmt.Errorf("core: block trial %d: %w", row.trial, err)
		}
		b.handoffDisabled = true
		return nil
	}
	if b.engine == EngineAuto && massAbove(sp, b.exitScale) {
		row.cooldown = row.nextCooldown
		if row.nextCooldown < hybridMaxCooldown {
			row.nextCooldown *= 2
		}
		return nil
	}
	sparseHandoffsTotal.Inc()
	b.flushRow(row)
	s := row.s
	if row.probe != nil {
		num, den := sp.ActiveMass()
		row.probe.EngineSwitch(obs.EngineSwitch{
			Step:         s.Steps(),
			From:         obs.RegimeBlock,
			To:           obs.RegimeSparse,
			Reason:       obs.SwitchWindow,
			WindowDraws:  windowDraws,
			WindowActive: windowActive,
			MassNum:      num,
			MassDen:      den,
		})
	}
	row.batch = obs.StepBatch{FromStep: s.Steps()}
	if b.retireSparse(row, sp, b.engine == EngineAuto) {
		// Discordance rebounded past the exit threshold: back to blocked
		// stepping with the same exponential cooldown as a veto.
		row.cooldown = row.nextCooldown
		if row.nextCooldown < hybridMaxCooldown {
			row.nextCooldown *= 2
		}
		if row.probe != nil {
			num, den := sp.ActiveMass()
			row.probe.EngineSwitch(obs.EngineSwitch{
				Step:     s.Steps(),
				From:     obs.RegimeSparse,
				To:       obs.RegimeBlock,
				Reason:   obs.SwitchRebound,
				MassNum:  num,
				MassDen:  den,
				Cooldown: row.cooldown,
			})
		}
		return nil
	}
	row.done = true
	return nil
}

// finalize completes row's Result, emits the probe Done event, stores
// the Result, and flushes the per-trial counters.
func (b *blockRun) finalize(row *blockRow, out []Result, t0 int) {
	s := row.s
	b.checkMajority(row)
	row.res.Steps = s.Steps()
	row.res.FinalMin, row.res.FinalMax = s.Min(), s.Max()
	if w, ok := s.Consensus(); ok {
		row.res.Winner = w
		row.res.Consensus = true
	}
	b.flushRow(row)
	if row.probe != nil {
		row.probe.Done(obs.Done{
			Step:      row.res.Steps,
			Winner:    row.res.Winner,
			Consensus: row.res.Consensus,
			Aborted:   row.res.Aborted,
		})
	}
	out[row.trial-t0] = row.res
	blockTrialsTotal.Inc()
	streamRefillsTotal.Add(row.stream.TakeRefills())
}
