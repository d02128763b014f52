package obs

// Probe receives structured events from a running voting process. The
// core engines call it at semantic points — not on every scheduler
// draw — so a probe sees the *decisions* a run made: how many draws
// each engine regime simulated or skipped, when a trial handed off to
// the discordance engine or came back and why, how the discordant-edge
// mass evolved, when the opinion support changed, and how the run
// resolved.
//
// Implementations must be safe for use from a single goroutine per
// run; when runs execute in parallel (internal/exp's sweeps on the
// work-stealing pool) each run gets its own context-stamped probe,
// and shared sinks (TraceWriter, MetricsProbe) synchronize
// internally.
//
// Probes must not mutate the process: they receive values, never the
// live state, and the engines guarantee they consume no randomness on
// a probe's behalf — attaching a probe to a seeded run does not change
// its trajectory.
type Probe interface {
	// StepBatch reports a contiguous run of scheduler invocations
	// [FromStep, ToStep) attributed to one engine regime.
	StepBatch(b StepBatch)
	// EngineSwitch reports a regime change: a hand-off from blocked to
	// sparse stepping, or a rebound back.
	EngineSwitch(sw EngineSwitch)
	// Discordance reports a sample of the exact discordant-edge mass.
	// Only the discordance engine maintains the mass incrementally, so
	// only the sparse regime emits it.
	Discordance(d Discordance)
	// Stage reports a change of the opinion-support set.
	Stage(st Stage)
	// Done reports the run's resolution; it is the last event of a run.
	Done(d Done)
}

// Engine regime labels used in events; each batch is attributed to the
// regime that executed it. Traces written before core.Run's fast and
// auto engines became one-row blocked runs also carry "fast" (their
// sequential skip-sampling loop) and the switch reason "probe"; ReadTrace
// decodes those unchanged.
const (
	// RegimeNaive labels core.Run's sequential per-invocation loop
	// (EngineNaive, and EngineAuto on a non-pairwise rule).
	RegimeNaive = "naive"
	// RegimeBlock labels step batches executed by the blocked multi-trial
	// kernel (core/block.go): naive-law stepping, interleaved across a
	// block of trials and flushed at chunk granularity.
	RegimeBlock = "block"
	// RegimeSparse labels step batches executed by the discordance
	// engine (core/sparse.go) after a blocked-kernel hand-off:
	// skip-sampled stepping over the O(discordance) discordant-vertex
	// set, on every backend (CSR, implicit, compact).
	RegimeSparse = "sparse"
)

// Switch reasons.
const (
	// SwitchWindow: a hand-off to the discordance engine — under
	// EngineAuto triggered by a windowed idle-fraction estimate, under
	// EngineFast at the trial's start.
	SwitchWindow = "window"
	// SwitchRebound: the exact discordance mass rebounded past the exit
	// threshold and the trial went back to blocked stepping.
	SwitchRebound = "rebound"
)

// StepBatch summarizes the scheduler invocations in [FromStep, ToStep):
// Active+Idle draws were simulated individually, Skipped idle draws
// were jumped in bulk by the geometric skip-sampler. Active+Idle+
// Skipped == ToStep-FromStep always holds, and summing batches over a
// run reproduces the run's total step count exactly.
type StepBatch struct {
	FromStep int64  `json:"from"`
	ToStep   int64  `json:"to"`
	Engine   string `json:"engine"` // RegimeNaive, RegimeBlock or RegimeSparse
	Active   int64  `json:"active"`
	Idle     int64  `json:"idle,omitempty"`
	Skipped  int64  `json:"skipped,omitempty"`
}

// EngineSwitch records one regime change at Step. WindowDraws and
// WindowActive carry a triggering window's statistics (traces from the
// old sequential loop set them; blocked hand-offs leave them zero); for
// rebounds Cooldown is the re-entry backoff that was scheduled.
// MassNum/MassDen is the exact active-draw probability at the switch
// point.
type EngineSwitch struct {
	Step         int64  `json:"step"`
	From         string `json:"from"`
	To           string `json:"to"`
	Reason       string `json:"reason"`
	WindowDraws  int64  `json:"window_draws,omitempty"`
	WindowActive int64  `json:"window_active,omitempty"`
	MassNum      int64  `json:"mass_num"`
	MassDen      int64  `json:"mass_den"`
	Cooldown     int64  `json:"cooldown,omitempty"` // windows
}

// Discordance is one sample of the discordance trajectory: Edges
// discordant edges, and the exact probability MassNum/MassDen that the
// next scheduler draw is active. This is the quantity the paper's
// potential-function analysis tracks (the discordant-edge mass of
// Cooper–Dyer–Frieze–Rivera).
type Discordance struct {
	Step    int64 `json:"step"`
	Edges   int64 `json:"edges"`
	MassNum int64 `json:"mass_num"`
	MassDen int64 `json:"mass_den"`
}

// Stage records a change of the support set: after the update at Step,
// Support distinct opinions remain in [Min, Max]. TwoAdjacent marks
// entry into the paper's final stage (at most two adjacent opinions),
// the boundary between the k-opinion reduction phase and the
// two-opinion endgame.
type Stage struct {
	Step        int64 `json:"step"`
	Support     int   `json:"support"`
	Min         int   `json:"min"`
	Max         int   `json:"max"`
	TwoAdjacent bool  `json:"two_adjacent,omitempty"`
}

// Done is the final event of a run.
type Done struct {
	Step      int64 `json:"step"`
	Winner    int   `json:"winner"`
	Consensus bool  `json:"consensus"`
	Aborted   bool  `json:"aborted,omitempty"`
}

// multiProbe fans events out to several probes in order.
type multiProbe []Probe

func (m multiProbe) StepBatch(b StepBatch) {
	for _, p := range m {
		p.StepBatch(b)
	}
}

func (m multiProbe) EngineSwitch(sw EngineSwitch) {
	for _, p := range m {
		p.EngineSwitch(sw)
	}
}

func (m multiProbe) Discordance(d Discordance) {
	for _, p := range m {
		p.Discordance(d)
	}
}

func (m multiProbe) Stage(st Stage) {
	for _, p := range m {
		p.Stage(st)
	}
}

func (m multiProbe) Done(d Done) {
	for _, p := range m {
		p.Done(d)
	}
}

// Multi combines probes into one that forwards every event to each of
// them in order. Nil entries are dropped; Multi() of zero non-nil
// probes returns nil (the no-probe fast path).
func Multi(probes ...Probe) Probe {
	var m multiProbe
	for _, p := range probes {
		if p != nil {
			m = append(m, p)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	default:
		return m
	}
}

// metricsProbe aggregates probe events into a Registry.
type metricsProbe struct {
	steps, active, idle, skipped *Counter
	sparseSteps                  *Counter
	switches, toSparse, toBlock  *Counter
	stages, twoAdjacent          *Counter
	runs, consensus, aborted     *Counter
	runSteps                     *Histogram
	discordEdges                 *Gauge
}

// MetricsProbe returns a Probe that aggregates events into reg under
// the div_* namespace: total/active/idle/skipped step counters (plus
// the sparse-regime share), engine-switch counters by
// direction, stage and endgame-entry counters, per-run step
// histograms, and a gauge holding the last sampled discordant-edge
// count. It is safe to share across concurrent runs.
func MetricsProbe(reg *Registry) Probe {
	return &metricsProbe{
		steps:        reg.Counter("div_steps_total"),
		active:       reg.Counter("div_steps_active_total"),
		idle:         reg.Counter("div_steps_idle_total"),
		skipped:      reg.Counter("div_steps_skipped_total"),
		sparseSteps:  reg.Counter("div_steps_sparse_regime_total"),
		switches:     reg.Counter("div_engine_switches_total"),
		toSparse:     reg.Counter("div_engine_switches_to_sparse_total"),
		toBlock:      reg.Counter("div_engine_switches_to_block_total"),
		stages:       reg.Counter("div_stage_transitions_total"),
		twoAdjacent:  reg.Counter("div_two_adjacent_entries_total"),
		runs:         reg.Counter("div_runs_total"),
		consensus:    reg.Counter("div_runs_consensus_total"),
		aborted:      reg.Counter("div_runs_aborted_total"),
		runSteps:     reg.Histogram("div_run_steps"),
		discordEdges: reg.Gauge("div_discordant_edges_last"),
	}
}

func (m *metricsProbe) StepBatch(b StepBatch) {
	total := b.ToStep - b.FromStep
	m.steps.Add(total)
	m.active.Add(b.Active)
	m.idle.Add(b.Idle)
	m.skipped.Add(b.Skipped)
	if b.Engine == RegimeSparse {
		m.sparseSteps.Add(total)
	}
}

func (m *metricsProbe) EngineSwitch(sw EngineSwitch) {
	m.switches.Inc()
	if sw.To == RegimeSparse {
		m.toSparse.Inc()
	} else {
		m.toBlock.Inc()
	}
}

func (m *metricsProbe) Discordance(d Discordance) { m.discordEdges.Set(d.Edges) }

func (m *metricsProbe) Stage(st Stage) {
	m.stages.Inc()
	if st.TwoAdjacent {
		m.twoAdjacent.Inc()
	}
}

func (m *metricsProbe) Done(d Done) {
	m.runs.Inc()
	if d.Consensus {
		m.consensus.Inc()
	}
	if d.Aborted {
		m.aborted.Inc()
	}
	m.runSteps.Observe(d.Step)
}

// ProbeMaker builds a per-run Probe from the run's trial index and
// seed. Harness layers (exp.Params, CLI batch drivers) carry makers
// rather than probes so every core.Run gets events stamped with its
// own context — TraceWriter.Probe is already maker-shaped. A nil
// maker, and a maker returning nil, both mean "no probe" and keep the
// engine's nil-probe fast path.
type ProbeMaker func(trial int, seed uint64) Probe

// ConstMaker wraps a context-free probe (e.g. MetricsProbe, whose
// counters don't care which run an event came from) as a maker that
// returns it for every run. ConstMaker(nil) is nil.
func ConstMaker(p Probe) ProbeMaker {
	if p == nil {
		return nil
	}
	return func(int, uint64) Probe { return p }
}

// MultiMaker fans each run's events out to every probe built by the
// given makers. nil makers are dropped; with none left the result is
// nil, so callers can unconditionally assign it to a Config field.
func MultiMaker(makers ...ProbeMaker) ProbeMaker {
	live := make([]ProbeMaker, 0, len(makers))
	for _, m := range makers {
		if m != nil {
			live = append(live, m)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(trial int, seed uint64) Probe {
		ps := make([]Probe, 0, len(live))
		for _, m := range live {
			ps = append(ps, m(trial, seed))
		}
		return Multi(ps...)
	}
}
