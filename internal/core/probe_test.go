package core

import (
	"testing"

	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
)

// collectingProbe records every event for inspection.
type collectingProbe struct {
	batches  []obs.StepBatch
	switches []obs.EngineSwitch
	discords []obs.Discordance
	stages   []obs.Stage
	dones    []obs.Done
}

func (p *collectingProbe) StepBatch(b obs.StepBatch)       { p.batches = append(p.batches, b) }
func (p *collectingProbe) EngineSwitch(s obs.EngineSwitch) { p.switches = append(p.switches, s) }
func (p *collectingProbe) Discordance(d obs.Discordance)   { p.discords = append(p.discords, d) }
func (p *collectingProbe) Stage(s obs.Stage)               { p.stages = append(p.stages, s) }
func (p *collectingProbe) Done(d obs.Done)                 { p.dones = append(p.dones, d) }

// dissenterConfig builds the dissenter final-stage workload: a random
// regular graph with a small minority at opinion 1 — the profile that
// exercises the auto engine's block→sparse→block transitions.
func dissenterConfig(t *testing.T, n, d, dissenters int, seed uint64) Config {
	t.Helper()
	g, err := graph.RandomRegularSeeded(n, d, rng.DeriveSeed(seed, 1), graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	init, err := TwoOpinionSplit(n, dissenters, rng.New(rng.DeriveSeed(seed, 2)))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:   g,
		Initial: init,
		Process: VertexProcess,
		Seed:    rng.DeriveSeed(seed, 3),
	}
}

// TestProbeStepAccounting checks, for each engine, that the step-batch
// events partition the run exactly: batches are contiguous from step 0
// to Result.Steps, Active+Idle+Skipped sums to the batch width, and
// the Done event carries the final totals. All three engines must
// therefore agree on the cumulative step count they report for their
// own run.
func TestProbeStepAccounting(t *testing.T) {
	for _, eng := range []Engine{EngineNaive, EngineFast, EngineAuto} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			cfg := dissenterConfig(t, 600, 8, 6, 0xacc1)
			cfg.Engine = eng
			var p collectingProbe
			cfg.Probe = &p
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var at, active, idle, skipped int64
			for i, b := range p.batches {
				if b.FromStep != at {
					t.Fatalf("batch %d starts at %d, want %d (gap or overlap)", i, b.FromStep, at)
				}
				if b.ToStep <= b.FromStep {
					t.Fatalf("batch %d is empty or reversed: %+v", i, b)
				}
				if got := b.Active + b.Idle + b.Skipped; got != b.ToStep-b.FromStep {
					t.Fatalf("batch %d: active %d + idle %d + skipped %d != width %d",
						i, b.Active, b.Idle, b.Skipped, b.ToStep-b.FromStep)
				}
				at = b.ToStep
				active += b.Active
				idle += b.Idle
				skipped += b.Skipped
			}
			if at != res.Steps {
				t.Fatalf("batches cover steps [0,%d), Result.Steps = %d", at, res.Steps)
			}
			if active+idle+skipped != res.Steps {
				t.Fatalf("batch partition sums to %d, Result.Steps = %d", active+idle+skipped, res.Steps)
			}
			if eng == EngineNaive && skipped != 0 {
				t.Fatalf("naive engine reported %d skipped steps", skipped)
			}
			if len(p.dones) != 1 {
				t.Fatalf("%d Done events", len(p.dones))
			}
			d := p.dones[0]
			if d.Step != res.Steps || d.Winner != res.Winner || d.Consensus != res.Consensus {
				t.Fatalf("Done %+v disagrees with Result{Steps:%d Winner:%d Consensus:%v}",
					d, res.Steps, res.Winner, res.Consensus)
			}
			// Stage events mirror the support trajectory: monotone step
			// order, and the last one (consensus) has support 1.
			for i := 1; i < len(p.stages); i++ {
				if p.stages[i].Step < p.stages[i-1].Step {
					t.Fatalf("stage events out of order at %d", i)
				}
			}
			if res.Consensus && len(p.stages) > 0 {
				last := p.stages[len(p.stages)-1]
				if last.Support != 1 {
					t.Fatalf("final stage event has support %d", last.Support)
				}
			}
		})
	}
}

// TestProbeDoesNotPerturb runs the same seed with and without a probe
// under every engine: the probe must never consume randomness or alter
// control flow, so the results must be identical.
func TestProbeDoesNotPerturb(t *testing.T) {
	for _, eng := range []Engine{EngineNaive, EngineFast, EngineAuto} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			run := func(probe obs.Probe) Result {
				cfg := dissenterConfig(t, 500, 8, 5, 0x9e27)
				cfg.Engine = eng
				cfg.Probe = probe
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			bare := run(nil)
			probed := run(&collectingProbe{})
			if bare.Steps != probed.Steps || bare.Winner != probed.Winner ||
				bare.Consensus != probed.Consensus || bare.TwoAdjacentStep != probed.TwoAdjacentStep ||
				bare.FinalMin != probed.FinalMin || bare.FinalMax != probed.FinalMax {
				t.Fatalf("probe perturbed the run:\nnil:    %+v\nprobed: %+v", bare, probed)
			}
		})
	}
}

// TestProbeEngineSwitches drives the auto engine on the dissenter
// profile and checks the switch events: at least one block→sparse
// hand-off, regimes alternating, legal reasons, and every switch
// landing inside the run. The first hand-off decision comes after a
// full window of blocked draws, and this run reaches consensus within
// one production window, so the window is shrunk (not parallel for
// that reason).
func TestProbeEngineSwitches(t *testing.T) {
	oldWindow := hybridWindow
	hybridWindow = 64
	defer func() { hybridWindow = oldWindow }()
	cfg := dissenterConfig(t, 2000, 8, 4, 0x51c4)
	cfg.Engine = EngineAuto
	var p collectingProbe
	cfg.Probe = &p
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.switches) == 0 {
		t.Fatal("auto run on the dissenter profile produced no engine-switch events")
	}
	regime := obs.RegimeBlock
	for i, sw := range p.switches {
		if sw.From != regime || sw.To == sw.From {
			t.Fatalf("switch %d: %s→%s does not continue regime %s", i, sw.From, sw.To, regime)
		}
		regime = sw.To
		switch sw.Reason {
		case obs.SwitchWindow:
			if sw.To != obs.RegimeSparse {
				t.Fatalf("switch %d: reason %q must enter sparse, got →%s", i, sw.Reason, sw.To)
			}
		case obs.SwitchRebound:
			if sw.To != obs.RegimeBlock {
				t.Fatalf("switch %d: reason %q must return to block, got →%s", i, sw.Reason, sw.To)
			}
		default:
			t.Fatalf("switch %d: unknown reason %q", i, sw.Reason)
		}
		if sw.Step < 0 || sw.Step > res.Steps {
			t.Fatalf("switch %d at step %d outside run of %d steps", i, sw.Step, res.Steps)
		}
		if sw.MassDen <= 0 || sw.MassNum < 0 || sw.MassNum > sw.MassDen {
			t.Fatalf("switch %d: mass %d/%d not a probability", i, sw.MassNum, sw.MassDen)
		}
	}
	for i, b := range p.batches {
		if b.Engine != obs.RegimeBlock && b.Engine != obs.RegimeSparse {
			t.Fatalf("batch %d attributed to regime %q", i, b.Engine)
		}
	}
	if len(p.discords) == 0 {
		t.Error("run entered the sparse regime but emitted no discordance events")
	}
	for i, d := range p.discords {
		if d.Edges < 0 || d.MassDen <= 0 {
			t.Fatalf("discordance %d malformed: %+v", i, d)
		}
	}
}

// TestHandoffSwitchCarriesWindow: a one-row EngineAuto hand-off's
// window switch reports the tallies of the blocked window that
// triggered it — a full window whose active draws, scaled by the
// enter threshold, fall below its draws.
func TestHandoffSwitchCarriesWindow(t *testing.T) {
	cfg := dissenterConfig(t, 20000, 8, 16, 0x3a11)
	cfg.Engine = EngineAuto
	var p collectingProbe
	cfg.Probe = &p
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	enterScale := 2 * hybridCostRatio * hybridCostUnits(cfg.Graph)
	windows := 0
	for i, sw := range p.switches {
		if sw.Reason != obs.SwitchWindow {
			continue
		}
		windows++
		if sw.WindowDraws != hybridWindow || sw.WindowActive*enterScale >= sw.WindowDraws {
			t.Fatalf("switch %d at step %d: window %d draws, %d active (enter scale %d), want %d draws below the threshold",
				i, sw.Step, sw.WindowDraws, sw.WindowActive, enterScale, hybridWindow)
		}
	}
	if windows == 0 {
		t.Fatal("no window switch into the sparse engine")
	}
}

// TestRecorderBoundarySampling runs the auto engine with a
// non-default ObserveEvery and checks the Recorder sampled at exactly
// the multiples of the period — the skip-sampling engines must visit
// the same boundary steps the naive engine would.
func TestRecorderBoundarySampling(t *testing.T) {
	const every = 70 // deliberately not a power of two or the default n
	cfg := dissenterConfig(t, 400, 8, 4, 0xb0b)
	cfg.Engine = EngineAuto
	rec := &Recorder{}
	cfg.Observer = rec.Observe
	cfg.ObserveEvery = every
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no samples taken")
	}
	for i, s := range rec.Steps {
		if s%every != 0 {
			t.Fatalf("sample %d at step %d, not a multiple of %d", i, s, every)
		}
		if want := int64(i) * every; s != want { // sample 0 is the initial state
			t.Fatalf("sample %d at step %d, want %d (missed a boundary)", i, s, want)
		}
	}
	if last := rec.Steps[rec.Len()-1]; last > res.Steps {
		t.Fatalf("sampled step %d beyond run end %d", last, res.Steps)
	}
	if got := int64(rec.Len()); got != res.Steps/every+1 {
		t.Fatalf("%d samples for %d steps at period %d, want %d", got, res.Steps, every, res.Steps/every+1)
	}
}

// TestDiscordantEdgesExactVsRecount verifies the fast engine's O(1)
// discordance figure against a from-scratch recount at every observer
// boundary, under all three engines.
func TestDiscordantEdgesExactVsRecount(t *testing.T) {
	recount := func(s *State) int64 {
		g := s.Graph()
		var c int64
		for v := 0; v < s.N(); v++ {
			for i := 0; i < g.Degree(v); i++ {
				if w := g.Neighbor(v, i); v < w && s.Opinion(v) != s.Opinion(w) {
					c++
				}
			}
		}
		return c
	}
	for _, eng := range []Engine{EngineNaive, EngineFast, EngineAuto} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			cfg := dissenterConfig(t, 300, 6, 6, 0xd15c)
			cfg.Engine = eng
			checks := 0
			cfg.ObserveEvery = 64
			cfg.Observer = func(s *State) bool {
				if got, want := s.DiscordantEdges(), recount(s); got != want {
					t.Fatalf("step %d: DiscordantEdges() = %d, recount = %d", s.Steps(), got, want)
				}
				checks++
				return true
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			if checks == 0 {
				t.Fatal("observer never ran")
			}
		})
	}
}
