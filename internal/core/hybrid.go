package core

import "div/internal/obs"

// The hybrid engine behind EngineAuto: run the naive per-invocation
// loop while discordance is high (where it is unbeatable — an idle draw
// costs a couple of array reads) and switch to the skip-sampling fast
// loop when idle draws dominate. The two regimes are real: a k-opinion
// run starts with most draws discordant, where the fast engine's O(d(v))
// bookkeeping per active step is pure overhead, and ends in the long
// two-adjacent-opinion final stage where almost every draw is idle and
// skip-sampling wins by orders of magnitude.
//
// Switching preserves the process law exactly. Each engine realizes the
// correct conditional trajectory law *from any state*, and the decision
// to switch is measurable with respect to the past (the naive→fast
// trigger looks at realized draws, the fast→naive trigger at the
// current state's exact discordance mass), i.e. it is a stopping time —
// so the concatenated trajectory has the same joint distribution as
// either pure engine, stopping times and observer call sites included.
//
// Cost model. A naive draw costs ~1 unit; one fast active iteration —
// geometric skip, rejection draw, O(d̄) count repair — is modelled at
// hybridCostRatio·(d̄/3 + 4) units. Skip-sampling pays when the
// expected draws per active step, 1/p, exceed that:
//
//	enter fast: windowed active fraction < 1 / (2·R·(d̄/3 + 4))
//	exit fast:  exact p_active        > 1 / (R·(d̄/3 + 4))
//
// with R = hybridCostRatio. Measured on a 2-vCPU 2.1 GHz Xeon VM
// (two-opinion states at p ≈ 0.01–0.2, 2·10⁶-draw runs), an active
// iteration costs 230–270 ns ≈ 10–14 naive draws on rr(10⁴,8) and
// 300–450 ns ≈ 12–18 draws on rr(10⁴,16): about twice the model. The
// model is kept: with the measured cost u' ≈ 2(d̄/3 + 4) the entry
// threshold sits at the break-even 1/u', and doubling R moved no auto
// per-step median on rr(10⁴,8) (uniform, final-stage and dissenter
// profiles) beyond run-to-run noise. The factor-2 gap between the
// thresholds is hysteresis; entry
// uses a cheap per-window counter, exit the exact mass the set already
// maintains. Because the minority-size random walk of a final stage
// re-crosses any fixed threshold many times, two further guards keep
// transition costs amortized: the SparseState is built once and
// re-entered via an O(n + n_off·d̄) Seed (its arrays are reused), and
// each fast→naive exit starts an exponentially growing cooldown (1, 2,
// 4, … windows, capped) before the next entry is considered. On dense
// graphs (K_n: d̄ ≈ n) the thresholds become correspondingly extreme,
// which is exactly right: there the fast engine only wins when
// discordance is truly microscopic.

var (
	// hybridWindow is the number of naive draws per idle-fraction
	// sample. A package-level var so tests can shrink it to exercise
	// switching on small graphs.
	hybridWindow = int64(4096)
	// hybridCostRatio scales the modelled cost of one fast active
	// iteration, in units of naive draws, relative to the baseline
	// d̄/3 + 4 (see hybridCostUnits and the cost model above); raising
	// it makes Auto more reluctant to leave naive stepping.
	hybridCostRatio = int64(1)
	// hybridMaxCooldown caps the exponential re-entry backoff, in
	// windows, so a long run can still return to fast mode reasonably
	// promptly after a burst of discordance.
	hybridMaxCooldown = int64(256)
)

// hybridCostUnits returns d̄/3 + 4: the modelled cost of one fast-engine
// active iteration in units of naive draws (the O(d̄) count repair
// dominates for dense graphs, constant skip/sample overhead for sparse
// ones).
func hybridCostUnits(g interface {
	N() int
	DegreeSum() int64
}) int64 {
	n := int64(g.N())
	if n < 1 {
		return 2
	}
	u := g.DegreeSum()/n/3 + 4
	if u < 2 {
		u = 2
	}
	return u
}

// hybridLoop alternates between the naive and fast loop bodies under
// the switching policy above. rule is the run's rule, already checked
// to be a PairwiseRule; proc is needed to build the SparseState on the
// first naive→fast transition (later transitions reseed it in place).
func (e *loopEnv) hybridLoop(rule PairwiseRule, proc Process) {
	s := e.s
	costUnits := hybridCostRatio * hybridCostUnits(s.Graph())
	enterScale := 2 * costUnits // active·enterScale < window ⇒ enter
	exitScale := costUnits      // num·exitScale > den ⇒ exit
	fastDisabled := e.observer != nil && e.observeEvery < 8

	var f *SparseState
	inFast := false
	var cooldown int64       // windows left before entry may be considered
	nextCooldown := int64(1) // doubles on every fast→naive exit
	prevVersion := s.SupportVersion()
	var windowDraws, windowActive int64

	// Initial probe: a run that *starts* deep in the idle-dominated
	// regime (a final-stage or near-consensus state) should not pay a
	// full naive window before the first switching decision. Estimate
	// the active fraction from a few hundred uniform arcs — a function
	// of the current state and independent coin flips, so entering here
	// is as lawful a stopping time as the windowed trigger — and build
	// the discordant set straight away when it is clearly below threshold.
	if !fastDisabled {
		if arcs := s.Graph().DegreeSum(); arcs > 0 {
			const probes = 512
			active := int64(0)
			for i := 0; i < probes; i++ {
				v, w := s.Graph().EdgeAt(int(e.r.Int64N(arcs)))
				if s.opinions[v] != s.opinions[w] {
					active++
				}
			}
			if active*enterScale < probes {
				if fs, err := sparseFor(e.scratch, s, proc); err != nil {
					fastDisabled = true
				} else if f = fs; !massAbove(f, exitScale) {
					inFast = true
					f.attachDiscordance()
					if e.probe != nil {
						num, den := f.ActiveMass()
						e.probe.EngineSwitch(obs.EngineSwitch{
							Step:    s.Steps(),
							From:    obs.RegimeNaive,
							To:      obs.RegimeFast,
							Reason:  obs.SwitchProbe,
							MassNum: num,
							MassDen: den,
						})
					}
				}
			}
		}
	}
	// As in naiveLoop, the stop condition is only re-evaluated when the
	// support set changed (it is a predicate on the support set, which
	// only moves on simulated active steps), and the default DIV rule is
	// dispatched statically.
	doneNow := e.done()
	_, isDIV := rule.(DIV)
	for !e.res.Aborted && !doneNow && s.Steps() < e.maxSteps {
		if !inFast {
			// Naive mode: one scheduler invocation, plus window accounting.
			v, w := e.sched.Pair(e.r)
			s.countStep()
			active := s.opinions[v] != s.opinions[w]
			if e.probe != nil {
				if active {
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
			if s.SupportVersion() != prevVersion {
				e.onSupport()
				prevVersion = s.SupportVersion()
				doneNow = e.done()
			}
			if e.observer != nil && s.Steps()%e.observeEvery == 0 {
				if !e.observer(s) {
					e.res.Aborted = true
				}
			}
			if active {
				windowActive++
			}
			if windowDraws++; windowDraws >= hybridWindow {
				switch {
				case cooldown > 0:
					cooldown--
				case !fastDisabled && windowActive*enterScale < windowDraws:
					if f == nil {
						fs, err := sparseFor(e.scratch, s, proc)
						if err != nil {
							// e.g. degree-lcm overflow: naive-only from here on.
							fastDisabled = true
						} else {
							f = fs
						}
					} else {
						f.Seed()
					}
					// The windowed estimate is noisy; trust the exact mass.
					// If it is already past the exit threshold, entering
					// would bounce straight back — back off instead.
					if f != nil && massAbove(f, exitScale) {
						cooldown = nextCooldown
						if nextCooldown < hybridMaxCooldown {
							nextCooldown *= 2
						}
					} else if f != nil {
						inFast = true
						f.attachDiscordance()
						if e.probe != nil {
							e.flushBatch(obs.RegimeNaive)
							num, den := f.ActiveMass()
							e.probe.EngineSwitch(obs.EngineSwitch{
								Step:         s.Steps(),
								From:         obs.RegimeNaive,
								To:           obs.RegimeFast,
								Reason:       obs.SwitchWindow,
								WindowDraws:  windowDraws,
								WindowActive: windowActive,
								MassNum:      num,
								MassDen:      den,
							})
						}
					}
				}
				windowDraws, windowActive = 0, 0
			}
			continue
		}
		// Fast mode: one skip-sampling iteration (mirrors SparseState.loop).
		limit := e.maxSteps - s.Steps()
		if e.observer != nil {
			if toBoundary := e.observeEvery - s.Steps()%e.observeEvery; toBoundary < limit {
				limit = toBoundary
			}
		}
		num, den := f.ActiveMass()
		k := limit
		if num > 0 {
			k = geomSkip(e.r, num, den, limit)
		}
		if k < limit {
			s.addSteps(k + 1)
			if e.probe != nil {
				e.batch.Skipped += k
				e.batch.Active++
			}
			f.activeStep(e.r, rule)
			if s.SupportVersion() != prevVersion {
				e.onSupport()
				prevVersion = s.SupportVersion()
				doneNow = e.done()
			}
			if num, den := f.ActiveMass(); num*exitScale > den {
				// Discordance rebounded: back to naive stepping, with an
				// exponentially growing cooldown before the next entry.
				inFast = false
				f.detachDiscordance()
				cooldown = nextCooldown
				if nextCooldown < hybridMaxCooldown {
					nextCooldown *= 2
				}
				if e.probe != nil {
					e.flushBatch(obs.RegimeFast)
					e.probe.EngineSwitch(obs.EngineSwitch{
						Step:     s.Steps(),
						From:     obs.RegimeFast,
						To:       obs.RegimeNaive,
						Reason:   obs.SwitchRebound,
						MassNum:  num,
						MassDen:  den,
						Cooldown: cooldown,
					})
				}
			}
		} else {
			s.addSteps(limit)
			if e.probe != nil {
				e.batch.Skipped += limit
			}
		}
		if e.probe != nil && inFast && s.Steps() >= e.nextEmit {
			e.emitFastCadence(f)
		}
		if e.observer != nil && s.Steps()%e.observeEvery == 0 {
			if !e.observer(s) {
				e.res.Aborted = true
			}
		}
	}
	if inFast {
		e.flushBatch(obs.RegimeFast)
	} else {
		e.flushBatch(obs.RegimeNaive)
	}
	if f != nil {
		f.detachDiscordance()
		f.flushDraws()
	}
}

// massAbove reports whether sp's exact active mass exceeds the hybrid
// exit threshold 1/scale.
func massAbove(sp *SparseState, scale int64) bool {
	num, den := sp.ActiveMass()
	return num*scale > den
}
