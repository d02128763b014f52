package core

// The switching policy behind EngineAuto: a trial steps in the blocked
// kernel (block.go) while discordance is high (where it is unbeatable —
// an idle draw costs a couple of array reads) and hands off to the
// skip-sampling discordance engine (sparse.go) when idle draws
// dominate. The two regimes are real: a k-opinion run starts with most
// draws discordant, where the discordance engine's O(d(v)) bookkeeping
// per active step is pure overhead, and ends in the long
// two-adjacent-opinion final stage where almost every draw is idle and
// skip-sampling wins by orders of magnitude. core.Run's auto engine is
// the one-row case of the same policy.
//
// Switching preserves the process law exactly. Each engine realizes the
// correct conditional trajectory law *from any state*, and the decision
// to switch is measurable with respect to the past (the hand-off
// trigger looks at the trial's realized draws, the rebound trigger at
// the current state's exact discordance mass), i.e. it is a stopping
// time — so the concatenated trajectory has the same joint
// distribution as either pure engine, stopping times and observer call
// sites included.
//
// Cost model. A blocked draw costs ~1 unit; one sparse active iteration
// — geometric skip, rejection draw, O(d̄) count repair — is modelled at
// hybridCostRatio·(d̄/3 + 4) units. Skip-sampling pays when the
// expected draws per active step, 1/p, exceed that:
//
//	hand off: windowed active fraction < 1 / (2·R·(d̄/3 + 4))
//	rebound:  exact p_active           > 1 / (R·(d̄/3 + 4))
//
// with R = hybridCostRatio. Measured on a 2-vCPU 2.1 GHz Xeon VM
// (two-opinion states at p ≈ 0.01–0.2, 2·10⁶-draw runs), an active
// iteration costs 230–270 ns ≈ 10–14 naive draws on rr(10⁴,8) and
// 300–450 ns ≈ 12–18 draws on rr(10⁴,16): about twice the model. The
// model is kept: with the measured cost u' ≈ 2(d̄/3 + 4) the entry
// threshold sits at the break-even 1/u', and doubling R moved no auto
// per-step median on rr(10⁴,8) (uniform, final-stage and dissenter
// profiles) beyond run-to-run noise. The factor-2 gap between the
// thresholds is hysteresis; the hand-off uses a cheap per-window
// counter, the rebound the exact mass the set already maintains.
// Because the minority-size random walk of a final stage re-crosses any
// fixed threshold many times, two further guards keep transition costs
// amortized: the arena's SparseState is reused and re-entered via a
// Seed that reads the opinion row once and otherwise costs O(old
// members + n/64 + n_off·d̄), and each veto or rebound starts an
// exponentially growing cooldown (1, 2, 4, … windows, capped) before
// the next hand-off is considered. On dense graphs (K_n: d̄ ≈ n) the
// thresholds become correspondingly extreme, which is exactly right:
// there skip-sampling only wins when discordance is truly microscopic.

var (
	// hybridWindow is the number of blocked draws per idle-fraction
	// sample, and the blocked kernel's chunk length. A package-level var
	// so tests can shrink it to exercise switching on small graphs.
	hybridWindow = int64(4096)
	// hybridCostRatio scales the modelled cost of one sparse active
	// iteration, in units of blocked draws, relative to the baseline
	// d̄/3 + 4 (see hybridCostUnits and the cost model above); raising
	// it makes Auto more reluctant to hand off.
	hybridCostRatio = int64(1)
	// hybridMaxCooldown caps the exponential re-entry backoff, in
	// windows, so a long run can still hand off again reasonably
	// promptly after a burst of discordance.
	hybridMaxCooldown = int64(256)
)

// hybridCostUnits returns d̄/3 + 4: the modelled cost of one sparse
// active iteration in units of blocked draws (the O(d̄) count repair
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

// massAbove reports whether sp's exact active mass exceeds the hybrid
// rebound threshold 1/scale.
func massAbove(sp *SparseState, scale int64) bool {
	num, den := sp.ActiveMass()
	return num*scale > den
}
