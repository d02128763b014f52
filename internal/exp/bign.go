package exp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"time"

	"div/internal/core"
	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
	"div/internal/stats"
)

// The big-n section: an E2-style convergence workload at n = 10⁶ (and,
// outside quick mode, 10⁷) exercising the million-vertex machinery end
// to end — an implicit 8-regular circulant topology, the compact byte
// opinion slab, and the blocked kernel — against the materialized-CSR
// int32 configuration of the same point. Each arm runs in its own
// measured phase: the heap is released to the OS first
// (debug.FreeOSMemory), then a sampling obs.PeakTracker brackets the
// arm, so the recorded peaks are per-phase resident footprints, not
// the process-lifetime high-water mark. The implicit arm runs first so
// its peak cannot inherit the materialized arm's pages.

// BenchBigNArm is one measured phase of the big-n section.
type BenchBigNArm struct {
	// Label identifies the configuration: "implicit/compact" or
	// "csr/int32" at n = 10⁶, "implicit/compact-10M" at 10⁷.
	Label  string `json:"label"`
	N      int    `json:"n"`
	Trials int    `json:"trials"`
	// Steps is the total step count across trials; NsPerStep the
	// measured stepping cost.
	Steps     int64   `json:"steps"`
	Seconds   float64 `json:"seconds"`
	NsPerStep float64 `json:"ns_per_step"`
	// BuildSeconds is the structure-construction time for the arm:
	// CSR materialization (and its arc arrays) for the materialized
	// arm, effectively zero for implicit families.
	BuildSeconds float64 `json:"build_seconds"`
	// PeakRSSBytes is the phase's sampled resident-set peak;
	// AllocBytes the heap allocated during the phase.
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
	AllocBytes   int64 `json:"alloc_bytes"`
	// TwoAdjacentFrac is the fraction of trials that reached the
	// two-adjacent stage within the step cap.
	TwoAdjacentFrac float64 `json:"two_adjacent_frac"`
}

// BenchBigN is the bign section of BENCH_engine.json.
type BenchBigN struct {
	// Graph names the topology family of the point.
	Graph   string `json:"graph"`
	K       int    `json:"k"`
	Process string `json:"process"`
	// MaxStepsPerTrial is the per-trial cap; at n = 10⁶–10⁷ a run is
	// bounded deterministically rather than run to consensus.
	MaxStepsPerTrial int64          `json:"max_steps_per_trial"`
	Arms             []BenchBigNArm `json:"arms"`
	// RSSRatio is implicit/compact peak RSS over csr/int32 peak RSS at
	// n = 10⁶ — the acceptance bound is ≤ 0.25.
	RSSRatio float64 `json:"rss_ratio"`
	// Identical reports whether the implicit/compact arm's Results were
	// byte-identical to the csr/int32 arm's, trial for trial.
	Identical bool `json:"identical"`
	// Dissenter is the sparse-endgame acceptance workload: a
	// near-consensus profile at n = 10⁶ where the naive scheduler
	// drowns in idle draws and the sparse skip-sampler runs the tail to
	// consensus.
	Dissenter *BenchBigNDissenter `json:"dissenter,omitempty"`
	// SmallEq is the runner-level distribution-equivalence check backing
	// the Dissenter speedup: sparse vs naive winner/steps laws at a
	// small n where both engines finish comfortably.
	SmallEq *BenchBigNEq `json:"small_eq,omitempty"`
}

// BenchBigNPhase splits one arm at the step where some opinion first
// held MajorityFrac·n vertices (Result.MajorityStep): the "to 90%"
// head versus the consensus tail. The dissenter profile starts above
// the majority fraction, so its crossing is at step 0 and the wall
// split is exact; a trial that never crossed charges its whole wall to
// the head, and a mid-run crossing is attributed step-proportionally
// (an approximation — only the two boundary cases occur here).
type BenchBigNPhase struct {
	MajorityFrac float64 `json:"majority_frac"`
	StepsTo90    int64   `json:"steps_to_90"`
	TailSteps    int64   `json:"tail_steps"`
	SecondsTo90  float64 `json:"seconds_to_90"`
	TailSeconds  float64 `json:"tail_seconds"`
}

// BenchBigNDissenterArm is one engine's run of the dissenter profile.
type BenchBigNDissenterArm struct {
	Label  string `json:"label"` // "naive" or "auto/sparse"
	Engine string `json:"engine"`
	Trials int    `json:"trials"`
	// ConsensusFrac is the fraction of trials that reached consensus
	// within the arm's step cap.
	ConsensusFrac float64 `json:"consensus_frac"`
	// MaxStepsPerTrial is this arm's cap: the naive arm is bounded so
	// the benchmark terminates, the auto arm keeps the core default.
	MaxStepsPerTrial int64          `json:"max_steps_per_trial"`
	Steps            int64          `json:"steps"`
	Seconds          float64        `json:"seconds"`
	Phase            BenchBigNPhase `json:"phase"`
}

// BenchBigNDissenter is the sparse-endgame acceptance subsection: the
// same n = 10⁶ implicit circulant as the main arms, initialized one
// vote short of consensus (Dissenters scattered vertices at opinion 2
// on a background of 1s), run under EngineNaive (bounded) and
// EngineAuto (to consensus via the sparse hand-off).
type BenchBigNDissenter struct {
	N          int                     `json:"n"`
	Dissenters int                     `json:"dissenters"`
	Arms       []BenchBigNDissenterArm `json:"arms"`
	// Speedup is naive wall seconds over auto wall seconds. When
	// NaiveCapped is set the naive arm hit its step cap without
	// consensus, so Speedup is a lower bound on the true end-to-end
	// ratio. The acceptance bound is ≥ 2.
	Speedup     float64 `json:"speedup"`
	NaiveCapped bool    `json:"naive_capped"`
	// SparsePeakBytes is the sparse engine's high-water working-set
	// bound (the core sparse_set_peak gauge: position index, touched
	// bitmap and member lists); CSREstimateBytes is what the
	// materialized CSR twin would cost (adjacency + arc index, from
	// graph.CSRMemEstimate). The acceptance bound on the ratio is
	// ≤ 0.05.
	SparsePeakBytes  int64   `json:"sparse_peak_bytes"`
	CSREstimateBytes int64   `json:"csr_estimate_bytes"`
	SparsePeakRatio  float64 `json:"sparse_peak_ratio"`
}

// BenchBigNEq is a two-sample χ²/KS comparison of the sparse engine
// against the naive reference at a small n, mirroring the core
// equivalence tests but recorded in the report so the bench gate — not
// just `go test` — fails if the sparse law drifts. Both arms run the
// uniform two-opinion profile (pure endgame, the regime the sparse
// engine owns) with independent seeds.
type BenchBigNEq struct {
	N      int `json:"n"`
	K      int `json:"k"`
	Trials int `json:"trials"`
	// Chi2 compares the winner distributions (df bins − 1, α = 0.001).
	Chi2     float64 `json:"chi2"`
	Chi2Df   int     `json:"chi2_df"`
	Chi2Crit float64 `json:"chi2_crit"`
	// KSSteps compares the consensus-time distributions (α = 0.001).
	KSSteps float64 `json:"ks_steps"`
	KSCrit  float64 `json:"ks_crit"`
	// Phase is the steps-only head/tail split of the sparse arm (wall
	// is not split at this scale); at small n the 90% crossing falls
	// mid-run, so this is where the split carries information.
	MeanStepsTo90 float64 `json:"mean_steps_to_90"`
	MeanTailSteps float64 `json:"mean_tail_steps"`
	Pass          bool    `json:"pass"`
}

// bigNStrides is the circulant connection set: strides 1..4 give a
// connected 8-regular vertex-transitive family at any n ≥ 10.
var bigNStrides = []int{1, 2, 3, 4}

// bigNPoint is one arm's workload: trials of the extremes profile on
// the given structure under the vertex process, capped at maxSteps.
func bigNPoint(topo graph.Topology, compact bool, k int, seed uint64, trials int, maxSteps int64) ([]core.Result, int64, time.Duration, error) {
	n := topo.N()
	out := make([]core.Result, trials)
	start := time.Now()
	err := core.RunBlock(core.BlockConfig{
		Topology: topo,
		Compact:  compact,
		Process:  core.VertexProcess,
		Engine:   core.EngineNaive,
		Stop:     core.UntilTwoAdjacent,
		MaxSteps: maxSteps,
		Seed:     seed,
		Init: func(trial int, dst []int, r *rand.Rand) error {
			core.ExtremesOpinionsInto(dst[:n], k, r)
			return nil
		},
	}, 0, trials, out)
	el := time.Since(start)
	if err != nil {
		return nil, 0, 0, err
	}
	var steps int64
	for _, r := range out {
		steps += r.Steps
	}
	return out, steps, el, nil
}

// bigNArm measures one phase: release the heap, bracket the workload
// with an RSS sampler, and fold the measurements into an arm record.
func bigNArm(label string, build func() (graph.Topology, error), compact bool, k int, seed uint64, trials int, maxSteps int64) (BenchBigNArm, []core.Result, error) {
	debug.FreeOSMemory()
	tracker := obs.TrackPeakRSS(5 * time.Millisecond)
	alloc0 := obs.HeapTotalAlloc()
	buildStart := time.Now()
	topo, err := build()
	if err != nil {
		tracker.Stop()
		return BenchBigNArm{}, nil, fmt.Errorf("bign %s: build: %w", label, err)
	}
	buildSecs := time.Since(buildStart).Seconds()
	out, steps, el, err := bigNPoint(topo, compact, k, seed, trials, maxSteps)
	peak := tracker.Stop()
	if err != nil {
		return BenchBigNArm{}, nil, fmt.Errorf("bign %s: %w", label, err)
	}
	reached := 0
	for _, r := range out {
		if r.TwoAdjacentStep >= 0 {
			reached++
		}
	}
	arm := BenchBigNArm{
		Label:           label,
		N:               topo.N(),
		Trials:          trials,
		Steps:           steps,
		Seconds:         el.Seconds(),
		NsPerStep:       float64(el.Nanoseconds()) / float64(steps),
		BuildSeconds:    buildSecs,
		PeakRSSBytes:    peak,
		AllocBytes:      obs.HeapTotalAlloc() - alloc0,
		TwoAdjacentFrac: float64(reached) / float64(trials),
	}
	return arm, out, nil
}

// bigNMajorityFrac is the phase-split threshold: the step at which
// some opinion first holds 90% of the vertices separates the reduction
// head from the consensus tail.
const bigNMajorityFrac = 0.9

// bigNChi2Crit001 maps χ² degrees of freedom to the α = 0.001 critical
// value, mirroring the table the core equivalence tests use.
var bigNChi2Crit001 = map[int]float64{
	1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467,
	5: 20.515, 6: 22.458, 7: 24.322, 8: 26.124,
}

// bigNKS2Crit001 is the two-sample Kolmogorov–Smirnov c(α) coefficient
// at α = 0.001: D_crit = c(α)·√((t₁+t₂)/(t₁·t₂)).
const bigNKS2Crit001 = 1.9495

// bigNDissenterInit scatters `dissenters` evenly spaced vertices at
// opinion 2 on a background of 1s: a near-consensus profile whose
// active-draw probability starts at ~2·dissenters/n, so the naive
// scheduler spends almost every draw idle from step 0.
func bigNDissenterInit(n, dissenters int) func(trial int, dst []int, r *rand.Rand) error {
	return func(trial int, dst []int, r *rand.Rand) error {
		for i := range dst[:n] {
			dst[i] = 1
		}
		stride := n / dissenters
		for i := 0; i < dissenters; i++ {
			dst[i*stride] = 2
		}
		return nil
	}
}

// bigNDissenterArm runs the dissenter profile under one engine, one
// trial per RunBlock call so wall clock attributes cleanly per trial.
// maxSteps 0 keeps the core default cap (effectively unbounded here).
func bigNDissenterArm(label string, engine core.Engine, topo graph.Topology, dissenters, trials int, seed uint64, maxSteps int64) (BenchBigNDissenterArm, error) {
	n := topo.N()
	arm := BenchBigNDissenterArm{
		Label:            label,
		Engine:           engine.String(),
		Trials:           trials,
		MaxStepsPerTrial: maxSteps,
		Phase:            BenchBigNPhase{MajorityFrac: bigNMajorityFrac},
	}
	if maxSteps == 0 {
		arm.MaxStepsPerTrial = 200 * int64(n) * int64(n)
	}
	consensus := 0
	for t := 0; t < trials; t++ {
		var out [1]core.Result
		start := time.Now()
		err := core.RunBlock(core.BlockConfig{
			Topology:     topo,
			Compact:      true,
			Process:      core.VertexProcess,
			Engine:       engine,
			Stop:         core.UntilConsensus,
			MaxSteps:     maxSteps,
			MajorityFrac: bigNMajorityFrac,
			Seed:         seed,
			Init:         bigNDissenterInit(n, dissenters),
		}, t, t+1, out[:])
		sec := time.Since(start).Seconds()
		if err != nil {
			return arm, fmt.Errorf("bign dissenter %s trial %d: %w", label, t, err)
		}
		r := out[0]
		if r.Consensus {
			consensus++
		}
		arm.Steps += r.Steps
		arm.Seconds += sec
		// Phase split. The dissenter profile starts above the majority
		// fraction, so MajorityStep is 0 and the whole trial is tail;
		// the other branches keep the split honest if the profile ever
		// changes (never crossed → all head; mid-run crossing → the
		// wall is attributed step-proportionally).
		switch {
		case r.MajorityStep == 0:
			arm.Phase.TailSteps += r.Steps
			arm.Phase.TailSeconds += sec
		case r.MajorityStep < 0:
			arm.Phase.StepsTo90 += r.Steps
			arm.Phase.SecondsTo90 += sec
		default:
			arm.Phase.StepsTo90 += r.MajorityStep
			arm.Phase.TailSteps += r.Steps - r.MajorityStep
			frac := float64(r.MajorityStep) / float64(r.Steps)
			arm.Phase.SecondsTo90 += sec * frac
			arm.Phase.TailSeconds += sec * (1 - frac)
		}
	}
	arm.ConsensusFrac = float64(consensus) / float64(trials)
	return arm, nil
}

// bigNDissenterRun measures the dissenter subsection: the naive arm is
// step-capped (it would otherwise idle for ~n draws per active step),
// the auto arm runs to consensus through the sparse hand-off, and the
// sparse working-set peak is read back from the core gauge and held
// against the CSR footprint a materialized fast hand-off would need.
func bigNDissenterRun(p Params, topo graph.Topology) (*BenchBigNDissenter, error) {
	n := topo.N()
	const dissenters = 256
	trials := p.pick(2, 3)
	naiveCap := int64(p.pick(50, 200)) * int64(n)
	seed := rng.DeriveSeed(p.Seed, 0xd155)
	sec := &BenchBigNDissenter{N: n, Dissenters: dissenters}

	naive, err := bigNDissenterArm("naive", core.EngineNaive, topo, dissenters, trials, seed, naiveCap)
	if err != nil {
		return nil, err
	}
	sec.Arms = append(sec.Arms, naive)
	auto, err := bigNDissenterArm("auto/sparse", core.EngineAuto, topo, dissenters, trials, seed, 0)
	if err != nil {
		return nil, err
	}
	sec.Arms = append(sec.Arms, auto)

	sec.NaiveCapped = naive.ConsensusFrac < 1
	if auto.Seconds > 0 {
		sec.Speedup = naive.Seconds / auto.Seconds
	}
	sec.SparsePeakBytes = obs.Default.Gauge("sparse_set_peak").Value()
	adj, arcIdx := graph.CSRMemEstimate(n, topo.DegreeSum())
	sec.CSREstimateBytes = adj + arcIdx
	sec.SparsePeakRatio = float64(sec.SparsePeakBytes) / float64(sec.CSREstimateBytes)
	return sec, nil
}

// bigNSmallEq runs the sparse-vs-naive law comparison at a small n:
// the uniform two-opinion profile (pure endgame) on a 4-regular
// circulant, naive and sparse arms on independent seeds, compared by a
// two-sample χ² on winners and a two-sample KS on consensus times.
func bigNSmallEq(p Params) (*BenchBigNEq, error) {
	const n, k = 64, 2
	trials := p.pick(250, 500)
	topo, err := graph.NewImplicitCirculant(n, []int{1, 2})
	if err != nil {
		return nil, err
	}
	gather := func(engine core.Engine, seed uint64) ([]core.Result, error) {
		out := make([]core.Result, trials)
		err := core.RunBlock(core.BlockConfig{
			Topology:     topo,
			Compact:      true,
			Process:      core.VertexProcess,
			Engine:       engine,
			Stop:         core.UntilConsensus,
			MajorityFrac: bigNMajorityFrac,
			Seed:         seed,
			Init: func(trial int, dst []int, r *rand.Rand) error {
				core.UniformOpinionsInto(dst[:n], k, r)
				return nil
			},
		}, 0, trials, out)
		return out, err
	}
	naive, err := gather(core.EngineNaive, rng.DeriveSeed(p.Seed, 0xe901))
	if err != nil {
		return nil, fmt.Errorf("bign small-eq naive: %w", err)
	}
	sparse, err := gather(core.EngineFast, rng.DeriveSeed(p.Seed, 0xe902))
	if err != nil {
		return nil, fmt.Errorf("bign small-eq sparse: %w", err)
	}

	eq := &BenchBigNEq{N: n, K: k, Trials: trials}
	// Two-sample χ² on winners: expected per-arm counts proportional to
	// the pooled winner frequencies, df = occupied bins − 1.
	winners := func(rs []core.Result) map[int]int64 {
		m := make(map[int]int64)
		for _, r := range rs {
			m[r.Winner]++
		}
		return m
	}
	wa, wb := winners(naive), winners(sparse)
	bins := make(map[int]bool)
	for w := range wa {
		bins[w] = true
	}
	for w := range wb {
		bins[w] = true
	}
	for w := range bins {
		pooled := float64(wa[w] + wb[w])
		ea := pooled * float64(trials) / float64(2*trials)
		eb := pooled - ea
		da, db := float64(wa[w])-ea, float64(wb[w])-eb
		eq.Chi2 += da*da/ea + db*db/eb
	}
	eq.Chi2Df = len(bins) - 1
	eq.Chi2Crit = bigNChi2Crit001[eq.Chi2Df]

	steps := func(rs []core.Result) []float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = float64(r.Steps)
		}
		return xs
	}
	eq.KSSteps, err = stats.KS2Sample(steps(naive), steps(sparse))
	if err != nil {
		return nil, fmt.Errorf("bign small-eq: %w", err)
	}
	eq.KSCrit = bigNKS2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))

	for _, r := range sparse {
		to90 := r.MajorityStep
		if to90 < 0 {
			to90 = r.Steps
		}
		eq.MeanStepsTo90 += float64(to90) / float64(trials)
		eq.MeanTailSteps += float64(r.Steps-to90) / float64(trials)
	}
	eq.Pass = eq.Chi2Df >= 1 && eq.Chi2Crit > 0 &&
		eq.Chi2 <= eq.Chi2Crit && eq.KSSteps <= eq.KSCrit
	return eq, nil
}

// BenchBigNRun measures the big-n section. In quick mode the step cap
// shrinks and the 10⁷ arm is skipped; the 10⁶ implicit-vs-materialized
// pair — the acceptance comparison — always runs.
func BenchBigNRun(p Params) (*BenchBigN, error) {
	p = p.withDefaults()
	const n1 = 1_000_000
	k := 8
	trials := 2
	maxSteps := int64(p.pick(8, 40)) * int64(n1)
	seed := rng.DeriveSeed(p.Seed, 0xb16a)
	sec := &BenchBigN{
		Graph:            fmt.Sprintf("circulant(n=%d,strides=%v)", n1, bigNStrides),
		K:                k,
		Process:          core.VertexProcess.String(),
		MaxStepsPerTrial: maxSteps,
	}

	topo1, err := graph.NewImplicitCirculant(n1, bigNStrides)
	if err != nil {
		return nil, err
	}
	// Implicit arm first: its phase peak must not inherit the
	// materialized arm's pages.
	impArm, impOut, err := bigNArm("implicit/compact",
		func() (graph.Topology, error) { return topo1, nil },
		true, k, seed, trials, maxSteps)
	if err != nil {
		return nil, err
	}
	sec.Arms = append(sec.Arms, impArm)

	csrArm, csrOut, err := bigNArm("csr/int32",
		func() (graph.Topology, error) { return graph.Materialize(topo1) },
		false, k, seed, trials, maxSteps)
	if err != nil {
		return nil, err
	}
	sec.Arms = append(sec.Arms, csrArm)

	sec.Identical = len(impOut) == len(csrOut)
	for i := range impOut {
		if fmt.Sprintf("%+v", impOut[i]) != fmt.Sprintf("%+v", csrOut[i]) {
			sec.Identical = false
			break
		}
	}
	if csrArm.PeakRSSBytes > 0 {
		sec.RSSRatio = float64(impArm.PeakRSSBytes) / float64(csrArm.PeakRSSBytes)
	}

	sec.Dissenter, err = bigNDissenterRun(p, topo1)
	if err != nil {
		return nil, err
	}
	sec.SmallEq, err = bigNSmallEq(p)
	if err != nil {
		return nil, err
	}

	if !p.Quick {
		const n2 = 10_000_000
		topo2, err := graph.NewImplicitCirculant(n2, bigNStrides)
		if err != nil {
			return nil, err
		}
		arm10, _, err := bigNArm("implicit/compact-10M",
			func() (graph.Topology, error) { return topo2, nil },
			true, k, rng.DeriveSeed(p.Seed, 0xb16b), 1, 2*int64(n2))
		if err != nil {
			return nil, err
		}
		sec.Arms = append(sec.Arms, arm10)
	}
	return sec, nil
}
