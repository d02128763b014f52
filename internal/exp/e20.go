package exp

import (
	"fmt"
	"math/rand/v2"
	"time"

	"div/internal/core"
	"div/internal/graph"
	"div/internal/rng"
	"div/internal/sim"
	"div/internal/stats"
)

// E20FastEngine benchmarks the discordance-tracked fast engine
// (core/sparse.go) and the adaptive hybrid behind EngineAuto against the
// naive per-invocation engine, on the workloads the fast path is built
// for: UntilConsensus on a sparse random regular graph. Three profiles:
//
//   - uniform k=5: the standard full run. Its draw count is dominated
//     by long concentrated stretches where almost every scheduler draw
//     is idle, which Auto detects and skip-samples.
//   - final stage n/100: a two-adjacent-opinion state with a small
//     minority — the paper's Lemma 5 regime, where only the boundary
//     arcs are discordant (p_active ≈ 2a/n) and the geometric skip
//     sampler leaps over runs of no-op draws.
//   - dissenters n/500: the same regime with a far smaller minority,
//     so the minority-size walk rarely wanders out of the
//     idle-dominated zone and the flip density per simulated draw is
//     minimal. This is the profile the acceptance floor is gated on:
//     its per-step cost is the most stable of the three, and it runs
//     the most trials.
//
// All engines run fixed trial seeds serially (no worker parallelism,
// so the wall-clock comparison is clean). The speedup check gates
// EngineAuto on the dissenter profile against the acceptance floor
// (≥ 3× quick, ≥ 5× full), comparing the *median per-step wall-clock
// cost* (per-trial elapsed/steps, medians across trials) rather than
// total times: consensus time has a fat upper tail (the minority size
// is an unbiased random walk, so rare trials take an excursion toward
// a balanced split and dwarf the sum), and engines realize independent
// trajectories, so totals compare trajectory luck, not stepping speed.
// Normalizing each trial by its own realized length isolates exactly
// what an engine controls — the wall-clock cost of simulating the
// trajectory it was dealt — and the median makes the ratio robust to
// the excursion tail. A second caveat is inherent and documented
// rather than gamed: pure EngineFast is *expected* to lose on
// discordance-heavy workloads — that is why EngineAuto exists and is
// the default.
//
// Result semantics are also checked deterministically on every trial
// of every engine: consensus reached, winner inside the initial
// opinion range, and the final support collapsed to the winner. The
// statistical claim that the engines realize the same law is *not*
// re-tested here; core/equivalence_test.go holds them to
// distribution-identity at α = 0.001.
func E20FastEngine(p Params) (*Report, error) {
	p = p.withDefaults()
	rep := &Report{ID: "E20", Name: "fast engine speedup (discordance tracking)"}

	// The graph is the same in quick and full mode: shrinking n would let
	// the per-trial SparseState build (an O(n) position index and an
	// O(n + n_off·d̄) seed pass; trials run without a Scratch) dominate
	// the short dissenter trials and measure setup, not stepping. Quick
	// mode economizes on trials instead.
	const n = 10000
	const d = 8
	floor := float64(p.pick(3, 5))

	g, err := graph.RandomRegular(n, d, rng.New(rng.DeriveSeed(p.Seed, 0x2000)))
	if err != nil {
		return nil, err
	}

	profiles := []struct {
		name   string
		gated  bool // this profile carries the speedup acceptance check
		trials int
		base   uint64
		k      int // winner must land in [1, k]
		init   func(r *rand.Rand) ([]int, error)
	}{
		{"uniform k=5", false, p.pick(2, 4), 0x2010, 5,
			func(r *rand.Rand) ([]int, error) { return core.UniformOpinions(n, 5, r), nil }},
		{"final stage n/100", false, p.pick(4, 8), 0x2080, 2,
			func(r *rand.Rand) ([]int, error) { return core.TwoOpinionSplit(n, n/100, r) }},
		{"dissenters n/500", true, p.pick(12, 16), 0x20f0, 2,
			func(r *rand.Rand) ([]int, error) { return core.TwoOpinionSplit(n, n/500, r) }},
	}
	engines := []core.Engine{core.EngineNaive, core.EngineFast, core.EngineAuto}

	var gate struct{ naive, auto float64 }
	for _, prof := range profiles {
		tbl := sim.NewTable(
			fmt.Sprintf("E20 %s: DIV to consensus on %s, vertex process, %d trials",
				prof.name, g, prof.trials),
			"engine", "median ms/trial", "total", "mean steps", "median ns/step", "speedup")
		var naiveMedian float64
		for _, engine := range engines {
			var steps, times, perStep []float64
			for trial := 0; trial < prof.trials; trial++ {
				seed := rng.DeriveSeed(p.Seed, prof.base+uint64(trial))
				init, err := prof.init(rng.New(seed))
				if err != nil {
					return nil, err
				}
				start := time.Now()
				res, err := core.Run(core.Config{
					Graph:   g,
					Initial: init,
					Process: core.VertexProcess,
					Engine:  engine,
					Seed:    rng.SplitMix64(rng.DeriveSeed(seed, uint64(engine))),
				})
				if err != nil {
					return nil, err
				}
				if !res.Consensus {
					return nil, fmt.Errorf("e20: %s/%v trial %d: no consensus after %d steps",
						prof.name, engine, trial, res.Steps)
				}
				if res.Winner < 1 || res.Winner > prof.k {
					return nil, fmt.Errorf("e20: %s/%v trial %d: winner %d outside [1,%d]",
						prof.name, engine, trial, res.Winner, prof.k)
				}
				if res.FinalMin != res.Winner || res.FinalMax != res.Winner {
					return nil, fmt.Errorf("e20: %s/%v trial %d: final support [%d,%d] not collapsed to winner %d",
						prof.name, engine, trial, res.FinalMin, res.FinalMax, res.Winner)
				}
				elapsed := float64(time.Since(start).Nanoseconds())
				steps = append(steps, float64(res.Steps))
				times = append(times, elapsed)
				perStep = append(perStep, elapsed/float64(res.Steps))
			}
			var total float64
			for _, t := range times {
				total += t
			}
			medTime, err := stats.Median(times)
			if err != nil {
				return nil, err
			}
			medPerStep, err := stats.Median(perStep)
			if err != nil {
				return nil, err
			}
			if engine == core.EngineNaive {
				naiveMedian = medPerStep
			}
			if prof.gated {
				switch engine {
				case core.EngineNaive:
					gate.naive = medPerStep
				case core.EngineAuto:
					gate.auto = medPerStep
				}
			}
			s := stats.Summarize(steps)
			tbl.AddRow(engine.String(),
				fmt.Sprintf("%.1f", medTime/1e6),
				time.Duration(total).Round(time.Millisecond),
				fmt.Sprintf("%.4g", s.Mean),
				fmt.Sprintf("%.2f", medPerStep),
				fmt.Sprintf("%.1fx", naiveMedian/medPerStep))
		}
		rep.Tables = append(rep.Tables, tbl)
	}

	speedup := gate.naive / gate.auto
	rep.check(speedup >= floor,
		fmt.Sprintf("auto engine ≥ %.0fx per step on the dissenter profile, RR(n=%d, d=%d)", floor, n, d),
		"median per-step cost: naive %.2fns / auto %.2fns = %.1fx",
		gate.naive, gate.auto, speedup)
	rep.note("Speedups compare the median per-step wall-clock cost (per-trial elapsed/steps): " +
		"consensus time has a fat upper tail (minority-size excursions) and engines realize " +
		"independent trajectories, so raw totals compare trajectory luck, not stepping " +
		"speed. Pure EngineFast loses on " +
		"discordance-heavy workloads by design — EngineAuto " +
		"switches regimes at measurable stopping times and is the one that must win here. " +
		"Distribution-identity of all three engines is enforced separately by " +
		"core/equivalence_test.go at α=0.001.")
	return rep, nil
}
