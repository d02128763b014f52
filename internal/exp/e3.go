package exp

import (
	"fmt"
	"math"

	"div/internal/core"
	"div/internal/graph"
	"div/internal/rng"
	"div/internal/sim"
	"div/internal/stats"
)

// E3Martingale reproduces Lemma 3: S(t) is a martingale under the edge
// process and Z(t) under the vertex process, on arbitrary graphs.
//
// Part (a) is exact: for random (graph, opinion) configurations the
// one-step drift is enumerated in integer arithmetic and must be zero.
// Part (b) is dynamic: over many independent runs of fixed length the
// sampled weight change must be statistically centred at zero.
// Part (c) shows the complementary *non*-martingales: on irregular
// graphs S drifts under the vertex process and Z_raw under the edge
// process, with exactly computed one-step drifts.
func E3Martingale(p Params) (*Report, error) {
	p = p.withDefaults()
	rep := &Report{ID: "E3", Name: "weight martingales (Lemma 3)"}

	// (a) Exact zero drift over random configurations.
	configs := p.pick(100, 500)
	r := rng.New(rng.DeriveSeed(p.Seed, 0xe3))
	nonzero := 0
	var maxAbs int64
	for i := 0; i < configs; i++ {
		n := 5 + r.IntN(60)
		g, err := graph.ConnectedGnpSeeded(n, 0.2+0.6*r.Float64(), r.Uint64(), 300, graph.BuildOpts{})
		if err != nil {
			return nil, err
		}
		k := 2 + r.IntN(12)
		s := core.MustState(g, core.UniformOpinions(n, k, r))
		d := core.SignedArcSum(s)
		if d != 0 {
			nonzero++
		}
		if a := abs64(d); a > maxAbs {
			maxAbs = a
		}
	}
	rep.check(nonzero == 0,
		"exact one-step drift is zero",
		"%d/%d random configurations had nonzero signed-arc sum (max |drift·2m| = %d)", nonzero, configs, maxAbs)

	// (b) Sampled long-run drift on K_n: one sweep, one point per
	// process.
	n := p.pick(120, 300)
	k := 10
	steps := int64(20 * n)
	trials := p.pick(150, 600)
	gs := newGraphs()
	defer gs.Release()
	g := gs.Complete(n)
	tbl := sim.NewTable(
		fmt.Sprintf("E3: weight change over %d steps on %s, k=%d", steps, g.Name(), k),
		"process", "weight", "trials", "mean Δ", "stderr", "|z|",
	)
	procs := []core.Process{core.EdgeProcess, core.VertexProcess}
	points := make([]Point, len(procs))
	for i, proc := range procs {
		points[i] = Point{G: g, Seed: rng.DeriveSeed(p.Seed, 0x300+uint64(proc)), Trials: trials}
	}
	results, err := Sweep(p, "E3", points, func(pi, trial int, seed uint64, sc *core.Scratch) (float64, error) {
		proc := procs[pi]
		r := rng.New(seed)
		init := core.UniformOpinions(n, k, r)
		var w0, w1 float64
		_, err := core.Run(core.Config{
			Engine:   p.coreEngine(),
			Probe:    p.probeFor(trial, seed),
			Graph:    g,
			Initial:  init,
			Process:  proc,
			Stop:     core.UntilMaxSteps,
			MaxSteps: steps,
			Seed:     rng.SplitMix64(seed),
			Observer: func(s *core.State) bool {
				if s.Steps() == 0 {
					w0 = weightOf(s, proc)
				}
				w1 = weightOf(s, proc)
				return true
			},
			ObserveEvery: steps,
			Scratch:      sc,
		})
		if err != nil {
			return 0, err
		}
		return w1 - w0, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, proc := range procs {
		s := stats.Summarize(results[pi])
		z := 0.0
		if s.Stderr() > 0 {
			z = s.Mean / s.Stderr()
		}
		name := "S = Σ X_v"
		if proc == core.VertexProcess {
			name = "Z = n Σ π_v X_v"
		}
		tbl.AddRow(proc.String(), name, trials, s.Mean, s.Stderr(), math.Abs(z))
		rep.check(math.Abs(z) <= 5,
			fmt.Sprintf("%s-process weight centred", proc),
			"mean Δ%s = %.3f ± %.3f over %d trials (|z| = %.2f, want ≤ 5)", name, s.Mean, s.Stderr(), trials, math.Abs(z))
	}
	rep.Tables = append(rep.Tables, tbl)

	// (c) The cross pairings are NOT martingales on irregular graphs.
	star := graph.Star(6)
	s := core.MustState(star, []int{4, 1, 1, 1, 1, 1})
	vDrift := core.VertexProcessSumDrift(s)
	eDrift := core.EdgeProcessDegSumDrift(s)
	tblC := sim.NewTable(
		"E3c: exact one-step drifts of the cross pairings on star(6), centre=4, leaves=1",
		"process", "weight", "exact E[Δ | X]",
	)
	tblC.AddRow("vertex", "S (plain sum)", vDrift)
	tblC.AddRow("edge", "Σ d(v)X_v", eDrift)
	rep.Tables = append(rep.Tables, tblC)
	rep.check(vDrift != 0 && eDrift != 0,
		"cross pairings drift on irregular graphs",
		"vertex/S drift = %.4f, edge/ΣdX drift = %.4f (both must be nonzero)", vDrift, eDrift)
	return rep, nil
}

func weightOf(s *core.State, proc core.Process) float64 {
	if proc == core.EdgeProcess {
		return float64(s.Sum())
	}
	// Z(t) = n Σ π_v X_v = n · DegSum / 2m.
	return float64(s.N()) * float64(s.DegSum()) / float64(s.Graph().DegreeSum())
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
