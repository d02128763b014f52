package exp

import (
	"fmt"
	"math"

	"div/internal/baseline"
	"div/internal/core"
	"div/internal/graph"
	"div/internal/rng"
	"div/internal/sim"
	"div/internal/stats"
)

// E17PushPull extends the paper's footnote ("the type of average
// returned depends on the algorithm") along the push/pull axis. Under
// the same vertex-process scheduler, flipping WHICH endpoint updates
// flips the conserved weighting of the opinion vector:
//
//	pull DIV (v updates):  Σ d(v)X_v    — degree-weighted average
//	push DIV (w updates):  Σ X_v/d(v)   — inverse-degree-weighted average
//
// Both identities follow from the arc-antisymmetry argument of Lemma 3
// (core.SignedArcSum resp. core.PushDIVInvDegDrift enumerate them
// exactly), and optional stopping makes E[winner] equal the respective
// average on ANY connected graph. On the star with an opinionated
// centre the two targets differ by almost the full opinion range.
func E17PushPull(p Params) (*Report, error) {
	p = p.withDefaults()
	rep := &Report{ID: "E17", Name: "push vs pull: which average survives"}
	trials := p.pick(300, 1000)
	gs := newGraphs()
	defer gs.Release()

	// Exact drift identities over random configurations.
	r := rng.New(rng.DeriveSeed(p.Seed, 0xe17))
	configs := p.pick(80, 300)
	bad := 0
	for i := 0; i < configs; i++ {
		n := 5 + r.IntN(50)
		g, err := graph.ConnectedGnpSeeded(n, 0.25+0.5*r.Float64(), r.Uint64(), 300, graph.BuildOpts{})
		if err != nil {
			return nil, err
		}
		s := core.MustState(g, core.UniformOpinions(n, 2+r.IntN(9), r))
		if core.SignedArcSum(s) != 0 || math.Abs(core.PushDIVInvDegDrift(s)) > 1e-13 {
			bad++
		}
	}
	rep.check(bad == 0,
		"both conservation identities hold exactly",
		"%d/%d random configurations violated a drift identity", bad, configs)

	// Winner expectations on the star: centre=k, leaves=1.
	n := p.pick(81, 161)
	k := 5
	g := gs.Star(n)
	init := make([]int, n)
	init[0] = k
	for v := 1; v < n; v++ {
		init[v] = 1
	}
	st := core.MustState(g, init)
	targets := map[string]float64{
		"div (pull)": st.WeightedAverage(),
		"push-div":   core.InvDegAverage(st),
	}

	tbl := sim.NewTable(
		fmt.Sprintf("E17: push vs pull incremental voting on %s (centre=%d, leaves=1), vertex process", g.Name(), k),
		"rule", "conserved average", "target", "mean winner", "stderr", "|z|",
	)
	rules := []struct {
		rule core.Rule
		kind string
	}{
		{core.DIV{}, "div (pull)"},
		{baseline.PushDIV{}, "push-div"},
	}
	points := make([]Point, len(rules))
	for ri := range rules {
		points[ri] = Point{G: g, Seed: rng.DeriveSeed(p.Seed, uint64(0x1700+ri)), Trials: trials}
	}
	results, err := Sweep(p, "E17", points, func(ri, trial int, seed uint64, sc *core.Scratch) (float64, error) {
		rl := rules[ri]
		res, err := core.Run(core.Config{
			Engine:  p.coreEngine(),
			Probe:   p.probeFor(trial, seed),
			Graph:   g,
			Initial: init,
			Process: core.VertexProcess,
			Rule:    rl.rule,
			Seed:    seed,
			Scratch: sc,
		})
		if err != nil {
			return 0, err
		}
		if !res.Consensus {
			return 0, fmt.Errorf("%s: no consensus after %d steps", rl.rule.Name(), res.Steps)
		}
		return float64(res.Winner), nil
	})
	if err != nil {
		return nil, err
	}
	means := map[string]float64{}
	for ri, rl := range rules {
		s := stats.Summarize(results[ri])
		target := targets[rl.kind]
		z := 0.0
		if s.Stderr() > 0 {
			z = (s.Mean - target) / s.Stderr()
		}
		means[rl.kind] = s.Mean
		weightName := "Σ d(v)X_v / 2m"
		if rl.kind == "push-div" {
			weightName = "Σ X_v/d(v) / Σ 1/d(v)"
		}
		tbl.AddRow(rl.rule.Name(), weightName, target, s.Mean, s.Stderr(), math.Abs(z))
		rep.check(math.Abs(z) <= 5,
			fmt.Sprintf("E[winner] matches the %s target", rl.kind),
			"mean winner %.3f vs %.3f (|z| = %.2f)", s.Mean, target, math.Abs(z))
	}
	rep.Tables = append(rep.Tables, tbl)

	sep := means["div (pull)"] - means["push-div"]
	rep.check(sep >= 1,
		"direction flip moves the consensus target",
		"pull mean %.2f vs push mean %.2f on the same graph, scheduler and initial opinions (targets %.2f vs %.2f)",
		means["div (pull)"], means["push-div"], targets["div (pull)"], targets["push-div"])
	rep.note("One bit — which endpoint of the interaction updates — selects between the degree-weighted and inverse-degree-weighted averages; the simple average requires the edge process (E10).")
	return rep, nil
}
