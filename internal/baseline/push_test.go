package baseline

import (
	"math"
	"testing"

	"div/internal/core"
	"div/internal/graph"
	"div/internal/rng"
)

func TestPushRuleNames(t *testing.T) {
	if (PushDIV{}).Name() != "push-div" || (Push{}).Name() != "push" {
		t.Error("push rule names wrong")
	}
}

func TestPushDIVUpdatesObservedVertex(t *testing.T) {
	g := graph.Path(3)
	tests := []struct {
		name    string
		initial []int
		v, w    int
		wantW   int
	}{
		{"pulls w up", []int{5, 2, 3}, 0, 1, 3},
		{"pulls w down", []int{1, 4, 3}, 0, 1, 3},
		{"equal no-op", []int{4, 4, 3}, 0, 1, 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := core.MustState(g, tc.initial)
			PushDIV{}.Step(s, nil, tc.v, tc.w)
			if got := s.Opinion(tc.w); got != tc.wantW {
				t.Errorf("opinion(w) = %d, want %d", got, tc.wantW)
			}
			if s.Opinion(tc.v) != tc.initial[tc.v] {
				t.Error("pushing vertex changed")
			}
		})
	}
}

func TestPushImposesOpinion(t *testing.T) {
	g := graph.Path(2)
	s := core.MustState(g, []int{7, 2})
	Push{}.Step(s, nil, 0, 1)
	if s.Opinion(1) != 7 || s.Opinion(0) != 7 {
		t.Errorf("opinions after push: %d, %d", s.Opinion(0), s.Opinion(1))
	}
}

func TestPushDIVInvDegDriftIsZero(t *testing.T) {
	// The inverse-degree weight is conserved in expectation on every
	// graph and configuration (the push mirror of Lemma 3).
	r := rng.New(41)
	for trial := 0; trial < 60; trial++ {
		n := 5 + r.IntN(40)
		g, err := graph.ConnectedGnpSeeded(n, 0.3, r.Uint64(), 300, graph.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		s := core.MustState(g, core.UniformOpinions(n, 2+r.IntN(9), r))
		if d := core.PushDIVInvDegDrift(s); math.Abs(d) > 1e-14 {
			t.Fatalf("inverse-degree drift %v on %v", d, g)
		}
	}
}

func TestPushDIVSumDriftNonzeroOnStar(t *testing.T) {
	g := graph.Star(5)
	s := core.MustState(g, []int{3, 1, 1, 1, 1})
	// Under push, v=0 (deg 4) pushes at leaves: each arc (0,leaf) has
	// sign +1, /d(0)=4 → +1 total; each leaf pushes at the centre with
	// sign -1, /1 → -4. E[ΔS] = (1-4)/5 = -0.6.
	if d := core.PushDIVSumDrift(s); math.Abs(d-(-0.6)) > 1e-12 {
		t.Errorf("push sum drift = %v, want -0.6", d)
	}
}

func TestPushDIVConsensusTracksInvDegAverage(t *testing.T) {
	// Star with the centre at 5: the centre's inverse-degree weight is
	// negligible, so push-DIV consensus should almost always be 1 —
	// the opposite of pull-DIV's degree-weighted target of 3.
	const n, trials = 41, 300
	g := graph.Star(n)
	init := make([]int, n)
	init[0] = 5
	for v := 1; v < n; v++ {
		init[v] = 1
	}
	target := core.InvDegAverage(core.MustState(g, init))
	if target > 1.2 {
		t.Fatalf("inverse-degree average %v unexpectedly high", target)
	}
	var sum float64
	for trial := 0; trial < trials; trial++ {
		res, err := core.Run(core.Config{
			Graph:   g,
			Initial: init,
			Process: core.VertexProcess,
			Rule:    PushDIV{},
			Seed:    rng.DeriveSeed(42, uint64(trial)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consensus {
			t.Fatalf("trial %d: no consensus", trial)
		}
		sum += float64(res.Winner)
	}
	mean := sum / trials
	if math.Abs(mean-target) > 0.25 {
		t.Errorf("mean push-DIV winner %.3f vs inverse-degree average %.3f", mean, target)
	}
}

func TestInvDegHelpers(t *testing.T) {
	g := graph.Star(4) // centre deg 3, leaves deg 1
	s := core.MustState(g, []int{3, 1, 1, 1})
	wantSum := 3.0/3 + 3 // 1 + 3·(1/1)
	if got := core.InvDegSum(s); math.Abs(got-wantSum) > 1e-12 {
		t.Errorf("InvDegSum = %v, want %v", got, wantSum)
	}
	wantAvg := wantSum / (1.0/3 + 3)
	if got := core.InvDegAverage(s); math.Abs(got-wantAvg) > 1e-12 {
		t.Errorf("InvDegAverage = %v, want %v", got, wantAvg)
	}
}

func TestNewStubbornValidation(t *testing.T) {
	if _, err := NewStubborn(core.DIV{}, 5, []int{7}); err == nil {
		t.Error("out-of-range zealot accepted")
	}
	if _, err := NewStubborn(core.DIV{}, 5, []int{-1}); err == nil {
		t.Error("negative zealot accepted")
	}
	for _, bad := range []core.Rule{Push{}, PushDIV{}, LoadBalance{}} {
		if _, err := NewStubborn(bad, 5, nil); err == nil {
			t.Errorf("rule %s accepted by Stubborn", bad.Name())
		}
	}
	r, err := NewStubborn(core.DIV{}, 5, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "stubborn-div" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestStubbornVertexNeverMoves(t *testing.T) {
	g := graph.Complete(10)
	rr := rng.New(61)
	init := core.UniformOpinions(10, 5, rr)
	init[3] = 5
	rule, err := NewStubborn(core.DIV{}, 10, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	s := core.MustState(g, init)
	for i := 0; i < 50000; i++ {
		v := rr.IntN(10)
		w := g.Neighbor(v, rr.IntN(9))
		rule.Step(s, rr, v, w)
		if s.Opinion(3) != 5 {
			t.Fatalf("zealot moved to %d at step %d", s.Opinion(3), i)
		}
	}
}

func TestStubbornZealotAlwaysWins(t *testing.T) {
	g := graph.Complete(30)
	rr := rng.New(62)
	init := core.UniformOpinions(30, 4, rr)
	init[0] = 4
	rule, err := NewStubborn(core.DIV{}, 30, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		res, err := core.Run(core.Config{
			Graph:    g,
			Initial:  init,
			Rule:     rule,
			MaxSteps: 2000 * 30 * 30,
			Seed:     rng.DeriveSeed(63, uint64(trial)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consensus || res.Winner != 4 {
			t.Fatalf("trial %d: consensus=%v winner=%d, want zealot value 4", trial, res.Consensus, res.Winner)
		}
	}
}
