package main

import (
	"math"
	"testing"

	"div/internal/core"
)

func TestReduceTrialPredicate(t *testing.T) {
	const k = 8
	good := core.Result{Steps: 1000, TwoAdjacentStep: 1000, FinalMin: 4, FinalMax: 5,
		InitialWeightedAverage: 4.5, WeightAtTwoAdjacent: 4.4}
	if err := checkReduceTrial(good, k); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	forged := map[string]func(*core.Result){
		"aborted":         func(r *core.Result) { r.Aborted = true },
		"cap reached":     func(r *core.Result) { r.TwoAdjacentStep = -1; r.WeightAtTwoAdjacent = math.NaN() },
		"stop after end":  func(r *core.Result) { r.TwoAdjacentStep = r.Steps + 1 },
		"range two":       func(r *core.Result) { r.FinalMax = r.FinalMin + 2 },
		"below one":       func(r *core.Result) { r.FinalMin, r.FinalMax = 0, 1; r.WeightAtTwoAdjacent = 0.5 },
		"above k":         func(r *core.Result) { r.FinalMin, r.FinalMax = k, k+1; r.WeightAtTwoAdjacent = k + 0.5 },
		"average outside": func(r *core.Result) { r.WeightAtTwoAdjacent = 5.5 },
		"average NaN":     func(r *core.Result) { r.WeightAtTwoAdjacent = math.NaN() },
	}
	for name, forge := range forged {
		r := good
		forge(&r)
		if err := checkReduceTrial(r, k); err == nil {
			t.Errorf("%s: forged result %+v accepted", name, r)
		}
	}
}

func TestEndgameTrialPredicate(t *testing.T) {
	const cap = 5000
	goods := map[string]core.Result{
		"majority wins":   {Consensus: true, Winner: 1, FinalMin: 1, FinalMax: 1, Steps: 1200},
		"dissenters win":  {Consensus: true, Winner: 2, FinalMin: 2, FinalMax: 2, Steps: cap},
		"capped, both on": {Winner: 0, FinalMin: 1, FinalMax: 2, Steps: cap},
	}
	for name, r := range goods {
		if err := checkEndgameTrial(r, cap); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
	forged := map[string]core.Result{
		"aborted":              {Aborted: true, Consensus: true, Winner: 1, FinalMin: 1, FinalMax: 1, Steps: 10},
		"winner three":         {Consensus: true, Winner: 3, FinalMin: 3, FinalMax: 3, Steps: 10},
		"winner zero":          {Consensus: true, Winner: 0, FinalMin: 0, FinalMax: 0, Steps: 10},
		"winner not survivor":  {Consensus: true, Winner: 1, FinalMin: 2, FinalMax: 2, Steps: 10},
		"two survivors":        {Consensus: true, Winner: 1, FinalMin: 1, FinalMax: 2, Steps: 10},
		"consensus past cap":   {Consensus: true, Winner: 1, FinalMin: 1, FinalMax: 1, Steps: cap + 1},
		"stopped early":        {FinalMin: 1, FinalMax: 2, Steps: cap - 1},
		"no consensus, winner": {Winner: 1, FinalMin: 1, FinalMax: 2, Steps: cap},
		"no consensus, one on": {FinalMin: 1, FinalMax: 1, Steps: cap},
	}
	for name, r := range forged {
		if err := checkEndgameTrial(r, cap); err == nil {
			t.Errorf("%s: forged result %+v accepted", name, r)
		}
	}
}

func TestLemma3Check(t *testing.T) {
	var l lemma3
	for i := 0; i < 100; i++ {
		d := 0.1
		if i%2 == 0 {
			d = -0.1
		}
		l.add(core.Result{InitialWeightedAverage: 4, WeightAtTwoAdjacent: 4 + d})
	}
	if c := l.check(); !c.Pass {
		t.Errorf("zero-mean drift failed: %s", c.Detail)
	}
	var biased lemma3
	for i := 0; i < 100; i++ {
		d := 0.4
		if i%2 == 0 {
			d = -0.1
		}
		biased.add(core.Result{InitialWeightedAverage: 4, WeightAtTwoAdjacent: 4 + d})
	}
	if c := biased.check(); c.Pass {
		t.Errorf("drift of +0.15 ± 0.25 over 100 trials passed: %s", c.Detail)
	}
	var one lemma3
	one.add(core.Result{})
	if c := one.check(); c.Pass {
		t.Errorf("a single trial passed the law check: %s", c.Detail)
	}
}

func TestEq3Check(t *testing.T) {
	e := eq3{pMinority: 64.0 / 1e6}
	for i := 0; i < 150; i++ {
		e.add(core.Result{Consensus: true, Winner: 1})
	}
	e.add(core.Result{}) // a capped trial
	if c := e.check(); !c.Pass {
		t.Errorf("no minority wins failed: %s", c.Detail)
	}
	for i := 0; i < 5; i++ {
		e.add(core.Result{Consensus: true, Winner: 2})
	}
	if c := e.check(); c.Pass {
		t.Errorf("5 minority wins of 155 at p=6.4e-5 passed: %s", c.Detail)
	}
}
