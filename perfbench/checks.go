package main

import (
	"fmt"
	"math"

	"div/internal/core"
)

// check is one named law verdict over a whole run.
type check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// checkReduceTrial is the per-trial predicate of a reduction run
// stopped at two adjacent opinions (Theorem 1): the stop was reached
// within the step cap, the surviving range is at most one, both
// survivors lie in [1, k], and the weighted average at the stop lies
// between them.
func checkReduceTrial(r core.Result, k int) error {
	switch {
	case r.Aborted:
		return fmt.Errorf("aborted after %d steps", r.Steps)
	case r.TwoAdjacentStep < 0:
		return fmt.Errorf("two adjacent opinions not reached within %d steps", r.Steps)
	case r.TwoAdjacentStep > r.Steps:
		return fmt.Errorf("two-adjacent step %d after the last step %d", r.TwoAdjacentStep, r.Steps)
	case r.FinalMax-r.FinalMin > 1:
		return fmt.Errorf("final range [%d,%d] wider than one", r.FinalMin, r.FinalMax)
	case r.FinalMin < 1 || r.FinalMax > k:
		return fmt.Errorf("final opinions [%d,%d] outside [1,%d]", r.FinalMin, r.FinalMax, k)
	case !(r.WeightAtTwoAdjacent >= float64(r.FinalMin) && r.WeightAtTwoAdjacent <= float64(r.FinalMax)):
		return fmt.Errorf("weighted average %v outside the survivors [%d,%d]", r.WeightAtTwoAdjacent, r.FinalMin, r.FinalMax)
	}
	return nil
}

// checkEndgameTrial is the per-trial predicate of a two-opinion final
// stage run to consensus under a step cap. A trial that stops by
// consensus must name a winner in {1, 2} that is its only surviving
// opinion; a trial that stops at the cap must have used exactly the
// cap and still hold both opinions.
func checkEndgameTrial(r core.Result, maxSteps int64) error {
	switch {
	case r.Aborted:
		return fmt.Errorf("aborted after %d steps", r.Steps)
	case r.Consensus:
		if r.Winner != 1 && r.Winner != 2 {
			return fmt.Errorf("winner %d outside {1,2}", r.Winner)
		}
		if r.FinalMin != r.Winner || r.FinalMax != r.Winner {
			return fmt.Errorf("consensus on %d but final opinions [%d,%d]", r.Winner, r.FinalMin, r.FinalMax)
		}
		if r.Steps > maxSteps {
			return fmt.Errorf("consensus after %d steps, beyond the cap %d", r.Steps, maxSteps)
		}
	default:
		if r.Steps != maxSteps {
			return fmt.Errorf("stopped without consensus after %d steps, cap %d", r.Steps, maxSteps)
		}
		if r.Winner != 0 || r.FinalMin != 1 || r.FinalMax != 2 {
			return fmt.Errorf("no consensus but winner %d, final opinions [%d,%d]", r.Winner, r.FinalMin, r.FinalMax)
		}
	}
	return nil
}

// lemma3 accumulates the drift of the weighted average over the
// reduction phase. Lemma 3 makes the weighted average a martingale, and
// the two-adjacent stop is a bounded stopping time, so by optional
// stopping E[c' − c(0)] = 0.
type lemma3 struct {
	n          int
	sum, sumSq float64
}

func (l *lemma3) add(r core.Result) {
	d := r.WeightAtTwoAdjacent - r.InitialWeightedAverage
	l.n++
	l.sum += d
	l.sumSq += d * d
}

// check passes when the mean drift lies within five standard errors
// of zero.
func (l *lemma3) check() check {
	c := check{Name: "lemma3-optional-stopping"}
	if l.n < 2 {
		c.Detail = fmt.Sprintf("%d trials: too few to test", l.n)
		return c
	}
	mean := l.sum / float64(l.n)
	variance := (l.sumSq - float64(l.n)*mean*mean) / float64(l.n-1)
	se := math.Sqrt(math.Max(variance, 0) / float64(l.n))
	z := 0.0
	if se > 0 {
		z = mean / se
	} else if mean != 0 {
		z = math.Inf(1)
	}
	c.Pass = math.Abs(z) <= 5
	c.Detail = fmt.Sprintf("mean c'-c(0) = %.3g over %d trials, z = %.2f (want |z| <= 5)", mean, l.n, z)
	return c
}

// eq3 counts minority wins in the two-opinion final stage. Eq. (3)
// gives P[2 wins] = N₂/n on a regular graph, so the count of trials
// won by the dissenters is bounded by a binomial tail.
type eq3 struct {
	pMinority                    float64
	trials, consensus, minorWins int
}

func (e *eq3) add(r core.Result) {
	e.trials++
	if r.Consensus {
		e.consensus++
		if r.Winner == 2 {
			e.minorWins++
		}
	}
}

// eq3Alpha is the chance a correct engine fails the minority-win bound.
const eq3Alpha = 1e-6

func (e *eq3) check() check {
	bound := binomialUpper(e.consensus, e.pMinority, eq3Alpha)
	return check{
		Name: "eq3-minority-wins",
		Pass: e.minorWins <= bound,
		Detail: fmt.Sprintf("opinion 2 won %d of %d consensus trials (%d capped); P[2 wins] = %.3g allows at most %d at alpha %.0e",
			e.minorWins, e.consensus, e.trials-e.consensus, e.pMinority, bound, eq3Alpha),
	}
}
