package core

import (
	"math/rand/v2"
)

// Rule is one asynchronous update applied when the scheduler selects
// the ordered pair (v, w): v is the updating vertex, w the observed
// neighbour. Rules may draw extra randomness from r (e.g. median voting
// samples a second neighbour) and may update more than one vertex
// (e.g. load balancing updates both endpoints), but every write must go
// through State.SetOpinion.
type Rule interface {
	// Name identifies the rule in reports ("div", "pull", …).
	Name() string
	// Step applies one asynchronous update for the scheduled pair.
	Step(s *State, r *rand.Rand, v, w int)
}

// PairwiseRule marks rules whose update is a pure function of the two
// scheduled opinions: Step must be equivalent to
// s.SetOpinion(v, Target(X_v, X_w)) — no extra randomness, no vertex
// but v rewritten, and agreement a fixed point (Target(x, x) == x).
// Such rules cannot change the state on a concordant draw, which is
// exactly the property the fast engine's idle-step skipping relies on
// (sparse.go); Config.Engine Fast/Auto only accelerate PairwiseRules.
type PairwiseRule interface {
	Rule
	// Target returns v's next opinion when v holding xv observes xw.
	Target(xv, xw int) int
}

// DIV is the paper's discrete incremental voting rule: on observing a
// neighbour with a different opinion, move one unit toward it
// (equation (1)):
//
//	X_v < X_w ⟹ X'_v = X_v + 1
//	X_v = X_w ⟹ X'_v = X_v
//	X_v > X_w ⟹ X'_v = X_v - 1
type DIV struct{}

// Name implements Rule.
func (DIV) Name() string { return "div" }

// Step implements Rule.
func (d DIV) Step(s *State, _ *rand.Rand, v, w int) {
	xv := int(s.opinions[v])
	if x := d.Target(xv, int(s.opinions[w])); x != xv {
		s.SetOpinion(v, x)
	}
}

// Target implements PairwiseRule.
func (DIV) Target(xv, xw int) int {
	switch {
	case xv < xw:
		return xv + 1
	case xv > xw:
		return xv - 1
	default:
		return xv
	}
}

var _ PairwiseRule = DIV{}
