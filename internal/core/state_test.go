package core

import (
	"testing"
	"testing/quick"

	"div/internal/graph"
	"div/internal/rng"
)

func TestNewStateAggregates(t *testing.T) {
	g := graph.Star(4) // centre 0 (deg 3), leaves 1..3 (deg 1); 2m = 6
	s := MustState(g, []int{2, 1, 3, 3})
	if s.Min() != 1 || s.Max() != 3 {
		t.Errorf("min/max = %d/%d, want 1/3", s.Min(), s.Max())
	}
	if s.Range() != 2 {
		t.Errorf("range = %d, want 2", s.Range())
	}
	if s.SupportSize() != 3 {
		t.Errorf("support = %d, want 3", s.SupportSize())
	}
	if s.Count(1) != 1 || s.Count(2) != 1 || s.Count(3) != 2 {
		t.Errorf("counts = %d,%d,%d", s.Count(1), s.Count(2), s.Count(3))
	}
	if s.Count(0) != 0 || s.Count(99) != 0 {
		t.Error("out-of-window counts nonzero")
	}
	if s.Sum() != 9 {
		t.Errorf("sum = %d, want 9", s.Sum())
	}
	// DegSum = 3*2 + 1*1 + 1*3 + 1*3 = 13.
	if s.DegSum() != 13 {
		t.Errorf("degSum = %d, want 13", s.DegSum())
	}
	if s.Average() != 9.0/4 {
		t.Errorf("average = %v", s.Average())
	}
	if s.WeightedAverage() != 13.0/6 {
		t.Errorf("weighted average = %v", s.WeightedAverage())
	}
	// DegreeMass(3) = deg(2) + deg(3) = 2; PiMass = 2/6.
	if s.DegreeMass(3) != 2 {
		t.Errorf("degreeMass(3) = %d, want 2", s.DegreeMass(3))
	}
	if s.PiMass(3) != 2.0/6 {
		t.Errorf("piMass(3) = %v, want 1/3", s.PiMass(3))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNewStateErrors(t *testing.T) {
	g := graph.Complete(3)
	if _, err := NewState(g, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewState(graph.MustFromEdges(0, nil), nil); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := NewState(g, []int{0, 1 << 23, 5}); err == nil {
		t.Error("absurd range accepted")
	}
}

func TestSetOpinionUpdatesAggregates(t *testing.T) {
	g := graph.Cycle(5)
	s := MustState(g, []int{1, 2, 3, 4, 5})
	s.SetOpinion(0, 2) // 1 vanishes: min advances
	if s.Min() != 2 {
		t.Errorf("min = %d, want 2", s.Min())
	}
	if s.Sum() != 16 {
		t.Errorf("sum = %d, want 16", s.Sum())
	}
	if s.SupportSize() != 4 {
		t.Errorf("support = %d, want 4", s.SupportSize())
	}
	s.SetOpinion(4, 4) // 5 vanishes: max recedes
	if s.Max() != 4 {
		t.Errorf("max = %d, want 4", s.Max())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSetOpinionNoOp(t *testing.T) {
	g := graph.Complete(3)
	s := MustState(g, []int{1, 2, 3})
	before := s.Sum()
	s.SetOpinion(1, 2)
	if s.Sum() != before || s.SupportSize() != 3 {
		t.Error("no-op SetOpinion changed aggregates")
	}
}

func TestSetOpinionPanicsOutsideRange(t *testing.T) {
	g := graph.Complete(3)
	s := MustState(g, []int{2, 3, 4})
	for _, bad := range []int{1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetOpinion to %d did not panic", bad)
				}
			}()
			s.SetOpinion(0, bad)
		}()
	}
	// After the range contracts, the old extreme becomes invalid too.
	s.SetOpinion(0, 3) // 2 vanishes, range now [3,4]
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetOpinion to vacated extreme did not panic")
			}
		}()
		s.SetOpinion(1, 2)
	}()
}

func TestConsensusDetection(t *testing.T) {
	g := graph.Complete(3)
	s := MustState(g, []int{2, 2, 3})
	if _, ok := s.Consensus(); ok {
		t.Error("premature consensus")
	}
	s.SetOpinion(2, 2)
	op, ok := s.Consensus()
	if !ok || op != 2 {
		t.Errorf("consensus = %d,%v, want 2,true", op, ok)
	}
}

func TestSupportList(t *testing.T) {
	g := graph.Complete(6)
	s := MustState(g, []int{1, 1, 3, 5, 5, 5})
	got := s.Support(nil)
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("support = %v, want %v", got, want)
		}
	}
}

func TestOpinionsCopy(t *testing.T) {
	g := graph.Complete(3)
	s := MustState(g, []int{4, 5, 6})
	ops := s.Opinions(nil)
	ops[0] = 99
	if s.Opinion(0) != 4 {
		t.Error("Opinions returned aliasing slice")
	}
	// Reuse path.
	buf := make([]int, 3)
	got := s.Opinions(buf)
	if &got[0] != &buf[0] {
		t.Error("Opinions did not reuse provided buffer")
	}
}

// TestQuickStateInvariants drives random DIV/pull-style updates through
// SetOpinion and re-derives every aggregate from scratch.
func TestQuickStateInvariants(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawK uint8, steps uint16) bool {
		n := int(rawN%30) + 2
		k := int(rawK%9) + 2
		r := rng.New(seed)
		g, err := graph.ConnectedGnpSeeded(n, 0.5, r.Uint64(), 200, graph.BuildOpts{})
		if err != nil {
			return true // skip pathological density draws
		}
		s := MustState(g, UniformOpinions(n, k, r))
		for i := 0; i < int(steps%500); i++ {
			v := r.IntN(n)
			w := g.Neighbor(v, r.IntN(g.Degree(v)))
			DIV{}.Step(s, r, v, w)
			if s.Min() < 1 || s.Max() > k {
				return false
			}
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestRangeContraction checks the paper's structural fact: the opinion
// range never widens under DIV, and extremes disappear irreversibly.
func TestRangeContraction(t *testing.T) {
	r := rng.New(21)
	g := graph.Complete(40)
	s := MustState(g, UniformOpinions(40, 7, r))
	minSeen, maxSeen := s.Min(), s.Max()
	for i := 0; i < 200000; i++ {
		v := r.IntN(40)
		w := g.Neighbor(v, r.IntN(39))
		DIV{}.Step(s, r, v, w)
		if s.Min() < minSeen {
			t.Fatalf("min widened from %d to %d at step %d", minSeen, s.Min(), i)
		}
		if s.Max() > maxSeen {
			t.Fatalf("max widened from %d to %d at step %d", maxSeen, s.Max(), i)
		}
		minSeen, maxSeen = s.Min(), s.Max()
		if s.Range() == 0 {
			break
		}
	}
}
