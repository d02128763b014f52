package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
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
	// Opinions outside int32 are rejected before the window is
	// measured: narrowed, they would wrap (3e9 reads as −1294967296),
	// and MaxInt64 − MinInt64 overflows the width.
	c4 := graph.Cycle(4)
	for _, op := range [][]int{
		{3e9, 3e9 + 1, 3e9, 3e9 + 1},
		{1 << 31, 1<<31 - 1, 1 << 31, 1<<31 - 1},
		{math.MinInt64, math.MaxInt64, 0, 0},
		{math.MinInt32 - 1, math.MinInt32, 0, 0},
	} {
		if _, err := NewState(c4, op); err == nil {
			t.Errorf("opinions %v outside int32 accepted", op)
		}
	}
	// The int32 extremes themselves fit.
	for _, op := range [][]int{
		{math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32, math.MaxInt32 - 1},
		{math.MinInt32, math.MinInt32 + 1, math.MinInt32, math.MinInt32 + 1},
	} {
		s, err := NewState(c4, op)
		if err != nil {
			t.Fatalf("opinions %v: %v", op, err)
		}
		if s.Min() != min(op[0], op[1]) || s.Max() != max(op[0], op[1]) {
			t.Errorf("opinions %v: min/max = %d/%d", op, s.Min(), s.Max())
		}
		if want := 2 * int64(op[0]+op[1]); s.Sum() != want {
			t.Errorf("opinions %v: sum = %d, want %d", op, s.Sum(), want)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("opinions %v: %v", op, err)
		}
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

// TestResetToFromDirtyState pins ResetTo's reuse paths: on every
// backend path (CSR regular and irregular, implicit torus and
// HashedRegular) and both representations, a State reset after a run
// of updates must match a freshly built State and a from-scratch
// recount in every aggregate. The resets take the one-pass path (the
// same window twice; a narrower or a wider window of at most 256 at
// the same base; an int32 window that starts one above the held base)
// and miss it: a compact window whose minimum moves one up, any window
// whose minimum moves one down, an int32 window of 257 after one of
// exactly 256 at the same base, and every reset after a window wider
// than 256, which makes no guess. The windows cover 1, 2, 3, 8, 200,
// 256 and 257 opinions and, for int32, 1000 (the wide histogram), so
// the count arrays both shrink and grow. n = 301 and 302 leave a tail
// after the four-vertex groups.
func TestResetToFromDirtyState(t *testing.T) {
	const n = 301
	rr, err := graph.RandomRegularSeeded(n+1, 4, 0x7e5e1, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := graph.NewHashedRegular(n+1, 4, 0x7e5e2)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := graph.NewImplicitTorus(7, 43)
	if err != nil {
		t.Fatal(err)
	}
	// Each reset's window is [base, base+w−1].
	resets := []struct{ w, base int }{
		{8, -3}, {8, -3}, {3, -3}, {200, -3}, // fresh, then three one-pass hits
		{8, -2}, {8, -3}, // min one up, min one down
		{256, -3}, {257, -3}, // exactly 256, then 257 (int32 only)
		{2, 7}, {1000, -5}, {8, 0}, {1, 0}, {2, 1}, // after a wide window; shifts
	}
	for _, tc := range []struct {
		name string
		topo graph.Topology
	}{
		{"csr-rr", rr}, {"csr-star", graph.Star(n)}, {"csr-caterpillar", primeCaterpillar()},
		{"torus", torus}, {"hashedregular", hashed},
	} {
		for _, compact := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compact=%v", tc.name, compact), func(t *testing.T) {
				topo := tc.topo
				r := rng.New(rng.DeriveSeed(0x7e5e3, uint64(topo.N())))
				var s *State
				for step, rs := range resets {
					if compact && rs.w > 256 {
						continue
					}
					op := windowProfile(topo.N(), rs.w, rs.base, r)
					if s == nil {
						s = newTopoState(t, topo, compact, op)
					} else if err := s.ResetTo(op); err != nil {
						t.Fatalf("window %d at %d: %v", rs.w, rs.base, err)
					}
					label := fmt.Sprintf("window %d at %d (reset %d)", rs.w, rs.base, step)
					checkResetState(t, s, newTopoState(t, topo, compact, op), op, label)
					for i := 0; i < 100 && s.Range() > 0; i++ {
						s.SetOpinion(r.IntN(s.N()), s.Min()+r.IntN(s.Range()+1))
					}
				}
			})
		}
	}
}

// TestResetToRejectsOnWarmState pins ResetTo's range errors on a warm
// State: a profile outside int32, one wider than 2²² and, for the
// compact row, one wider than 256 must each fail with NewState's error
// on the same profile, also when every opinion lies within 256 of the
// held base (the one-pass guess), the int32 case included. After the
// error the State is unusable until the next successful ResetTo, which
// must restore it exactly.
func TestResetToRejectsOnWarmState(t *testing.T) {
	const n = 302
	rr, err := graph.RandomRegularSeeded(n, 4, 0x7e5e4, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := graph.NewHashedRegular(n, 4, 0x7e5e5)
	if err != nil {
		t.Fatal(err)
	}
	top := math.MaxInt32 - 3
	for _, tc := range []struct {
		name string
		topo graph.Topology
	}{{"csr-rr", rr}, {"csr-caterpillar", primeCaterpillar()}, {"hashedregular", hashed}} {
		for _, compact := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compact=%v", tc.name, compact), func(t *testing.T) {
				topo := tc.topo
				r := rng.New(rng.DeriveSeed(0x7e5e6, uint64(topo.N())))
				rejects := []struct {
					name     string
					warm, op []int
				}{
					{"outside int32", windowProfile(topo.N(), 2, -1, r), windowProfile(topo.N(), 2, 3e9, r)},
					{"outside int32 within 256 of the base", windowProfile(topo.N(), 3, top, r), windowProfile(topo.N(), 5, top, r)},
					{"wider than 2^22", windowProfile(topo.N(), 8, 0, r), windowProfile(topo.N(), 1<<22+1, 0, r)},
				}
				if compact {
					rejects = append(rejects, struct {
						name     string
						warm, op []int
					}{"wider than 256", windowProfile(topo.N(), 256, -7, r), windowProfile(topo.N(), 257, -7, r)})
				}
				for _, rj := range rejects {
					s := newTopoState(t, topo, compact, rj.warm)
					_, want := topoState(topo, compact, rj.op)
					if want == nil {
						t.Fatalf("%s: NewState accepted the profile", rj.name)
					}
					if err := s.ResetTo(rj.op); err == nil || err.Error() != want.Error() {
						t.Fatalf("%s: warm ResetTo error %v, want %v", rj.name, err, want)
					}
					op := windowProfile(topo.N(), 4, rj.warm[0], r)
					if err := s.ResetTo(op); err != nil {
						t.Fatalf("%s: ResetTo after the error: %v", rj.name, err)
					}
					checkResetState(t, s, newTopoState(t, topo, compact, op), op, rj.name+", then a valid profile")
				}
			})
		}
	}
}

// TestDiscordantEdgesCSRRecount pins the O(m) recount on CSR graphs,
// which walks each vertex's adjacency slice, against the Topology
// interface walk on the same graph, on regular and irregular graphs
// with int32 and compact opinions.
func TestDiscordantEdgesCSRRecount(t *testing.T) {
	rr, err := graph.RandomRegularSeeded(200, 6, 0x7e5e7, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{rr, graph.Star(50), primeCaterpillar(), graph.Path(9)} {
		for _, compact := range []bool{false, true} {
			r := rng.New(rng.DeriveSeed(0x7e5e8, uint64(g.N())))
			for _, k := range []int{1, 2, 5} {
				op := UniformOpinions(g.N(), k, r)
				got := newTopoState(t, g, compact, op).DiscordantEdges()
				// Hiding the *graph.Graph sends the count through the
				// Topology interface.
				want := newTopoState(t, struct{ graph.Topology }{g}, compact, op).DiscordantEdges()
				if got != want {
					t.Errorf("%v compact=%v k=%d: CSR recount %d, Topology walk %d", g, compact, k, got, want)
				}
				if k > 1 && want == 0 {
					t.Errorf("%v compact=%v k=%d: no discordant edge to count", g, compact, k)
				}
			}
		}
	}
}

// windowProfile returns n opinions spanning exactly [base, base+w−1]:
// a dominant opinion at base+w/2 with every fifth vertex spread over
// the window, and both ends held.
func windowProfile(n, w, base int, r *rand.Rand) []int {
	op := make([]int, n)
	for v := range op {
		op[v] = base + w/2
		if v%5 == 0 {
			op[v] = base + r.IntN(w)
		}
	}
	op[0], op[n-1] = base, base+w-1
	return op
}

// checkResetState asserts that s, reset to op, equals fresh (a State
// built on op) and a recount of op in every aggregate.
func checkResetState(t *testing.T, s, fresh *State, op []int, label string) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	topo := s.Topology()
	lo, hi := slices.Min(op), slices.Max(op)
	count := make([]int64, hi-lo+1)
	mass := make([]int64, hi-lo+1)
	var sum, degSum int64
	for v, x := range op {
		d := int64(topo.Degree(v))
		count[x-lo]++
		mass[x-lo] += d
		sum += int64(x)
		degSum += d * int64(x)
	}
	for _, st := range []struct {
		name string
		s    *State
	}{{"reset", s}, {"fresh", fresh}} {
		got := st.s
		if got.Min() != lo || got.Max() != hi {
			t.Fatalf("%s %s: min/max = %d/%d, want %d/%d", label, st.name, got.Min(), got.Max(), lo, hi)
		}
		if got.Sum() != sum || got.DegSum() != degSum {
			t.Fatalf("%s %s: sum/degSum = %d/%d, want %d/%d", label, st.name, got.Sum(), got.DegSum(), sum, degSum)
		}
		support := 0
		for x := lo - 1; x <= hi+1; x++ {
			var c, m int64
			if x >= lo && x <= hi {
				c, m = count[x-lo], mass[x-lo]
			}
			if got.Count(x) != c || got.DegreeMass(x) != m {
				t.Fatalf("%s %s: opinion %d count/mass = %d/%d, want %d/%d",
					label, st.name, x, got.Count(x), got.DegreeMass(x), c, m)
			}
			support += b2i(c > 0)
		}
		if got.SupportSize() != support || len(got.Support(nil)) != support {
			t.Fatalf("%s %s: support = %d (%v), want %d", label, st.name, got.SupportSize(), got.Support(nil), support)
		}
		if got.Steps() != 0 || got.SupportVersion() != 0 {
			t.Fatalf("%s %s: steps/support version = %d/%d, want 0/0", label, st.name, got.Steps(), got.SupportVersion())
		}
		if !slices.Equal(got.Opinions(nil), op) {
			t.Fatalf("%s %s: opinions differ from the profile", label, st.name)
		}
	}
}
