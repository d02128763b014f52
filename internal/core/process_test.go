package core

import (
	"math"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
)

func TestProcessString(t *testing.T) {
	if VertexProcess.String() != "vertex" || EdgeProcess.String() != "edge" {
		t.Error("Process.String mismatch")
	}
	if Process(9).String() != "Process(9)" {
		t.Error("unknown process string")
	}
}

func TestSchedulerRequiresMinDegree(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}})
	s := MustState(g, []int{1, 2, 3})
	if _, err := NewScheduler(s, VertexProcess); err == nil {
		t.Error("isolated vertex accepted")
	}
}

// TestVertexProcessPairDistribution verifies the paper's equation (2):
// P[v chooses w] = 1/(n·d(v)).
func TestVertexProcessPairDistribution(t *testing.T) {
	g := graph.Star(4) // centre 0 deg 3; leaves deg 1
	s := MustState(g, []int{1, 1, 1, 1})
	sched, err := NewScheduler(s, VertexProcess)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	const trials = 300000
	counts := map[[2]int]int{}
	for i := 0; i < trials; i++ {
		v, w := sched.Pair(r)
		if !g.HasEdge(v, w) {
			t.Fatalf("pair (%d,%d) not an edge", v, w)
		}
		counts[[2]int{v, w}]++
	}
	n := 4.0
	for pair, c := range counts {
		want := 1 / (n * float64(g.Degree(pair[0])))
		z := (float64(c) - want*trials) / math.Sqrt(trials*want*(1-want))
		if math.Abs(z) > 5 {
			t.Errorf("pair %v: count %d, want %.0f (z=%.1f)", pair, c, want*trials, z)
		}
	}
	// Every directed pair should appear.
	if len(counts) != int(g.DegreeSum()) {
		t.Errorf("observed %d directed pairs, want %d", len(counts), g.DegreeSum())
	}
}

// TestEdgeProcessPairDistribution verifies P[v chooses w] = 1/2m.
func TestEdgeProcessPairDistribution(t *testing.T) {
	g := graph.Star(4)
	s := MustState(g, []int{1, 1, 1, 1})
	sched, err := NewScheduler(s, EdgeProcess)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(32)
	const trials = 300000
	counts := map[[2]int]int{}
	for i := 0; i < trials; i++ {
		v, w := sched.Pair(r)
		if !g.HasEdge(v, w) {
			t.Fatalf("pair (%d,%d) not an edge", v, w)
		}
		counts[[2]int{v, w}]++
	}
	want := 1 / float64(g.DegreeSum())
	for pair, c := range counts {
		z := (float64(c) - want*trials) / math.Sqrt(trials*want*(1-want))
		if math.Abs(z) > 5 {
			t.Errorf("pair %v: count %d, want %.0f (z=%.1f)", pair, c, want*trials, z)
		}
	}
}

func TestSchedulerWeights(t *testing.T) {
	g := graph.Star(4)
	s := MustState(g, []int{2, 1, 3, 3})
	vs, err := NewScheduler(s, VertexProcess)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewScheduler(s, EdgeProcess)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Weight() != s.DegSum() {
		t.Error("vertex process weight != DegSum")
	}
	if es.Weight() != s.Sum() {
		t.Error("edge process weight != Sum")
	}
	if vs.WeightAverage() != s.WeightedAverage() {
		t.Error("vertex process average != weighted average")
	}
	if es.WeightAverage() != s.Average() {
		t.Error("edge process average != simple average")
	}
}

func TestDIVRuleSemantics(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	tests := []struct {
		name    string
		initial []int
		v, w    int
		want    int // expected opinion of v after the step
	}{
		{"increment", []int{1, 5, 3}, 0, 1, 2},
		{"decrement", []int{1, 5, 3}, 1, 0, 4},
		{"equal is no-op", []int{3, 3, 5}, 0, 1, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := MustState(g, tc.initial)
			DIV{}.Step(s, nil, tc.v, tc.w)
			if got := s.Opinion(tc.v); got != tc.want {
				t.Errorf("opinion(%d) = %d, want %d", tc.v, got, tc.want)
			}
			// Only v may change.
			for u := range tc.initial {
				if u != tc.v && s.Opinion(u) != tc.initial[u] {
					t.Errorf("vertex %d changed from %d to %d", u, tc.initial[u], s.Opinion(u))
				}
			}
		})
	}
}

func TestSignedArcSumAlwaysZero(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 50; trial++ {
		n := 5 + r.IntN(40)
		g, err := graph.ConnectedGnpSeeded(n, 0.3, r.Uint64(), 200, graph.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		s := MustState(g, UniformOpinions(n, 1+r.IntN(10), r))
		if got := SignedArcSum(s); got != 0 {
			t.Fatalf("SignedArcSum = %d on %v", got, g)
		}
	}
}

func TestVertexProcessSumDriftNonzeroOnStar(t *testing.T) {
	// Star with the centre holding the max: the centre gets pulled down
	// by every leaf interaction but leaves rise only at rate 1/n each —
	// under the vertex process the plain sum S drifts.
	g := graph.Star(5)
	s := MustState(g, []int{3, 1, 1, 1, 1})
	drift := VertexProcessSumDrift(s)
	// v=0 (deg 4): all 4 neighbours smaller → signed -4, /d(v) = -1.
	// Each leaf: centre larger → +1 each, /1 = +1, four of them.
	// Total (−1 + 4)/5 = 0.6.
	if math.Abs(drift-0.6) > 1e-12 {
		t.Errorf("drift = %v, want 0.6", drift)
	}
	// Degree-weighted drift under the vertex process is exactly 0.
	if got := SignedArcSum(s); got != 0 {
		t.Errorf("SignedArcSum = %d", got)
	}
}

func TestEdgeProcessDegSumDriftNonzeroOnStar(t *testing.T) {
	g := graph.Star(5)
	s := MustState(g, []int{3, 1, 1, 1, 1})
	drift := EdgeProcessDegSumDrift(s)
	// Arcs from centre: 4 arcs, each sign -1, weight d(0)=4 → -16.
	// Arcs from leaves: 4 arcs, sign +1, weight 1 → +4. Total -12/8.
	if math.Abs(drift-(-1.5)) > 1e-12 {
		t.Errorf("drift = %v, want -1.5", drift)
	}
}

func TestDriftZeroOnRegularGraphs(t *testing.T) {
	// On regular graphs both auxiliary drifts vanish for any opinions.
	r := rng.New(34)
	g := graph.Cycle(20)
	s := MustState(g, UniformOpinions(20, 6, r))
	if d := VertexProcessSumDrift(s); math.Abs(d) > 1e-12 {
		t.Errorf("vertex-process sum drift = %v on cycle", d)
	}
	if d := EdgeProcessDegSumDrift(s); math.Abs(d) > 1e-12 {
		t.Errorf("edge-process degsum drift = %v on cycle", d)
	}
}
