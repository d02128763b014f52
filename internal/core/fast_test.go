package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
)

func TestGeomSkipDistribution(t *testing.T) {
	r := rng.New(11)
	// p = 1/4: mean skip (1-p)/p = 3.
	const trials = 200000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(geomSkip(r, 1, 4, 1<<40))
	}
	mean := sum / trials
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Geom(1/4) empirical mean %.4f, want ≈ 3", mean)
	}
	// p = 1 always returns 0; the limit truncates the tail.
	for i := 0; i < 100; i++ {
		if k := geomSkip(r, 7, 7, 100); k != 0 {
			t.Fatalf("geomSkip(p=1) = %d", k)
		}
		if k := geomSkip(r, 1, 1<<50, 5); k != 5 {
			t.Fatalf("geomSkip(p≈0, limit=5) = %d, want 5", k)
		}
	}
}

// testGraphs returns the small families used by the bookkeeping and
// equivalence tests: one from each structural class in the paper.
func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rr, err := graph.RandomRegular(16, 4, rng.New(0xfa))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path":     graph.Path(9),
		"cycle":    graph.Cycle(12),
		"complete": graph.Complete(8),
		"regular":  rr,
	}
}

// bookkeepingGraphs extends testGraphs with irregular CSR families —
// a star and a star with a tail — so the degree-bucketed edge sampler
// and the vertex process's lcm units are exercised on the CSR path.
func bookkeepingGraphs(t testing.TB) map[string]*graph.Graph {
	gs := testGraphs(t)
	gs["star"] = graph.Star(9)
	gs["startail"] = graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
	})
	return gs
}

// TestSparseStateBookkeeping is the property test for the incremental
// discordance accounting on CSR graphs: after every opinion update,
// recomputing the discordant-vertex set, its buckets, and the active
// mass from scratch must match the incrementally maintained values, on
// every family and both processes.
func TestSparseStateBookkeeping(t *testing.T) {
	for name, g := range bookkeepingGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			r := rng.New(rng.DeriveSeed(0xb00c, uint64(g.N())+uint64(proc)))
			s := MustState(g, UniformOpinions(g.N(), 4, r))
			sp, err := NewSparseState(s, proc)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, proc, err)
			}
			if err := sp.CheckSparse(); err != nil {
				t.Fatalf("%s/%v after build: %v", name, proc, err)
			}
			for step := 0; step < 400; step++ {
				// A random in-range move of a random vertex, mimicking any
				// range-contracting rule (including no-ops).
				v := r.IntN(g.N())
				x := s.Min() + r.IntN(s.Range()+1)
				sp.SetOpinion(v, x)
				if err := sp.CheckSparse(); err != nil {
					t.Fatalf("%s/%v step %d (v=%d x=%d): %v", name, proc, step, v, x, err)
				}
			}
		}
	}
}

// TestFastSampleDiscordantExact verifies the conditional pair law on a
// small fixed CSR configuration: the exact rational active mass for
// both processes, and the sampled pair frequencies against the
// closed-form conditional law — uniform over discordant arcs for the
// edge process, ∝ 1/d(v) for the vertex process (exercising the
// rejection on d(v), since the graph is irregular).
func TestFastSampleDiscordantExact(t *testing.T) {
	// Star-with-tail: degrees differ so the vertex process weights are
	// non-uniform. Vertices: 0 center of star {1,2,3}, tail 3-4.
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 3, V: 4}})
	init := []int{1, 2, 1, 2, 2}
	// Discordant arcs: (0,1),(1,0),(0,3),(3,0) — vertices 2,4 agree with
	// every neighbour.
	s := MustState(g, init)
	sp, err := NewSparseState(s, VertexProcess)
	if err != nil {
		t.Fatal(err)
	}
	// d(0)=3, d(1)=1, d(3)=2 ⇒ L = lcm(3,1,2,1) = 6; the numerator sums
	// L/d(tail) over discordant arcs: (0,1):2 + (1,0):6 + (0,3):2 +
	// (3,0):3 = 13 over den 5·6.
	num, den := sp.ActiveMass()
	if num != 13 || den != 30 {
		t.Fatalf("vertex ActiveMass = %d/%d, want 13/30", num, den)
	}

	se, err := NewSparseState(s, EdgeProcess)
	if err != nil {
		t.Fatal(err)
	}
	num, den = se.ActiveMass()
	if num != 4 || den != 8 {
		t.Fatalf("edge ActiveMass = %d/%d, want 4/8", num, den)
	}

	// Empirical conditional law. Vertex process: P[(v,w)] ∝ 1/d(v),
	// normalizer 13/6 ⇒ (0,1): 2/13, (1,0): 6/13, (0,3): 2/13,
	// (3,0): 3/13. Edge process: each discordant arc 1/4.
	wantVertex := map[[2]int]float64{
		{0, 1}: 2.0 / 13, {1, 0}: 6.0 / 13, {0, 3}: 2.0 / 13, {3, 0}: 3.0 / 13,
	}
	wantEdge := map[[2]int]float64{
		{0, 1}: 0.25, {1, 0}: 0.25, {0, 3}: 0.25, {3, 0}: 0.25,
	}
	const samples = 200000
	for name, tc := range map[string]struct {
		sp   *SparseState
		want map[[2]int]float64
	}{"vertex": {sp, wantVertex}, "edge": {se, wantEdge}} {
		r := rng.New(rng.DeriveSeed(0xd15c, uint64(len(name))))
		got := map[[2]int]int{}
		for i := 0; i < samples; i++ {
			v, w := tc.sp.sampleDiscordant(r)
			got[[2]int{v, w}]++
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: sampled %d distinct pairs, want %d (%v)", name, len(got), len(tc.want), got)
		}
		for pair, p := range tc.want {
			emp := float64(got[pair]) / samples
			if math.Abs(emp-p) > 0.005 { // ~4.5σ at 200k samples
				t.Errorf("%s: P[%v] = %.4f, want %.4f", name, pair, emp, p)
			}
		}
	}
}

// TestSparseDegreeLcm: on an irregular topology the vertex process's
// units L/d(v) are exact integers with L the lcm of the distinct
// degrees and den = n·L; on a regular topology, and for the edge
// process, every unit is 1 and den = 2m.
func TestSparseDegreeLcm(t *testing.T) {
	for name, g := range bookkeepingGraphs(t) {
		s := MustState(g, UniformOpinions(g.N(), 3, rng.New(7)))
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			sp, err := NewSparseState(s, proc)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, proc, err)
			}
			if proc == EdgeProcess || g.IsRegular() {
				if sp.lcm != 0 || sp.den != g.DegreeSum() {
					t.Errorf("%s/%v: lcm=%d den=%d, want unit weights over 2m=%d", name, proc, sp.lcm, sp.den, g.DegreeSum())
				}
				continue
			}
			want := int64(1)
			for v := 0; v < g.N(); v++ {
				d := int64(g.Degree(v))
				want = want / gcd64(want, d) * d
			}
			if sp.lcm != want || sp.den != int64(g.N())*want {
				t.Errorf("%s/%v: lcm=%d den=%d, want lcm %d den %d", name, proc, sp.lcm, sp.den, want, int64(g.N())*want)
			}
			for v := 0; v < g.N(); v++ {
				if sp.lcm%int64(g.Degree(v)) != 0 {
					t.Errorf("%s: L=%d not divisible by d(%d)=%d", name, sp.lcm, v, g.Degree(v))
				}
			}
		}
	}
}

// TestSparseDegreeLcmOverflow: the prime-degree caterpillar pushes the
// degree lcm over the cap. The vertex process must refuse to build a
// SparseState rather than wrap, while the edge process builds with unit
// weights (lcm 0, every unit 1, den = 2m).
func TestSparseDegreeLcmOverflow(t *testing.T) {
	g := primeCaterpillar()
	s := MustState(g, UniformOpinions(g.N(), 3, rng.New(5)))
	if sp, err := NewSparseState(s, VertexProcess); err == nil || sp != nil {
		t.Errorf("vertex process accepted a degree-lcm overflow: sp=%v err=%v", sp != nil, err)
	}
	sp, err := NewSparseState(s, EdgeProcess)
	if err != nil {
		t.Fatalf("edge process rejected the irregular graph: %v", err)
	}
	if sp.lcm != 0 || sp.den != g.DegreeSum() {
		t.Errorf("edge process: lcm=%d den=%d, want unit weights over 2m=%d", sp.lcm, sp.den, g.DegreeSum())
	}
}

// TestSparseDegreeLcmOverflowCirculant: the overflow fallback on a
// materialized implicit circulant whose pendant chains push a prefix of
// its vertices to distinct prime degrees with an lcm above the cap. The
// vertex process must refuse to build, the edge process (unit weights)
// must build, and the pure circulant must stay at unit weights.
func TestSparseDegreeLcmOverflowCirculant(t *testing.T) {
	topo, err := graph.NewImplicitCirculant(16, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	base := graph.MustMaterialize(topo)
	// lcm(4, 5, 7, 11, …, 47) > 2^30: every circulant vertex starts at
	// degree 4; pendants raise vertex i to primes[i].
	primes := []int{5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
	edges := base.Edges()
	next := base.N()
	for i, want := range primes {
		for have := base.Degree(i); have < want; have++ {
			edges = append(edges, graph.Edge{U: i, V: next})
			next++
		}
	}
	g := graph.MustFromEdges(next, edges)
	s := MustState(g, UniformOpinions(g.N(), 3, rng.New(5)))
	if _, err := NewSparseState(s, VertexProcess); err == nil {
		t.Error("vertex process accepted a degree-lcm overflow")
	}
	if _, err := NewSparseState(s, EdgeProcess); err != nil {
		t.Errorf("edge process rejected the irregular graph: %v", err)
	}
	sb := MustState(base, UniformOpinions(base.N(), 3, rng.New(5)))
	sp, err := NewSparseState(sb, VertexProcess)
	if err != nil {
		t.Fatal(err)
	}
	if sp.lcm != 0 || sp.den != base.DegreeSum() {
		t.Errorf("circulant: lcm=%d den=%d, want unit weights over %d", sp.lcm, sp.den, base.DegreeSum())
	}
}

// TestSparseBucketBounds: the edge process on an irregular topology
// files each member under b = ⌈log2 d(v)⌉, whose draw bound 2^b lies in
// [d(v), 2d(v)), so a round accepts with probability above
// diff(v)/2d(v); every other configuration uses one list.
func TestSparseBucketBounds(t *testing.T) {
	for name, g := range bookkeepingGraphs(t) {
		s := MustState(g, UniformOpinions(g.N(), 2, rng.New(3)))
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			sp, err := NewSparseState(s, proc)
			if err != nil {
				t.Fatal(err)
			}
			if proc == VertexProcess || g.IsRegular() {
				if sp.fixed < 0 {
					t.Errorf("%s/%v: members filed by degree, want one list", name, proc)
				}
				continue
			}
			if sp.fixed >= 0 {
				t.Fatalf("%s/%v: one list, want degree buckets", name, proc)
			}
			for v := 0; v < g.N(); v++ {
				d := g.Degree(v)
				b := sp.bucket(v)
				if bound := 1 << b; bound < d || bound >= 2*d {
					t.Errorf("%s: bound 2^%d outside [d, 2d) for d(%d)=%d", name, b, v, d)
				}
			}
		}
	}
}

func TestFastRunReachesConsensus(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			r := rng.New(rng.DeriveSeed(0xfa57, uint64(g.N())*3+uint64(proc)))
			res, err := Run(Config{
				Graph:   g,
				Initial: UniformOpinions(g.N(), 4, r),
				Process: proc,
				Engine:  EngineFast,
				Seed:    9,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, proc, err)
			}
			if !res.Consensus {
				t.Fatalf("%s/%v: no consensus after %d steps", name, proc, res.Steps)
			}
			if res.Winner < 1 || res.Winner > 4 {
				t.Errorf("%s/%v: winner %d outside initial range", name, proc, res.Winner)
			}
			if res.TwoAdjacentStep < 0 || res.TwoAdjacentStep > res.Steps {
				t.Errorf("%s/%v: TwoAdjacentStep %d vs steps %d", name, proc, res.TwoAdjacentStep, res.Steps)
			}
			if res.ThreeStep < 0 || res.ThreeStep > res.TwoAdjacentStep {
				t.Errorf("%s/%v: ThreeStep %d > TwoAdjacentStep %d", name, proc, res.ThreeStep, res.TwoAdjacentStep)
			}
			if res.FinalMin != res.Winner || res.FinalMax != res.Winner {
				t.Errorf("%s/%v: final range [%d,%d] at consensus %d", name, proc, res.FinalMin, res.FinalMax, res.Winner)
			}
		}
	}
}

// TestFastIdleJump: a run started at consensus under UntilMaxSteps has
// active probability zero; the fast engine must still account for every
// idle step and report exactly MaxSteps, like the naive engine.
func TestFastIdleJump(t *testing.T) {
	g := graph.Cycle(10)
	init := make([]int, 10)
	for i := range init {
		init[i] = 3
	}
	for _, engine := range []Engine{EngineNaive, EngineFast} {
		res, err := Run(Config{
			Graph:    g,
			Initial:  init,
			Engine:   engine,
			Stop:     UntilMaxSteps,
			MaxSteps: 12345,
			Seed:     4,
		})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if res.Steps != 12345 {
			t.Errorf("%v: steps %d, want 12345", engine, res.Steps)
		}
		if !res.Consensus || res.Winner != 3 {
			t.Errorf("%v: consensus %v winner %d", engine, res.Consensus, res.Winner)
		}
	}
}

// TestFastObserverBoundaries: the fast engine must invoke the observer
// at exactly the naive engine's call sites — step 0 and every multiple
// of ObserveEvery up to the stopping step — even when those multiples
// fall inside skipped idle stretches.
func TestFastObserverBoundaries(t *testing.T) {
	g := graph.Cycle(12)
	r := rng.New(21)
	init := UniformOpinions(12, 3, r)
	const every = 7
	for _, engine := range []Engine{EngineNaive, EngineFast} {
		var seen []int64
		res, err := Run(Config{
			Graph:        g,
			Initial:      init,
			Engine:       engine,
			Seed:         31,
			ObserveEvery: every,
			Observer: func(s *State) bool {
				seen = append(seen, s.Steps())
				return true
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if len(seen) == 0 || seen[0] != 0 {
			t.Fatalf("%v: observer not called at step 0: %v", engine, seen)
		}
		for i, st := range seen[1:] {
			if want := int64(every) * int64(i+1); st != want {
				t.Fatalf("%v: observation %d at step %d, want %d (full sequence %v)", engine, i+1, st, want, seen)
			}
		}
		if last := seen[len(seen)-1]; last > res.Steps || res.Steps-last >= every {
			t.Errorf("%v: last observation at %d inconsistent with stopping step %d", engine, last, res.Steps)
		}
	}
}

// TestFastObserverAbort: aborting from an observer stops both engines
// at exactly the observed step.
func TestFastObserverAbort(t *testing.T) {
	g := graph.Cycle(16)
	r := rng.New(5)
	init := UniformOpinions(16, 4, r)
	for _, engine := range []Engine{EngineNaive, EngineFast} {
		calls := 0
		res, err := Run(Config{
			Graph:        g,
			Initial:      init,
			Engine:       engine,
			Seed:         6,
			Stop:         UntilMaxSteps,
			MaxSteps:     1 << 40,
			ObserveEvery: 11,
			Observer: func(s *State) bool {
				calls++
				return calls <= 3 // abort on the 4th call (step 33)
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if !res.Aborted {
			t.Fatalf("%v: not aborted", engine)
		}
		if res.Steps != 33 {
			t.Errorf("%v: aborted at step %d, want 33", engine, res.Steps)
		}
	}
}

func TestFastRejectsNonPairwise(t *testing.T) {
	var rule Rule = nonPairwise{}
	g := graph.Cycle(8)
	r := rng.New(1)
	_, err := Run(Config{
		Graph:   g,
		Initial: UniformOpinions(8, 3, r),
		Rule:    rule,
		Engine:  EngineFast,
		Seed:    2,
	})
	if err == nil {
		t.Fatal("fast engine accepted a non-pairwise rule")
	}
	// Auto must silently fall back instead.
	res, err := Run(Config{
		Graph:   g,
		Initial: UniformOpinions(8, 3, r),
		Rule:    rule,
		Engine:  EngineAuto,
		Seed:    3,
	})
	if err != nil {
		t.Fatalf("auto engine: %v", err)
	}
	if !res.Consensus {
		t.Errorf("auto fallback did not reach consensus (steps %d)", res.Steps)
	}
}

type nonPairwise struct{}

func (nonPairwise) Name() string { return "non-pairwise" }
func (nonPairwise) Step(s *State, r *rand.Rand, v, w int) {
	DIV{}.Step(s, r, v, w)
}

func TestEngineParseAndString(t *testing.T) {
	cases := map[string]Engine{"naive": EngineNaive, "Fast": EngineFast, " AUTO ": EngineAuto}
	for in, want := range cases {
		got, err := ParseEngine(in)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("ParseEngine accepted junk")
	}
	if EngineNaive.String() != "naive" || EngineFast.String() != "fast" || EngineAuto.String() != "auto" {
		t.Error("Engine.String wrong")
	}
	if _, err := Run(Config{Graph: graph.Cycle(4), Initial: []int{1, 1, 2, 2}, Engine: Engine(99)}); err == nil {
		t.Error("unknown engine value accepted")
	}
}

// TestAutoHeuristic: the hybrid cost model must price a fast active
// step much higher on dense graphs than on sparse ones (so Auto only
// enters skip-sampling on K_n when discordance is truly microscopic),
// and the hybrid loop must keep exact step accounting across the
// naive→fast transition: from a consensus start every draw is idle, so
// Auto first measures a silent window naively, then jumps, and an
// UntilMaxSteps run must still report exactly MaxSteps.
func TestAutoHeuristic(t *testing.T) {
	dense := hybridCostUnits(graph.Complete(100))
	rr, err := graph.RandomRegular(128, 4, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	sparse := hybridCostUnits(rr)
	if dense < 30 || dense > 45 {
		t.Errorf("K_100 cost units = %d, want ≈ d̄/3 + 4 = 37", dense)
	}
	if sparse < 4 || sparse > 6 {
		t.Errorf("RR(128,4) cost units = %d, want ≈ 5", sparse)
	}

	init := make([]int, rr.N()) // consensus from the start: all draws idle
	for i := range init {
		init[i] = 3
	}
	const maxSteps = 3*4096 + 1234 // not a multiple of the naive window
	res, err := Run(Config{
		Graph:    rr,
		Initial:  init,
		Engine:   EngineAuto,
		Seed:     9,
		Stop:     UntilMaxSteps,
		MaxSteps: maxSteps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != maxSteps {
		t.Errorf("auto UntilMaxSteps ran %d steps, want %d", res.Steps, maxSteps)
	}
	if !res.Consensus || res.Winner != 3 {
		t.Errorf("auto lost consensus: %+v", res)
	}
}

// primeCaterpillar is a caterpillar whose spine vertices have many
// distinct prime-ish degrees: lcm(3,5,7,11,13,17,19,23,29,31,37,41,43,47)
// > 2^30, so the vertex process's exact integer scaling overflows.
func primeCaterpillar() *graph.Graph {
	primes := []int{3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
	var edges []graph.Edge
	next := len(primes)
	for i := range primes {
		if i > 0 {
			edges = append(edges, graph.Edge{U: i - 1, V: i})
		}
		want := primes[i]
		have := 0
		if i > 0 {
			have++
		}
		if i < len(primes)-1 {
			have++ // the spine edge to i+1, added next iteration
		}
		for have < want {
			edges = append(edges, graph.Edge{U: i, V: next})
			next++
			have++
		}
	}
	return graph.MustFromEdges(next, edges)
}

// TestFastDegreeLcmOverflow: wildly irregular degree sets overflow the
// vertex process's exact integer scaling; EngineFast must error and
// EngineAuto must fall back, while the edge process (unit weights)
// accepts the same graph.
func TestFastDegreeLcmOverflow(t *testing.T) {
	g := primeCaterpillar()
	r := rng.New(3)
	init := UniformOpinions(g.N(), 3, r)
	if _, err := Run(Config{Graph: g, Initial: init, Engine: EngineFast, Seed: 4, Process: VertexProcess}); err == nil {
		t.Error("fast engine accepted a degree-lcm overflow")
	}
	res, err := Run(Config{Graph: g, Initial: init, Engine: EngineAuto, Seed: 4, Process: VertexProcess})
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if !res.Consensus {
		t.Errorf("auto fallback did not reach consensus (steps %d)", res.Steps)
	}
	// The edge process needs no scaling and must accept the same graph.
	if _, err := Run(Config{Graph: g, Initial: init, Engine: EngineFast, Seed: 4, Process: EdgeProcess}); err != nil {
		t.Errorf("edge process rejected irregular graph: %v", err)
	}
}
