package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"div/internal/graph"
	"div/internal/obs"
	"div/internal/stats"
)

// This file pins the sparse endgame engine's contract (sparse.go):
//
//  1. Law: hand-off trajectories (EngineAuto) and all-sparse
//     trajectories (EngineFast) realize the same winner and
//     stopping-time distributions as EngineNaive across the implicit
//     families and both processes, under the α = 0.001 χ²/KS standard.
//     Unlike the blocked-backend identity tests, the bar here is
//     distribution-equivalence: skip-sampling consumes the stream
//     differently by construction.
//  2. Exact conditional sampling: sampleDiscordant realizes the
//     process's active-pair law (∝ 1/d(v) per discordant arc for the
//     vertex process, uniform over discordant arcs for the edge
//     process) on an irregular-degree topology.
//  3. Swap-delete set invariants: membership == actual discordance and
//     all aggregates stay consistent after every local update, checked
//     deterministically and under fuzzing.

// sparseTopoCases are the implicit families the equivalence arm sweeps:
// regular and irregular (torus corners are regular but cycle/circulant
// differ in degree; hashedregular is the multigraph case).
func sparseTopoCases(t testing.TB) []topoCase {
	t.Helper()
	mk := func(name string, topo graph.Topology, err error) topoCase {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return topoCase{name: name, topo: topo}
	}
	cycle, errCy := graph.NewImplicitCycle(48)
	torus, errT := graph.NewImplicitTorus(6, 8)
	circ, errR := graph.NewImplicitCirculant(48, []int{1, 2, 3})
	hashed, errH := graph.NewHashedRegular(64, 4, 0x5a5a)
	return []topoCase{
		mk("cycle", cycle, errCy),
		mk("torus", torus, errT),
		mk("circulant", circ, errR),
		mk("hashedregular", hashed, errH),
	}
}

// gatherTopoBlockEngine is gatherTopoBlock with the engine as a
// parameter, for arms that retire to the sparse engine.
func gatherTopoBlockEngine(t *testing.T, topo graph.Topology, compact bool, proc Process, engine Engine, baseSeed uint64, trials int) eqSample {
	t.Helper()
	out := runTopoBlock(t, topo, compact, proc, engine, 3, baseSeed, trials, 0)
	sm := eqSample{
		winners: make([]int, trials),
		steps:   make([]float64, trials),
		twoAdj:  make([]float64, trials),
	}
	for i, r := range out {
		if !r.Consensus {
			t.Fatalf("trial %d did not reach consensus", i)
		}
		sm.winners[i] = r.Winner
		sm.steps[i] = float64(r.Steps)
		sm.twoAdj[i] = float64(r.TwoAdjacentStep)
	}
	return sm
}

// TestSparseDistributionEquivalence is the acceptance arm for the
// sparse engine's law: on every implicit family × process, EngineAuto
// (blocked stepping with a sparse endgame hand-off) and EngineFast
// (all-sparse from step 0, the harshest test — the set starts dense)
// must match EngineNaive's winner χ² and stopping-time KS statistics
// under independent seeds. hybridWindow is shrunk so Auto actually
// hands off at these sizes.
func TestSparseDistributionEquivalence(t *testing.T) {
	trials := eqTrials(t)
	oldWindow, oldRatio := hybridWindow, hybridCostRatio
	hybridWindow, hybridCostRatio = 64, 1
	defer func() { hybridWindow, hybridCostRatio = oldWindow, oldRatio }()
	for _, tc := range sparseTopoCases(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, proc), func(t *testing.T) {
				naive := gatherTopoBlockEngine(t, tc.topo, true, proc, EngineNaive, 0xa11ce, trials)
				for _, arm := range []struct {
					label  string
					engine Engine
					seed   uint64
				}{
					{"auto", EngineAuto, 0xb0b57}, {"fast", EngineFast, 0xcafe},
				} {
					sparse := gatherTopoBlockEngine(t, tc.topo, true, proc, arm.engine, arm.seed, trials)
					if stat, df := chi2TwoSample(naive.winners, sparse.winners); df > 0 && stat > chi2Crit001[df] {
						t.Errorf("%s winner χ²(%d) = %.2f > %.2f (α=0.001): sparse disagrees with naive", arm.label, df, stat, chi2Crit001[df])
					}
					ksCrit := ks2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))
					for _, series := range []struct {
						label  string
						na, sp []float64
					}{
						{"consensus steps", naive.steps, sparse.steps},
						{"two-adjacent step", naive.twoAdj, sparse.twoAdj},
					} {
						d, err := stats.KS2Sample(series.na, series.sp)
						if err != nil {
							t.Fatal(err)
						}
						if d > ksCrit {
							t.Errorf("%s/%s KS distance %.4f > %.4f (α=0.001): sparse disagrees with naive", arm.label, series.label, d, ksCrit)
						}
					}
				}
			})
		}
	}
}

// sparseFixture builds a State over topo (int32 representation; CSR
// when topo is a *graph.Graph) with the given opinions and a seeded
// SparseState on it.
func sparseFixture(t testing.TB, topo graph.Topology, proc Process, opinions []int) (*State, *SparseState) {
	t.Helper()
	s := newTopoState(t, topo, false, opinions)
	sp, err := NewSparseState(s, proc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.CheckSparse(); err != nil {
		t.Fatalf("fresh seed: %v", err)
	}
	return s, sp
}

// TestSparseStateBasic pins the set's bookkeeping on a hand-checkable
// state: seeding, O(1) discordance, exact mass, the attach hook, and
// repair through a sequence of updates ending in concordance.
// TestSparseProbeDoesNotPerturb pins the probe-neutrality contract on
// the blocked sparse path: RunBlock results on implicit and compact
// backends under EngineFast and EngineAuto must be trial-for-trial
// identical with and without a probe attached. The geometric skips in
// retireSparse must be bounded by MaxSteps only — clamping them to the
// probe-emit cadence segments the draws differently and consumes
// randomness on the probe's behalf, which obs.Probe's contract forbids
// (and which this test caught once).
func TestSparseProbeDoesNotPerturb(t *testing.T) {
	circ, err := graph.NewImplicitCirculant(96, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineFast, EngineAuto} {
		for _, compact := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/compact=%v", engine, compact), func(t *testing.T) {
				run := func(probe obs.ProbeMaker) []Result {
					out := make([]Result, 4)
					err := RunBlock(BlockConfig{
						Topology: circ,
						Compact:  compact,
						Process:  VertexProcess,
						Engine:   engine,
						Seed:     0x9b0e,
						Init: func(trial int, dst []int, r *rand.Rand) error {
							UniformOpinionsInto(dst, 3, r)
							return nil
						},
						MaxSteps: 4 << 20,
						Probe:    probe,
					}, 0, len(out), out)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				bare := run(nil)
				probed := run(func(int, uint64) obs.Probe { return &collectingProbe{} })
				for i := range bare {
					b, p := bare[i], probed[i]
					if b.Steps != p.Steps || b.Winner != p.Winner || b.Consensus != p.Consensus ||
						b.ThreeStep != p.ThreeStep || b.TwoAdjacentStep != p.TwoAdjacentStep ||
						b.MajorityStep != p.MajorityStep || b.FinalMin != p.FinalMin || b.FinalMax != p.FinalMax {
						t.Fatalf("trial %d: probe perturbed the blocked sparse run:\nnil:    %+v\nprobed: %+v", i, b, p)
					}
				}
			})
		}
	}
}

func TestSparseStateBasic(t *testing.T) {
	topo, err := graph.NewImplicitCycle(8)
	if err != nil {
		t.Fatal(err)
	}
	// One dissenter at vertex 3: diff(2)=diff(4)=1, diff(3)=2.
	op := []int{0, 0, 0, 1, 0, 0, 0, 0}
	for _, proc := range []Process{VertexProcess, EdgeProcess} {
		s, sp := sparseFixture(t, topo, proc, op)
		if got := sp.Members(); got != 3 {
			t.Fatalf("%v: %d members, want 3", proc, got)
		}
		if got := sp.DiscordantEdges(); got != 2 {
			t.Fatalf("%v: %d discordant edges, want 2", proc, got)
		}
		if got, want := s.DiscordantEdges(), int64(2); got != want {
			t.Fatalf("%v: State.DiscordantEdges %d, want %d", proc, got, want)
		}
		num, den := sp.ActiveMass()
		// Cycle: d(v)=2 everywhere, so lcm=2 and both processes see
		// p = 4 discordant arcs / 16 (edge: 4/16; vertex: 4·1/(8·2)).
		if float64(num)/float64(den) != 0.25 {
			t.Fatalf("%v: active mass %d/%d, want 1/4", proc, num, den)
		}
		sp.attachDiscordance()
		if got := s.DiscordantEdges(); got != 2 {
			t.Fatalf("%v: attached DiscordantEdges %d, want 2", proc, got)
		}
		// Resolve the dissent; the set must drain to empty.
		sp.SetOpinion(3, 0)
		if err := sp.CheckSparse(); err != nil {
			t.Fatalf("%v after update: %v", proc, err)
		}
		if sp.Members() != 0 || sp.DiscordantEdges() != 0 {
			t.Fatalf("%v: set not drained: %d members, %d edges", proc, sp.Members(), sp.DiscordantEdges())
		}
		if num, _ := sp.ActiveMass(); num != 0 {
			t.Fatalf("%v: residual mass %d", proc, num)
		}
		sp.detachDiscordance()
	}
}

// TestSparseSampleLaw draws from sampleDiscordant with the state held
// fixed and χ²-tests the empirical ordered-pair frequencies against the
// exact conditional law of each process, on an irregular implicit
// topology (a path: end degrees 1, interior 2) and on two irregular CSR
// graphs: star(513) with three opinions (the hub's draws scan 512
// leaves; edge-process buckets 2^9 and 2^0) and K₄ minus an edge
// (degrees 3 and 2 in buckets 2^2 and 2^1). Star arcs are grouped by
// direction and leaf quarter; the others are tested arc by arc.
func TestSparseSampleLaw(t *testing.T) {
	path, err := graph.NewImplicitPath(5)
	if err != nil {
		t.Fatal(err)
	}
	star := make([]int, 513)
	for v := 1; v < len(star); v++ {
		star[v] = v % 3
	}
	star[0] = 1
	k4e := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 0, V: 2},
	})
	const draws = 60000
	for _, tc := range []struct {
		name string
		topo graph.Topology
		op   []int
		cat  func(v, w int) int // nil: one category per ordered arc
	}{
		// Opinions 0,1,0,0,1: discordant arcs (0,1),(1,0),(1,2),(2,1),(3,4),(4,3).
		{"implicit path(5)", path, []int{0, 1, 0, 0, 1}, nil},
		{"csr star(513)", graph.Star(513), star, func(v, w int) int {
			leaf := max(v, w)
			return 4*b2i(v == 0) + (leaf-1)/128
		}},
		{"csr K4-e", k4e, []int{1, 2, 1, 2}, nil},
	} {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			_, sp := sparseFixture(t, tc.topo, proc, tc.op)
			// Exact law over ordered discordant arcs (v, w), folded into
			// categories.
			index := map[[2]int]int{}
			var want []float64
			var norm float64
			for v := 0; v < tc.topo.N(); v++ {
				for i := 0; i < tc.topo.Degree(v); i++ {
					w := tc.topo.Neighbor(v, i)
					if tc.op[w] == tc.op[v] {
						continue
					}
					p := 1.0
					if proc == VertexProcess {
						p = 1 / float64(tc.topo.Degree(v))
					}
					c := len(index)
					if tc.cat != nil {
						c = tc.cat(v, w)
					}
					index[[2]int{v, w}] = c
					for len(want) <= c {
						want = append(want, 0)
					}
					want[c] += p
					norm += p
				}
			}
			r := rand.New(rand.NewPCG(7, uint64(proc)))
			got := make([]int64, len(want))
			for i := 0; i < draws; i++ {
				v, w := sp.sampleDiscordant(r)
				c, ok := index[[2]int{v, w}]
				if !ok {
					t.Fatalf("%s/%v: sampled non-discordant pair (%d,%d)", tc.name, proc, v, w)
				}
				got[c]++
			}
			exp := make([]float64, len(want))
			for c, p := range want {
				exp[c] = p / norm * draws
			}
			stat, df, err := stats.ChiSquare(got, exp)
			if err != nil {
				t.Fatal(err)
			}
			if crit := chi2Crit001[df]; crit == 0 || stat > crit {
				t.Errorf("%s/%v: sample law χ²(%d) = %.2f > %.2f (α=0.001)", tc.name, proc, df, stat, crit)
			}
		}
	}
}

// TestSparseRebind pins the arena-sharing contract: rebinding the set
// to a different State over the same topology and reseeding must yield
// a consistent set, and rebinding across topologies must panic.
func TestSparseRebind(t *testing.T) {
	topo, err := graph.NewImplicitTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	op1 := make([]int, topo.N())
	op2 := make([]int, topo.N())
	for i := range op2 {
		op2[i] = i % 3
	}
	_, sp := sparseFixture(t, topo, VertexProcess, op1)
	if sp.Members() != 0 {
		t.Fatalf("concordant state seeded %d members", sp.Members())
	}
	s2 := &State{topo: topo}
	if err := s2.ResetTo(op2); err != nil {
		t.Fatal(err)
	}
	sp.rebind(s2)
	sp.Seed()
	if err := sp.CheckSparse(); err != nil {
		t.Fatalf("after rebind+seed: %v", err)
	}
	if sp.Members() != topo.N() {
		t.Fatalf("mod-3 profile: %d members, want all %d", sp.Members(), topo.N())
	}
	other, err := graph.NewImplicitCycle(16)
	if err != nil {
		t.Fatal(err)
	}
	s3 := &State{topo: other}
	if err := s3.ResetTo(make([]int, 16)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("rebind across topologies did not panic")
		}
	}()
	sp.rebind(s3)
}

// TestSparseMajorityStep pins the MajorityFrac milestone: a run born
// with a 90% majority records step 0; an even 3-way split records a
// positive step no later than consensus; MajorityFrac 0 leaves -1.
func TestSparseMajorityStep(t *testing.T) {
	topo, err := graph.NewImplicitCirculant(120, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	n := topo.N()
	run := func(frac float64, init func(dst []int)) Result {
		out := make([]Result, 1)
		err := RunBlock(BlockConfig{
			Topology:     topo,
			Engine:       EngineAuto,
			Seed:         0x9a11,
			MajorityFrac: frac,
			Init: func(trial int, dst []int, r *rand.Rand) error {
				init(dst)
				return nil
			},
		}, 0, 1, out)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	dissent := func(dst []int) {
		for i := range dst {
			dst[i] = 0
		}
		dst[n/2] = 1
	}
	split := func(dst []int) {
		for i := range dst {
			dst[i] = i % 3
		}
	}
	if r := run(0.9, dissent); r.MajorityStep != 0 {
		t.Errorf("dissenter profile: MajorityStep %d, want 0", r.MajorityStep)
	}
	if r := run(0.9, split); r.MajorityStep <= 0 || r.MajorityStep > r.Steps {
		t.Errorf("split profile: MajorityStep %d outside (0, %d]", r.MajorityStep, r.Steps)
	}
	if r := run(0, split); r.MajorityStep != -1 {
		t.Errorf("untracked run: MajorityStep %d, want -1", r.MajorityStep)
	}
}

// FuzzSparseSet fuzzes the swap-delete set's local-update invariants:
// from a fuzz-chosen topology, initial profile, and update sequence,
// membership must equal actual discordance and every aggregate must
// match a from-scratch re-derivation after each step, with draws from
// the set always discordant. The profile is a fuzz-chosen background
// opinion with a fuzz-chosen share of uniform minority draws, so both
// sides of Seed's dominant-opinion rule are reached, and a Seed at a
// fuzz-chosen point in the sequence must rebuild exactly the set the
// updates maintained.
func FuzzSparseSet(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint8(2), uint64(1), uint16(40), uint8(0), uint8(255), uint8(0))
	f.Add(uint8(1), uint8(9), uint8(3), uint64(2), uint16(60), uint8(1), uint8(255), uint8(30))
	f.Add(uint8(2), uint8(20), uint8(4), uint64(3), uint16(25), uint8(2), uint8(255), uint8(10))
	f.Add(uint8(3), uint8(32), uint8(2), uint64(4), uint16(80), uint8(1), uint8(255), uint8(80))
	// Dominant-background starts, which Seed walks from the minority.
	f.Add(uint8(1), uint8(30), uint8(4), uint64(5), uint16(120), uint8(3), uint8(48), uint8(200))
	f.Add(uint8(2), uint8(20), uint8(4), uint64(6), uint16(25), uint8(2), uint8(48), uint8(10))
	f.Add(uint8(3), uint8(27), uint8(2), uint64(7), uint16(80), uint8(1), uint8(40), uint8(40))
	f.Add(uint8(0), uint8(29), uint8(3), uint64(8), uint16(60), uint8(0), uint8(48), uint8(30))
	f.Fuzz(func(t *testing.T, fam, size, kRaw uint8, seed uint64, opsRaw uint16, bgRaw, share, seedAtRaw uint8) {
		var topo graph.Topology
		var err error
		switch fam % 4 {
		case 0:
			topo, err = graph.NewImplicitCycle(3 + int(size)%30)
		case 1:
			topo, err = graph.NewImplicitTorus(3+int(size)%5, 3+int(size)%7)
		case 2:
			topo, err = graph.NewImplicitCirculant(7+int(size)%40, []int{1, 2, 3})
		default:
			topo, err = graph.NewHashedRegular(8+2*(int(size)%28), 3+int(size)%4, seed|1)
		}
		if err != nil {
			t.Skip()
		}
		n := topo.N()
		k := 2 + int(kRaw)%5
		bg := int(bgRaw) % k
		r := rand.New(rand.NewPCG(seed, 0x5fa12))
		op := make([]int, n)
		for i := range op {
			// A uniform draw with probability share/256, else bg.
			op[i] = bg
			if r.IntN(256) < int(share) {
				op[i] = r.IntN(k)
			}
		}
		proc := VertexProcess
		if seed&1 == 1 {
			proc = EdgeProcess
		}
		s, sp := sparseFixture(t, topo, proc, op)
		checkSeeded(t, sp, "at construction")
		sp.attachDiscordance()
		ops := int(opsRaw) % 200
		seedAt := int(seedAtRaw) % (ops + 1)
		for i := 0; i <= ops; i++ {
			if i == seedAt {
				sp.Seed()
				checkSeeded(t, sp, fmt.Sprintf("reseeded before op %d", i))
			}
			if i == ops {
				break
			}
			if sp.Members() > 0 && r.IntN(3) == 0 {
				// A process step: sample an active pair, apply DIV.
				v, w := sp.sampleDiscordant(r)
				if s.Opinion(v) == s.Opinion(w) {
					t.Fatalf("op %d: sampled concordant pair (%d,%d)", i, v, w)
				}
				sp.SetOpinion(v, DIV{}.Target(s.Opinion(v), s.Opinion(w)))
			} else {
				// An adversarial update: arbitrary vertex, arbitrary
				// in-window value (exercises ±more-than-1 diff changes).
				sp.SetOpinion(r.IntN(n), s.Min()+r.IntN(s.Max()-s.Min()+1))
			}
			if err := sp.CheckSparse(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if got, want := s.DiscordantEdges(), sp.sumDiff/2; got != want {
				t.Fatalf("op %d: hooked DiscordantEdges %d, want %d", i, got, want)
			}
		}
	})
}
