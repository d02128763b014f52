package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
	"div/internal/stats"
)

// replayTrial runs one seeded trial, on a fresh state (sc == nil) or on
// the given scratch, with the support trace enabled so the returned
// Result pins the whole trajectory's support history, not just the
// endpoint.
func replayTrial(t *testing.T, g *graph.Graph, proc Process, engine Engine, seed uint64, sc *Scratch) Result {
	t.Helper()
	var init []int
	if sc != nil {
		init = UniformOpinionsInto(sc.Initial(), 5, sc.Rand(seed))
	} else {
		init = UniformOpinions(g.N(), 5, rng.New(seed))
	}
	res, err := Run(Config{
		Graph:        g,
		Initial:      init,
		Process:      proc,
		Engine:       engine,
		Seed:         rng.SplitMix64(seed),
		MaxSteps:     4 << 20,
		TraceSupport: true,
		Scratch:      sc,
	})
	if err != nil {
		t.Fatalf("%v/%v: %v", proc, engine, err)
	}
	return res
}

// TestScratchReplayByteIdentical is the reuse contract test: a seeded
// run on a Scratch dirtied by an unrelated earlier trial must reproduce
// the fresh-allocation Result exactly — same winner, same step counts,
// same support trace — for every engine and process. The hybrid knobs
// are shrunk so EngineAuto genuinely crosses the block↔sparse boundary
// (and therefore exercises the arena SparseState reseed path); not
// parallel for that reason.
func TestScratchReplayByteIdentical(t *testing.T) {
	oldWindow, oldRatio := hybridWindow, hybridCostRatio
	hybridWindow, hybridCostRatio = 64, 1
	defer func() { hybridWindow, hybridCostRatio = oldWindow, oldRatio }()

	for name, g := range testGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			for _, engine := range []Engine{EngineNaive, EngineFast, EngineAuto} {
				seed := rng.DeriveSeed(0x5c7a, uint64(len(name))*131+uint64(g.N())*7+uint64(proc)*3+uint64(engine))
				fresh := replayTrial(t, g, proc, engine, seed, nil)
				sc := NewScratch(g)
				replayTrial(t, g, proc, engine, rng.DeriveSeed(seed, 0xd127), sc) // dirty the scratch
				reused := replayTrial(t, g, proc, engine, seed, sc)
				if !reflect.DeepEqual(fresh, reused) {
					t.Errorf("%s/%v/%v: reused-scratch result diverged\nfresh:  %+v\nreused: %+v",
						name, proc, engine, fresh, reused)
				}
			}
		}
	}
}

// TestScratchGraphMismatch: a scratch is bound to its graph; wiring it
// into a run on a different graph must fail loudly, not corrupt state.
func TestScratchGraphMismatch(t *testing.T) {
	sc := NewScratch(graph.Cycle(8))
	g := graph.Path(8)
	_, err := Run(Config{
		Graph:   g,
		Initial: UniformOpinions(g.N(), 3, rng.New(1)),
		Process: VertexProcess,
		Seed:    2,
		Scratch: sc,
	})
	if err == nil {
		t.Fatal("Run accepted a Scratch bound to a different graph")
	}
}

// allocGraphs are the allocation-regression workloads: a star (its
// irregular degrees force the degree buckets and lcm units), a complete
// graph (implicit-adjacency scheduler), and a cycle (regular CSR path).
func allocGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"star":     graph.Star(64),
		"complete": graph.Complete(32),
		"cycle":    graph.Cycle(48),
	}
}

// TestScratchSteadyStateStepAllocs is the tentpole's acceptance test:
// with a reused Scratch and no probe, the steady-state step cost of
// every engine × process is exactly zero allocations. Measured as the
// difference between fixed-length runs of two lengths, which cancels
// the per-trial constant.
func TestScratchSteadyStateStepAllocs(t *testing.T) {
	if invariantChecksEnabled {
		t.Skip("divtestinvariants re-derives the index (and allocates) on every update")
	}
	const short, long = 4096, 32768
	for name, g := range allocGraphs() {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			for _, engine := range []Engine{EngineNaive, EngineFast, EngineAuto} {
				sc := NewScratch(g)
				seed := rng.DeriveSeed(0xa110c, uint64(len(name))+uint64(proc)*3+uint64(engine))
				var trialErr error
				runFor := func(maxSteps int64) float64 {
					return testing.AllocsPerRun(3, func() {
						init := UniformOpinionsInto(sc.Initial(), 5, sc.Rand(seed))
						if _, err := Run(Config{
							Graph:    g,
							Initial:  init,
							Process:  proc,
							Engine:   engine,
							Stop:     UntilMaxSteps,
							MaxSteps: maxSteps,
							Seed:     rng.SplitMix64(seed),
							Scratch:  sc,
						}); err != nil && trialErr == nil {
							trialErr = err
						}
					})
				}
				aShort := runFor(short)
				aLong := runFor(long)
				if trialErr != nil {
					t.Fatalf("%s/%v/%v: %v", name, proc, engine, trialErr)
				}
				if aLong != aShort {
					t.Errorf("%s/%v/%v: %.1f allocs over %d extra steps (%.0f@%d vs %.0f@%d), want 0",
						name, proc, engine, aLong-aShort, long-short, aLong, long, aShort, short)
				}
			}
		}
	}
}

// TestScratchReusedTrialAllocBound: a whole consensus trial on a warm
// Scratch performs O(1) allocations — a small constant independent of
// n, m, and the trial length (fresh construction is O(n + m)).
func TestScratchReusedTrialAllocBound(t *testing.T) {
	if invariantChecksEnabled {
		t.Skip("divtestinvariants re-derives the index (and allocates) on every update")
	}
	const bound = 32.0
	for name, g := range allocGraphs() {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			for _, engine := range []Engine{EngineNaive, EngineFast, EngineAuto} {
				sc := NewScratch(g)
				seed := rng.DeriveSeed(0x7a1a1, uint64(len(name))+uint64(proc)*3+uint64(engine))
				trial := func() {
					init := UniformOpinionsInto(sc.Initial(), 4, sc.Rand(seed))
					if _, err := Run(Config{
						Graph:   g,
						Initial: init,
						Process: proc,
						Engine:  engine,
						Seed:    rng.SplitMix64(seed),
						Scratch: sc,
					}); err != nil {
						t.Errorf("%s/%v/%v: %v", name, proc, engine, err)
					}
				}
				trial() // warm the scratch
				if allocs := testing.AllocsPerRun(5, trial); allocs > bound {
					t.Errorf("%s/%v/%v: %.0f allocs per reused trial, want ≤ %.0f",
						name, proc, engine, allocs, bound)
				}
			}
		}
	}
}

// samplerChi2 draws samples pairs from sp and χ²-tests the category
// frequencies against the exact law (category → probability), where
// cat maps an ordered pair to its category. It returns the mean number
// of rejection rounds per draw.
func samplerChi2(t *testing.T, sp *SparseState, r *rand.Rand, samples int, cat func(v, w int) int, want []float64) float64 {
	t.Helper()
	got := make([]int64, len(want))
	draws0 := sp.draws
	for i := 0; i < samples; i++ {
		v, w := sp.sampleDiscordant(r)
		if sp.x(v) == sp.x(w) {
			t.Fatalf("sampled concordant pair (%d,%d)", v, w)
		}
		got[cat(v, w)]++
	}
	exp := make([]float64, len(want))
	for i, p := range want {
		exp[i] = p * float64(samples)
	}
	stat, df, err := stats.ChiSquare(got, exp)
	if err != nil {
		t.Fatal(err)
	}
	if stat > chi2Crit001[df] {
		t.Errorf("χ²(%d) = %.2f > %.2f (α=0.001): observed %v, expected %v", df, stat, chi2Crit001[df], got, exp)
	}
	return float64(sp.draws-draws0) / float64(samples)
}

// TestBucketedSamplerDrawBound pins the rejection sampler's two
// promises on the star with every edge discordant — the dmax-bounded
// edge sampler's bad case (j < 512 accepted leaves once in 512): (i)
// the conditional law of the tail is exact — P[tail = v] ∝ diff(v)/d(v)
// (vertex), ∝ diff(v) (edge) — and (ii) a draw costs O(1) rounds, at
// most 4 on average. Tails are grouped as the hub plus eight blocks of
// 64 leaves. Here every bound equals the degree, so every round
// accepts.
func TestBucketedSamplerDrawBound(t *testing.T) {
	const n, samples = 513, 20000
	g := graph.Star(n) // hub degree 512, leaves degree 1
	init := make([]int, n)
	init[0] = 2
	for v := 1; v < n; v++ {
		init[v] = 1 // every edge discordant
	}
	s := MustState(g, init)
	cat := func(v, _ int) int {
		if v == 0 {
			return 0
		}
		return 1 + (v-1)/64
	}
	for _, tc := range []struct {
		proc Process
		hub  float64 // exact P[tail = hub]
	}{
		{VertexProcess, 1.0 / n},    // 512 arcs of weight 1/512 against 512 of weight 1
		{EdgeProcess, 512.0 / 1024}, // uniform over 1024 arcs
	} {
		sp, err := NewSparseState(s, tc.proc)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 9)
		want[0] = tc.hub
		for b := 1; b < 9; b++ {
			want[b] = (1 - tc.hub) / 8
		}
		perDraw := samplerChi2(t, sp, rng.New(0x57a2+uint64(tc.proc)), samples, cat, want)
		if perDraw > 4 {
			t.Errorf("%v: %.2f rounds per draw, want ≤ 4", tc.proc, perDraw)
		}
		// A run flushes its rounds to sampler_bucket_draws_total on
		// exit, at least one per active step. (The run leaves the
		// all-discordant state, so rounds per step are not bounded here:
		// an edge-process hub with k discordant leaves accepts k/512.)
		var p collectingProbe
		before := bucketDrawsTotal.Value()
		if _, err := Run(Config{Graph: g, Initial: init, Process: tc.proc, Engine: EngineFast,
			Stop: UntilMaxSteps, MaxSteps: 4096, Seed: 0x57a3, Probe: &p}); err != nil {
			t.Fatal(err)
		}
		var active int64
		for _, b := range p.batches {
			active += b.Active
		}
		if rounds := bucketDrawsTotal.Value() - before; active == 0 || rounds < active {
			t.Errorf("%v: counter advanced %d rounds over %d active steps, want at least one per step", tc.proc, rounds, active)
		}
	}
}

// TestBucketedSamplerRejectionLaw exercises both rejection branches on
// K₄ minus an edge (degrees 3,2,3,2) with opinions 1,2,1,2, so the
// degree-3 vertices have 2 of 3 arcs discordant. Vertex process: a
// uniform member and j < d(v) accept with probability 2/3 or 1 and the
// ordered-pair law is ∝ 1/d(v) (1/10 per arc out of 0 or 2, 3/20 out
// of 1 or 3); 1.2 expected rounds per draw. Edge process: degrees 3
// and 2 land in buckets with bounds 4 and 2, the law is uniform over
// the 8 discordant arcs, and a draw costs 12/8 = 1.5 expected rounds.
func TestBucketedSamplerRejectionLaw(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 0, V: 2},
	})
	s := MustState(g, []int{1, 2, 1, 2})
	arcs := [][2]int{{0, 1}, {0, 3}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 0}, {3, 2}}
	cat := func(v, w int) int {
		for i, a := range arcs {
			if a == [2]int{v, w} {
				return i
			}
		}
		t.Fatalf("sampled non-discordant arc (%d,%d)", v, w)
		return -1
	}
	for _, tc := range []struct {
		proc   Process
		want   []float64
		rounds float64
	}{
		{VertexProcess, []float64{0.1, 0.1, 0.15, 0.15, 0.1, 0.1, 0.15, 0.15}, 1.2},
		{EdgeProcess, []float64{0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125}, 1.5},
	} {
		sp, err := NewSparseState(s, tc.proc)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 20000
		perDraw := samplerChi2(t, sp, rng.New(0x4e1+uint64(tc.proc)), samples, cat, tc.want)
		// Rounds are geometric with mean tc.rounds; 0.1 is > 10σ at 20k.
		if math.Abs(perDraw-tc.rounds) > 0.1 {
			t.Errorf("%v: %.3f rounds per draw, want ≈ %.2f", tc.proc, perDraw, tc.rounds)
		}
	}
}

// BenchmarkStarVertexFastStep measures the discordance engine's
// per-step cost on a large star under the vertex process — the
// workload whose degree ratio once made rejection degenerate.
// Fixed-length runs on a reused scratch isolate the steady-state step
// cost.
func BenchmarkStarVertexFastStep(b *testing.B) {
	g := graph.Star(8192)
	sc := NewScratch(g)
	const maxSteps = 1 << 15
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := rng.DeriveSeed(0x57a8, uint64(i))
		init := UniformOpinionsInto(sc.Initial(), 4, sc.Rand(seed))
		res, err := Run(Config{
			Graph:    g,
			Initial:  init,
			Process:  VertexProcess,
			Engine:   EngineFast,
			Stop:     UntilMaxSteps,
			MaxSteps: maxSteps,
			Seed:     rng.SplitMix64(seed),
			Scratch:  sc,
		})
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.StopTimer()
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
}

// TestBlockWarmScratchZeroAllocs pins the allocation-free warm
// RunBlock: once a Scratch has run one trial, a one-trial RunBlock
// allocates nothing — its blockRun and in-flight row list live in the
// arena. Covered on CSR int32 and HashedRegular compact, under
// EngineNaive (capped, never handing off) and under EngineAuto with a
// dissenter profile that hands off to the discordance engine.
func TestBlockWarmScratchZeroAllocs(t *testing.T) {
	if invariantChecksEnabled {
		t.Skip("divtestinvariants re-derives the index (and allocates) on every update")
	}
	const n, d = 2000, 8
	rr, err := graph.RandomRegularSeeded(n, d, 0x2a11, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := graph.NewHashedRegular(n, d, 0x2a12)
	if err != nil {
		t.Fatal(err)
	}
	dissent := func(_ int, dst []int, _ *rand.Rand) error {
		for i := range dst {
			dst[i] = 1
		}
		for i := 0; i < len(dst); i += len(dst) / 8 {
			dst[i] = 2
		}
		return nil
	}
	for _, tc := range []struct {
		name    string
		topo    graph.Topology
		compact bool
	}{{"csr-int32", rr, false}, {"hashed-compact", hashed, true}} {
		for _, engine := range []Engine{EngineNaive, EngineAuto} {
			cfg := BlockConfig{
				Topology: tc.topo,
				Compact:  tc.compact,
				Engine:   engine,
				Seed:     0x2a13,
				Init:     dissent,
				Scratch:  NewScratchTopo(tc.topo),
			}
			if engine == EngineNaive {
				cfg.MaxSteps = 20000
			}
			out := make([]Result, 1)
			trial := 0
			var runErr error
			run := func() {
				if err := RunBlock(cfg, trial, trial+1, out); err != nil && runErr == nil {
					runErr = err
				}
				trial++
			}
			run() // warm the scratch
			handoffs := sparseHandoffsTotal.Value()
			allocs := testing.AllocsPerRun(5, run)
			if runErr != nil {
				t.Fatalf("%s/%v: %v", tc.name, engine, runErr)
			}
			if engine == EngineAuto && sparseHandoffsTotal.Value() == handoffs {
				t.Fatalf("%s/%v: no trial handed off to the discordance engine", tc.name, engine)
			}
			if allocs != 0 {
				t.Errorf("%s/%v: %.1f allocs per warm one-trial RunBlock, want 0", tc.name, engine, allocs)
			}
		}
	}
}
