package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
	"div/internal/stats"
)

// The blocked kernel's correctness contract has two halves, and this
// file tests both:
//
//  1. Determinism: a trial's Result is a pure function of (config,
//     Seed, trial index) — byte-identical across block sizes, across
//     batch splits, and across arena reuse.
//  2. Law: the blocked kernel realizes the same process distribution
//     as the sequential reference engine, held to the same α = 0.001
//     χ²/KS standard as the fast-engine equivalence suite
//     (equivalence_test.go). Samplewise agreement with Run is not
//     expected — the blocked path draws from counter streams, the
//     sequential path from PCG — so the comparison is distributional.

// gatherBlock runs trials of one point through RunBlock and collects
// the same statistics as gatherEq.
func gatherBlock(t *testing.T, g *graph.Graph, proc Process, engine Engine, baseSeed uint64, trials, block int, sc *Scratch) eqSample {
	t.Helper()
	n := g.N()
	counts := []int{n / 3, n / 3, n - 2*(n/3)}
	out := make([]Result, trials)
	err := RunBlock(BlockConfig{
		Graph:   g,
		Process: proc,
		Engine:  engine,
		Seed:    baseSeed,
		Init: func(trial int, dst []int, r *rand.Rand) error {
			_, err := BlockOpinionsInto(dst, counts, r)
			return err
		},
		MaxSteps: 4 << 20,
		Scratch:  sc,
		Block:    block,
	}, 0, trials, out)
	if err != nil {
		t.Fatal(err)
	}
	var smp eqSample
	for trial, res := range out {
		if !res.Consensus {
			t.Fatalf("%v/%v engine %v trial %d: no consensus after %d steps", g, proc, engine, trial, res.Steps)
		}
		smp.winners = append(smp.winners, res.Winner)
		smp.steps = append(smp.steps, float64(res.Steps))
		smp.twoAdj = append(smp.twoAdj, float64(res.TwoAdjacentStep))
	}
	return smp
}

// resultKey renders a Result to a comparable string. NaN fields
// (WeightAtTwoAdjacent on runs that never reached two opinions) render
// as "NaN", so identity comparison works where == would not.
func resultKey(r Result) string { return fmt.Sprintf("%+v", r) }

// TestBlockByteIdentity is the kernel's headline determinism claim:
// the same trial range at the same seed yields bit-identical Results
// for every block size, for a batch split into multiple RunBlock
// spans, and on a dirtied arena — because each trial draws only from
// its own counter stream and rows share no mutable state.
func TestBlockByteIdentity(t *testing.T) {
	const trials = 12
	for name, g := range testGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			for _, engine := range []Engine{EngineNaive, EngineFast, EngineAuto} {
				t.Run(fmt.Sprintf("%s/%v/%v", name, proc, engine), func(t *testing.T) {
					n := g.N()
					counts := []int{n / 3, n / 3, n - 2*(n/3)}
					cfg := BlockConfig{
						Graph:   g,
						Process: proc,
						Engine:  engine,
						Seed:    0xb10c,
						Init: func(trial int, dst []int, r *rand.Rand) error {
							_, err := BlockOpinionsInto(dst, counts, r)
							return err
						},
						MaxSteps: 4 << 20,
					}
					ref := make([]Result, trials)
					cfg.Block = 1
					if err := RunBlock(cfg, 0, trials, ref); err != nil {
						t.Fatal(err)
					}
					check := func(label string, got []Result) {
						t.Helper()
						for i := range ref {
							if resultKey(got[i]) != resultKey(ref[i]) {
								t.Fatalf("%s: trial %d diverged from block=1:\n  got  %s\n  want %s",
									label, i, resultKey(got[i]), resultKey(ref[i]))
							}
						}
					}
					for _, block := range []int{3, 8, trials + 5} {
						got := make([]Result, trials)
						cfg.Block = block
						if err := RunBlock(cfg, 0, trials, got); err != nil {
							t.Fatal(err)
						}
						check(fmt.Sprintf("block=%d", block), got)
					}
					// Split the batch across spans, as the scheduler does.
					got := make([]Result, trials)
					cfg.Block = 4
					if err := RunBlock(cfg, 0, 5, got[:5]); err != nil {
						t.Fatal(err)
					}
					if err := RunBlock(cfg, 5, trials, got[5:]); err != nil {
						t.Fatal(err)
					}
					check("split spans", got)
					// Dirtied arena: two passes through one Scratch.
					sc := NewScratch(g)
					cfg.Scratch = sc
					cfg.Block = 6
					if err := RunBlock(cfg, 0, trials, got); err != nil {
						t.Fatal(err)
					}
					check("scratch pass 1", got)
					if err := RunBlock(cfg, 0, trials, got); err != nil {
						t.Fatal(err)
					}
					check("scratch pass 2", got)
				})
			}
		}
	}
}

// TestBlockDistributionEquivalence holds the blocked kernel to the
// same α = 0.001 standard as the fast engine: winner law by two-sample
// χ², stopping-time laws by two-sample KS, against the sequential
// naive reference, for both the pure blocked path (EngineNaive) and
// the immediate-hand-off path (EngineFast).
func TestBlockDistributionEquivalence(t *testing.T) {
	trials := eqTrials(t)
	for name, g := range testGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			for _, engine := range []Engine{EngineNaive, EngineFast} {
				name, g, proc, engine := name, g, proc, engine
				t.Run(fmt.Sprintf("%s/%v/%v", name, proc, engine), func(t *testing.T) {
					t.Parallel()
					base := rng.DeriveSeed(0xb10c2, uint64(len(name))*131+uint64(g.N())*7+uint64(proc)*3+uint64(engine))
					naive := gatherEq(t, g, proc, EngineNaive, rng.DeriveSeed(base, 1), trials, nil)
					blocked := gatherBlock(t, g, proc, engine, rng.DeriveSeed(base, 2), trials, DefaultBlock, nil)

					stat, df := chi2TwoSample(naive.winners, blocked.winners)
					if df > 0 {
						crit, ok := chi2Crit001[df]
						if !ok {
							t.Fatalf("no critical value for df=%d", df)
						}
						if stat > crit {
							t.Errorf("winner χ²(%d) = %.2f > %.2f (α=0.001): blocked kernel disagrees", df, stat, crit)
						}
					}
					ksCrit := ks2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))
					for _, series := range []struct {
						label  string
						na, bl []float64
					}{
						{"consensus steps", naive.steps, blocked.steps},
						{"two-adjacent step", naive.twoAdj, blocked.twoAdj},
					} {
						d, err := stats.KS2Sample(series.na, series.bl)
						if err != nil {
							t.Fatal(err)
						}
						if d > ksCrit {
							t.Errorf("%s KS distance %.4f > %.4f (α=0.001): blocked kernel disagrees", series.label, d, ksCrit)
						}
					}
				})
			}
		}
	}
}

// TestBlockAutoHandoffEquivalence exercises the blocked→fast hand-off
// boundary statistically: with the hybrid window shrunk, small-graph
// runs genuinely trigger the windowed hand-off to the arena
// SparseState, bounce back to blocked stepping on rebounds, and must
// still match the naive law. Not parallel: it mutates the
// package-level window.
func TestBlockAutoHandoffEquivalence(t *testing.T) {
	oldWindow := hybridWindow
	hybridWindow = 64
	defer func() { hybridWindow = oldWindow }()

	trials := eqTrials(t)
	for name, g := range testGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			t.Run(fmt.Sprintf("%s/%v", name, proc), func(t *testing.T) {
				base := rng.DeriveSeed(0xb10c3, uint64(len(name))*131+uint64(g.N())*7+uint64(proc))
				naive := gatherEq(t, g, proc, EngineNaive, rng.DeriveSeed(base, 1), trials, nil)
				blocked := gatherBlock(t, g, proc, EngineAuto, rng.DeriveSeed(base, 2), trials, 4, NewScratch(g))

				stat, df := chi2TwoSample(naive.winners, blocked.winners)
				if df > 0 {
					if stat > chi2Crit001[df] {
						t.Errorf("winner χ²(%d) = %.2f > %.2f (α=0.001): hand-off path disagrees", df, stat, chi2Crit001[df])
					}
				}
				ksCrit := ks2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))
				for _, series := range []struct {
					label  string
					na, bl []float64
				}{
					{"consensus steps", naive.steps, blocked.steps},
					{"two-adjacent step", naive.twoAdj, blocked.twoAdj},
				} {
					d, err := stats.KS2Sample(series.na, series.bl)
					if err != nil {
						t.Fatal(err)
					}
					if d > ksCrit {
						t.Errorf("%s KS distance %.4f > %.4f (α=0.001): hand-off path disagrees", series.label, d, ksCrit)
					}
				}
			})
		}
	}
}

// pullTest is a deliberately non-pairwise local rule (no Target
// method): v adopts w's opinion outright. It exercises the blocked
// kernel's generic scheduler-and-rule path, which must refuse hand-off
// and still match the sequential engine's law.
type pullTest struct{}

func (pullTest) Name() string { return "pull-test" }
func (pullTest) Step(s *State, _ *rand.Rand, v, w int) {
	if x := int(s.opinions[w]); x != int(s.opinions[v]) {
		s.SetOpinion(v, x)
	}
}

// TestBlockGenericRule runs the non-pairwise fallback: winner and
// stopping-time laws must match sequential naive runs of the same
// rule, and byte-identity across block sizes must hold.
func TestBlockGenericRule(t *testing.T) {
	g := graph.Complete(12)
	const trials = 300
	counts := []int{4, 4, 4}
	gather := func(block int, seed uint64) ([]int, []float64) {
		out := make([]Result, trials)
		err := RunBlock(BlockConfig{
			Graph: g,
			Rule:  pullTest{},
			Seed:  seed,
			Init: func(trial int, dst []int, r *rand.Rand) error {
				_, err := BlockOpinionsInto(dst, counts, r)
				return err
			},
			MaxSteps: 4 << 20,
			Block:    block,
		}, 0, trials, out)
		if err != nil {
			t.Fatal(err)
		}
		winners := make([]int, trials)
		steps := make([]float64, trials)
		for i, res := range out {
			if !res.Consensus {
				t.Fatalf("trial %d: no consensus", i)
			}
			winners[i] = res.Winner
			steps[i] = float64(res.Steps)
		}
		return winners, steps
	}
	winA, stepsA := gather(1, 77)
	winB, stepsB := gather(8, 77)
	for i := range winA {
		if winA[i] != winB[i] || stepsA[i] != stepsB[i] {
			t.Fatalf("trial %d: generic path diverges across block sizes", i)
		}
	}

	// Sequential reference with the same rule.
	var seqWinners []int
	var seqSteps []float64
	for trial := 0; trial < trials; trial++ {
		seed := rng.DeriveSeed(991, uint64(trial))
		init, err := BlockOpinions(g.N(), counts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Graph: g, Initial: init, Rule: pullTest{}, Seed: rng.SplitMix64(seed), MaxSteps: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consensus {
			t.Fatalf("sequential trial %d: no consensus", trial)
		}
		seqWinners = append(seqWinners, res.Winner)
		seqSteps = append(seqSteps, float64(res.Steps))
	}
	stat, df := chi2TwoSample(seqWinners, winA)
	if df > 0 && stat > chi2Crit001[df] {
		t.Errorf("generic-rule winner χ²(%d) = %.2f > %.2f", df, stat, chi2Crit001[df])
	}
	ksCrit := ks2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))
	if d, err := stats.KS2Sample(seqSteps, stepsA); err != nil {
		t.Fatal(err)
	} else if d > ksCrit {
		t.Errorf("generic-rule consensus-steps KS %.4f > %.4f", d, ksCrit)
	}
}

// TestBlockMaxSteps pins exact step accounting at the cap: under
// UntilMaxSteps every trial must stop at exactly MaxSteps, chunked
// stepping and lazy step commits notwithstanding.
func TestBlockMaxSteps(t *testing.T) {
	for name, g := range testGraphs(t) {
		const maxSteps = 12345 // deliberately not chunk-aligned
		out := make([]Result, 6)
		err := RunBlock(BlockConfig{
			Graph:    g,
			Stop:     UntilMaxSteps,
			MaxSteps: maxSteps,
			Seed:     5,
			Init: func(trial int, dst []int, r *rand.Rand) error {
				for i := range dst {
					dst[i] = i % 3
				}
				return nil
			},
			Block: 4,
		}, 0, 6, out)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range out {
			if res.Steps != maxSteps {
				t.Errorf("%s trial %d: %d steps, want exactly %d", name, i, res.Steps, maxSteps)
			}
		}
	}
}

// TestBlockBornDone: a trial whose initial profile already satisfies
// the stop condition must finish at step 0 with a complete Result.
func TestBlockBornDone(t *testing.T) {
	g := graph.Complete(10)
	out := make([]Result, 3)
	err := RunBlock(BlockConfig{
		Graph: g,
		Seed:  1,
		Init: func(trial int, dst []int, r *rand.Rand) error {
			for i := range dst {
				dst[i] = 7
			}
			return nil
		},
	}, 0, 3, out)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if !res.Consensus || res.Winner != 7 || res.Steps != 0 {
			t.Errorf("trial %d: %+v, want consensus on 7 at step 0", i, res)
		}
	}
}

// TestBlockStateInvariants replays blocked trials and validates the
// full incremental-aggregate invariant set on every row after the run.
func TestBlockStateInvariants(t *testing.T) {
	sc := NewScratch(graph.Complete(20))
	out := make([]Result, 8)
	err := RunBlock(BlockConfig{
		Graph: sc.Graph(),
		Seed:  3,
		Init: func(trial int, dst []int, r *rand.Rand) error {
			for i := range dst {
				dst[i] = r.IntN(5)
			}
			return nil
		},
		Scratch: sc,
		Block:   4,
	}, 0, 8, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range sc.blk.rows {
		if err := row.s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompleteMagicDivide verifies the divide-free decomposition of
// the K_n joint draw exhaustively for small n and at every quotient
// boundary for the largest gated n: with M = ⌊2^40/d⌋+1, (q·M)>>40
// must equal ⌊q/d⌋ for all q < n(n-1).
func TestCompleteMagicDivide(t *testing.T) {
	check := func(n int) {
		d := uint64(n - 1)
		magic := (uint64(1)<<40)/d + 1
		m := uint64(n) * d
		verify := func(q uint64) {
			if got, want := q*magic>>40, q/d; got != want {
				t.Fatalf("n=%d q=%d: magic divide %d, want %d", n, q, got, want)
			}
		}
		if m <= 1<<20 {
			for q := uint64(0); q < m; q++ {
				verify(q)
			}
			return
		}
		// Failures can only occur where frac(q/d) is maximal, i.e. just
		// below quotient boundaries — check every boundary ±1.
		for k := uint64(0); k <= uint64(n); k++ {
			for _, q := range []uint64{k * d, k*d + 1, k*d + d - 1} {
				if q < m {
					verify(q)
				}
			}
		}
	}
	for _, n := range []int{2, 3, 4, 5, 17, 100, 1000, 3200, 8191, 8192} {
		check(n)
	}
}

// TestBlockValidation covers the constructor's error paths.
func TestBlockValidation(t *testing.T) {
	g := graph.Complete(4)
	init := func(trial int, dst []int, r *rand.Rand) error {
		for i := range dst {
			dst[i] = i % 2
		}
		return nil
	}
	out := make([]Result, 1)
	if err := RunBlock(BlockConfig{Init: init}, 0, 1, out); err == nil {
		t.Error("nil graph accepted")
	}
	if err := RunBlock(BlockConfig{Graph: g}, 0, 1, out); err == nil {
		t.Error("nil Init accepted")
	}
	if err := RunBlock(BlockConfig{Graph: g, Init: init, Engine: EngineFast, Rule: pullTest{}}, 0, 1, out); err == nil {
		t.Error("EngineFast with non-pairwise rule accepted")
	}
	if err := RunBlock(BlockConfig{Graph: g, Init: init}, 0, 5, out); err == nil {
		t.Error("short result slice accepted")
	}
	if err := RunBlock(BlockConfig{Graph: g, Init: init}, -1, 0, out); err == nil {
		t.Error("negative trial range accepted")
	}
	if err := RunBlock(BlockConfig{Graph: graph.Path(3), Init: init, Process: EdgeProcess}, 0, 1, out); err != nil {
		t.Errorf("valid path-graph config rejected: %v", err)
	}
}
