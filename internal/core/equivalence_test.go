package core

// Distribution-equivalence suite: the fast engine is only safe to ship
// if it is *distribution-identical* to the naive reference engine, so
// this file tests statistical indistinguishability of the two engines'
// winner laws and stopping-time laws over four graph families (path,
// cycle, K_n, random regular) × both schedulers (vertex, edge), plus
// the closed-form winner law of Lemma 5 as an absolute anchor for each
// engine separately.
//
// Determinism and thresholds: every test draws from fixed seeds, so the
// sampled statistics — and hence the verdicts — are bit-reproducible;
// there is no flake channel. The thresholds are classical α = 0.001
// critical values (chi-square upper quantiles per degree of freedom;
// the two-sample Kolmogorov–Smirnov bound c(α)·√((m+n)/(m·n)) with
// c(0.001) = √(ln(2/α)/2) ≈ 1.9495; |z| ≤ 4.5 for the binomial anchor,
// two-sided α ≈ 7·10⁻⁶). All were verified to pass with wide margin for
// the committed seeds; a change that shifts either engine's law is
// expected to trip them.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
	"div/internal/stats"
)

// chi2Crit001[df] is the α = 0.001 upper critical value of the
// chi-square distribution with df degrees of freedom.
var chi2Crit001 = map[int]float64{
	1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467,
	5: 20.515, 6: 22.458, 7: 24.322, 8: 26.124,
}

const ks2Crit001 = 1.9495 // √(ln(2/0.001)/2)

func eqTrials(t *testing.T) int {
	if testing.Short() {
		return 200
	}
	return 500
}

type eqSample struct {
	winners []int
	steps   []float64
	twoAdj  []float64
}

// gatherEq runs `trials` independent k=3 runs of one engine and
// collects the winner and the stopping times. With a non-nil sc every
// trial reuses the same per-worker Scratch, exactly as the sim harness
// does — the reused-scratch arms sample through that pipeline.
func gatherEq(t *testing.T, g *graph.Graph, proc Process, engine Engine, baseSeed uint64, trials int, sc *Scratch) eqSample {
	t.Helper()
	n := g.N()
	counts := []int{n / 3, n / 3, n - 2*(n/3)}
	var smp eqSample
	for trial := 0; trial < trials; trial++ {
		seed := rng.DeriveSeed(baseSeed, uint64(trial))
		var init []int
		var err error
		if sc != nil {
			init, err = BlockOpinionsInto(sc.Initial(), counts, sc.Rand(seed))
		} else {
			init, err = BlockOpinions(n, counts, rng.New(seed))
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Graph:    g,
			Initial:  init,
			Process:  proc,
			Engine:   engine,
			Seed:     rng.SplitMix64(seed),
			MaxSteps: 4 << 20,
			Scratch:  sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consensus {
			t.Fatalf("%v/%v engine %v trial %d: no consensus after %d steps", g, proc, engine, trial, res.Steps)
		}
		smp.winners = append(smp.winners, res.Winner)
		smp.steps = append(smp.steps, float64(res.Steps))
		smp.twoAdj = append(smp.twoAdj, float64(res.TwoAdjacentStep))
	}
	return smp
}

// chi2TwoSample computes the two-sample chi-square statistic over the
// winner categories of a and b, pooling sparse categories (pooled count
// < 10) into their neighbour so the asymptotic distribution applies.
func chi2TwoSample(a, b []int) (stat float64, df int) {
	count := map[int][2]float64{}
	for _, w := range a {
		c := count[w]
		c[0]++
		count[w] = c
	}
	for _, w := range b {
		c := count[w]
		c[1]++
		count[w] = c
	}
	cats := make([]int, 0, len(count))
	for w := range count {
		cats = append(cats, w)
	}
	sort.Ints(cats)
	var cells [][2]float64
	for _, w := range cats {
		cells = append(cells, count[w])
	}
	// Merge any sparse cell into its neighbour until none remain (or a
	// single cell is left). Categories are adjacent opinion values, so
	// neighbouring cells are the natural pooling partners.
	for len(cells) > 1 {
		idx := -1
		for i, c := range cells {
			if sumPair(c) < 10 {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		j := idx - 1
		if j < 0 {
			j = idx + 1
		}
		cells[j][0] += cells[idx][0]
		cells[j][1] += cells[idx][1]
		cells = append(cells[:idx], cells[idx+1:]...)
	}
	if len(cells) < 2 {
		return 0, 0 // a single category: trivially identical
	}
	na, nb := float64(len(a)), float64(len(b))
	grand := na + nb
	for _, c := range cells {
		colTotal := c[0] + c[1]
		ea := colTotal * na / grand
		eb := colTotal * nb / grand
		stat += (c[0]-ea)*(c[0]-ea)/ea + (c[1]-eb)*(c[1]-eb)/eb
	}
	return stat, len(cells) - 1
}

func sumPair(c [2]float64) float64 { return c[0] + c[1] }

// TestEngineDistributionEquivalence draws independent samples from the
// naive and fast engines on every family × process and compares (i) the
// winner distributions by two-sample chi-square and (ii) the consensus
// and reduction stopping-time distributions by two-sample KS.
func TestEngineDistributionEquivalence(t *testing.T) {
	trials := eqTrials(t)
	for name, g := range testGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			name, g, proc := name, g, proc
			t.Run(fmt.Sprintf("%s/%v", name, proc), func(t *testing.T) {
				t.Parallel()
				base := rng.DeriveSeed(0xd15c0, uint64(len(name))*131+uint64(g.N())*7+uint64(proc))
				naive := gatherEq(t, g, proc, EngineNaive, rng.DeriveSeed(base, 1), trials, nil)
				fast := gatherEq(t, g, proc, EngineFast, rng.DeriveSeed(base, 2), trials, nil)

				stat, df := chi2TwoSample(naive.winners, fast.winners)
				if df > 0 {
					crit, ok := chi2Crit001[df]
					if !ok {
						t.Fatalf("no critical value for df=%d", df)
					}
					if stat > crit {
						t.Errorf("winner χ²(%d) = %.2f > %.2f (α=0.001): engines disagree", df, stat, crit)
					}
				}

				ksCrit := ks2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))
				for _, series := range []struct {
					label  string
					na, fa []float64
				}{
					{"consensus steps", naive.steps, fast.steps},
					{"two-adjacent step", naive.twoAdj, fast.twoAdj},
				} {
					d, err := stats.KS2Sample(series.na, series.fa)
					if err != nil {
						t.Fatal(err)
					}
					if d > ksCrit {
						t.Errorf("%s KS distance %.4f > %.4f (α=0.001): engines disagree", series.label, d, ksCrit)
					}
				}
			})
		}
	}
}

// TestHybridSwitchingEquivalence holds EngineAuto's switching to the
// same distribution-identity standard as the pure fast engine. The
// switching window and cost ratio are shrunk so that runs on the small
// test graphs genuinely cross the block→sparse and sparse→block
// boundaries many times (with the production window of 4096 draws
// these runs would stay blocked throughout and the test would be
// vacuous). Not parallel: it mutates the package-level tuning knobs.
func TestHybridSwitchingEquivalence(t *testing.T) {
	oldWindow, oldRatio := hybridWindow, hybridCostRatio
	hybridWindow, hybridCostRatio = 64, 1
	defer func() { hybridWindow, hybridCostRatio = oldWindow, oldRatio }()

	trials := eqTrials(t)
	for name, g := range testGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			t.Run(fmt.Sprintf("%s/%v", name, proc), func(t *testing.T) {
				base := rng.DeriveSeed(0xa070, uint64(len(name))*131+uint64(g.N())*7+uint64(proc))
				naive := gatherEq(t, g, proc, EngineNaive, rng.DeriveSeed(base, 1), trials, nil)
				auto := gatherEq(t, g, proc, EngineAuto, rng.DeriveSeed(base, 2), trials, nil)

				stat, df := chi2TwoSample(naive.winners, auto.winners)
				if df > 0 {
					if stat > chi2Crit001[df] {
						t.Errorf("winner χ²(%d) = %.2f > %.2f (α=0.001): hybrid disagrees with naive", df, stat, chi2Crit001[df])
					}
				}
				ksCrit := ks2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))
				for _, series := range []struct {
					label  string
					na, au []float64
				}{
					{"consensus steps", naive.steps, auto.steps},
					{"two-adjacent step", naive.twoAdj, auto.twoAdj},
				} {
					d, err := stats.KS2Sample(series.na, series.au)
					if err != nil {
						t.Fatal(err)
					}
					if d > ksCrit {
						t.Errorf("%s KS distance %.4f > %.4f (α=0.001): hybrid disagrees with naive", series.label, d, ksCrit)
					}
				}
			})
		}
	}
}

// TestScratchReuseDistributionEquivalence holds the reused-scratch
// trial pipeline to the same α = 0.001 standard: a fast-engine sample
// drawn through one dirtied Scratch (as TrialsWorker's workers do) must
// match the naive engine's fresh-allocation law in winners and stopping
// times. The byte-identity test (scratch_test.go) proves reuse cannot
// change any trajectory; this arm guards the whole statistical pipeline
// around it — seed plumbing, profile regeneration, engine-state resets.
func TestScratchReuseDistributionEquivalence(t *testing.T) {
	trials := eqTrials(t)
	for name, g := range testGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			name, g, proc := name, g, proc
			t.Run(fmt.Sprintf("%s/%v", name, proc), func(t *testing.T) {
				t.Parallel()
				base := rng.DeriveSeed(0x5c7a7c, uint64(len(name))*131+uint64(g.N())*7+uint64(proc))
				naive := gatherEq(t, g, proc, EngineNaive, rng.DeriveSeed(base, 1), trials, nil)
				reused := gatherEq(t, g, proc, EngineFast, rng.DeriveSeed(base, 2), trials, NewScratch(g))

				stat, df := chi2TwoSample(naive.winners, reused.winners)
				if df > 0 {
					crit, ok := chi2Crit001[df]
					if !ok {
						t.Fatalf("no critical value for df=%d", df)
					}
					if stat > crit {
						t.Errorf("winner χ²(%d) = %.2f > %.2f (α=0.001): reused scratch disagrees", df, stat, crit)
					}
				}
				ksCrit := ks2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))
				for _, series := range []struct {
					label  string
					na, re []float64
				}{
					{"consensus steps", naive.steps, reused.steps},
					{"two-adjacent step", naive.twoAdj, reused.twoAdj},
				} {
					d, err := stats.KS2Sample(series.na, series.re)
					if err != nil {
						t.Fatal(err)
					}
					if d > ksCrit {
						t.Errorf("%s KS distance %.4f > %.4f (α=0.001): reused scratch disagrees", series.label, d, ksCrit)
					}
				}
			})
		}
	}
}

// TestEngineLemma5WinnerLaw anchors both engines to theory rather than
// to each other. With two adjacent opinions {1,2} the conserved weight
// is a bounded martingale, so optional stopping gives the winner law
// *exactly* on every connected graph (Lemma 5): P[2 wins] equals the
// initial weight fraction of opinion 2 — S(0)/n - 1 for the edge
// process, π(A₂)(0) for the vertex process. Averaged over the uniformly
// random placement both reduce to (n-n1)/n, and the overall winner
// indicator is Bernoulli((n-n1)/n) exactly, so a binomial z-test
// applies with no asymptotic caveat.
func TestEngineLemma5WinnerLaw(t *testing.T) {
	trials := eqTrials(t)
	for name, g := range testGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			for _, engine := range []Engine{EngineNaive, EngineFast} {
				name, g, proc, engine := name, g, proc, engine
				t.Run(fmt.Sprintf("%s/%v/%v", name, proc, engine), func(t *testing.T) {
					t.Parallel()
					n := g.N()
					n1 := n / 3
					p0 := float64(n-n1) / float64(n)
					base := rng.DeriveSeed(0x1e, uint64(len(name))*977+uint64(g.N())*31+uint64(proc)*5+uint64(engine))
					wins2 := 0
					for trial := 0; trial < trials; trial++ {
						seed := rng.DeriveSeed(base, uint64(trial))
						r := rng.New(seed)
						init, err := TwoOpinionSplit(n, n1, r)
						if err != nil {
							t.Fatal(err)
						}
						res, err := Run(Config{
							Graph:    g,
							Initial:  init,
							Process:  proc,
							Engine:   engine,
							Seed:     rng.SplitMix64(seed),
							MaxSteps: 4 << 20,
						})
						if err != nil {
							t.Fatal(err)
						}
						if !res.Consensus {
							t.Fatalf("trial %d: no consensus after %d steps", trial, res.Steps)
						}
						if res.Winner == 2 {
							wins2++
						}
					}
					z := stats.BinomialZ(wins2, trials, p0)
					if math.Abs(z) > 4.5 {
						t.Errorf("P[2 wins] = %d/%d vs exact %.4f: z = %.2f (want |z| ≤ 4.5)",
							wins2, trials, p0, z)
					}
				})
			}
		}
	}
}
