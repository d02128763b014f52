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

// This file is the general-graph (CSR) arm of the blocked kernel's
// equivalence battery, mirroring the K_n arm in block_test.go: the
// lane-interleaved half-word kernels (laneLoopVertex/laneLoopEdge)
// must realize the same process law as Run's fast engine on exactly
// the families the experiment grid runs them on — an expander
// (random regular), a torus, and a path — at the same α = 0.001
// χ²/KS standard. A fuzz target over (family, n, k, B) then pins the
// kernel's byte-identity contract on arbitrary small configurations.

// csrTestGraphs returns the non-complete families the generic blocked
// kernel targets: expander, torus, path (the E3–E19 regime).
func csrTestGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rr, err := graph.RandomRegularSeeded(48, 6, 0xc5a, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"expander": rr,
		"torus":    graph.Torus(6, 8),
		"path":     graph.Path(24),
	}
}

// TestBlockCSRDistributionEquivalence compares the blocked CSR
// kernels against Run's fast engine: independent samples, two-sample
// χ² on winners and two-sample KS on both stopping times.
func TestBlockCSRDistributionEquivalence(t *testing.T) {
	trials := eqTrials(t)
	for name, g := range csrTestGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			name, g, proc := name, g, proc
			t.Run(fmt.Sprintf("%s/%v", name, proc), func(t *testing.T) {
				t.Parallel()
				base := rng.DeriveSeed(0xc5eb, uint64(len(name))*131+uint64(g.N())*7+uint64(proc))
				fast := gatherEq(t, g, proc, EngineFast, rng.DeriveSeed(base, 1), trials, nil)
				blocked := gatherBlock(t, g, proc, EngineNaive, rng.DeriveSeed(base, 2), trials, DefaultBlock, nil)

				stat, df := chi2TwoSample(fast.winners, blocked.winners)
				if df > 0 {
					crit, ok := chi2Crit001[df]
					if !ok {
						t.Fatalf("no critical value for df=%d", df)
					}
					if stat > crit {
						t.Errorf("winner χ²(%d) = %.2f > %.2f (α=0.001): CSR blocked kernel disagrees with fast engine", df, stat, crit)
					}
				}
				ksCrit := ks2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))
				for _, series := range []struct {
					label  string
					fa, bl []float64
				}{
					{"consensus steps", fast.steps, blocked.steps},
					{"two-adjacent step", fast.twoAdj, blocked.twoAdj},
				} {
					d, err := stats.KS2Sample(series.fa, series.bl)
					if err != nil {
						t.Fatal(err)
					}
					if d > ksCrit {
						t.Errorf("%s KS distance %.4f > %.4f (α=0.001): CSR blocked kernel disagrees with fast engine", series.label, d, ksCrit)
					}
				}
			})
		}
	}
}

// TestBlockCSRLaneInterleaveIdentity pins the lane loops' determinism
// directly on a graph large enough that several chunks interleave: a
// block of 8 lanes must reproduce the single-lane trajectories
// bit-for-bit, including when the batch is split across spans.
func TestBlockCSRLaneInterleaveIdentity(t *testing.T) {
	const trials = 10
	rr, err := graph.RandomRegularSeeded(300, 8, 0x1a7e, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range []Process{VertexProcess, EdgeProcess} {
		t.Run(proc.String(), func(t *testing.T) {
			n := rr.N()
			counts := []int{n / 3, n / 3, n - 2*(n/3)}
			cfg := BlockConfig{
				Graph:   rr,
				Process: proc,
				Engine:  EngineNaive,
				Seed:    0x1a7e5,
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
			got := make([]Result, trials)
			cfg.Block = 8
			if err := RunBlock(cfg, 0, trials, got); err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if resultKey(got[i]) != resultKey(ref[i]) {
					t.Fatalf("trial %d: block=8 diverged from block=1:\n  got  %s\n  want %s",
						i, resultKey(got[i]), resultKey(ref[i]))
				}
			}
			split := make([]Result, trials)
			cfg.Block = 5
			if err := RunBlock(cfg, 0, 4, split[:4]); err != nil {
				t.Fatal(err)
			}
			if err := RunBlock(cfg, 4, trials, split[4:]); err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if resultKey(split[i]) != resultKey(ref[i]) {
					t.Fatalf("trial %d: split spans diverged from block=1", i)
				}
			}
		})
	}
}

// fuzzGraph builds a small graph deterministically from the fuzz
// inputs: family selects the builder, n its size (clamped to keep runs
// fast). Random-regular rejection sampling can fail for awkward (n,d);
// those inputs are skipped.
func fuzzGraph(family uint8, n int) (*graph.Graph, error) {
	switch family % 4 {
	case 0:
		return graph.Path(2 + n%62), nil
	case 1:
		return graph.Cycle(3 + n%61), nil
	case 2:
		return graph.Torus(3+n%5, 3+n%7), nil
	default:
		nn := 8 + 2*(n%24) // even, ≥ 8
		return graph.RandomRegularSeeded(nn, 3+n%4, uint64(n)*0x9e37+1, graph.BuildOpts{})
	}
}

// FuzzBlockCSR fuzzes the blocked kernel over (family, n, k, B, seed):
// whatever the configuration, running the same trials at block size B
// must reproduce the block=1 trajectories byte-for-byte, and both the
// vertex and edge lane kernels must uphold the State invariants well
// enough to finish without panicking. This is the determinism contract
// under adversarially odd shapes (tiny degrees, odd tori, k up to 6).
func FuzzBlockCSR(f *testing.F) {
	f.Add(uint8(0), uint16(24), uint8(3), uint8(8), uint64(1))
	f.Add(uint8(1), uint16(12), uint8(2), uint8(3), uint64(2))
	f.Add(uint8(2), uint16(30), uint8(4), uint8(5), uint64(3))
	f.Add(uint8(3), uint16(40), uint8(6), uint8(2), uint64(4))
	f.Fuzz(func(t *testing.T, family uint8, n16 uint16, k8 uint8, b8 uint8, seed uint64) {
		g, err := fuzzGraph(family, int(n16))
		if err != nil {
			t.Skip() // rejection-sampled family failed for this shape
		}
		k := 2 + int(k8)%5
		block := 2 + int(b8)%8
		const trials = 5
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			cfg := BlockConfig{
				Graph:   g,
				Process: proc,
				Engine:  EngineNaive,
				Seed:    seed,
				Init: func(trial int, dst []int, r *rand.Rand) error {
					UniformOpinionsInto(dst, k, r)
					return nil
				},
				MaxSteps: 60000, // byte identity does not need consensus
			}
			ref := make([]Result, trials)
			cfg.Block = 1
			if err := RunBlock(cfg, 0, trials, ref); err != nil {
				t.Fatal(err)
			}
			got := make([]Result, trials)
			cfg.Block = block
			if err := RunBlock(cfg, 0, trials, got); err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if resultKey(got[i]) != resultKey(ref[i]) {
					t.Fatalf("%v %v block=%d trial %d diverged:\n  got  %s\n  want %s",
						g, proc, block, i, resultKey(got[i]), resultKey(ref[i]))
				}
			}
		}
	})
}
