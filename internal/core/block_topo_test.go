package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"div/internal/graph"
	"div/internal/stats"
)

// This file pins the topology/representation half of the blocked
// kernel's contract (block_topo.go):
//
//  1. Byte identity: the same (config, Seed, trial) yields bit-identical
//     Results across all four backend × representation combinations —
//     materialized CSR vs implicit topology, int32 vs compact byte
//     slab — because the generic kernels consume their streams exactly
//     as the tuned CSR loops do.
//  2. Law: the implicit path realizes the same process distribution as
//     the materialized one under independent seeds, held to the same
//     α = 0.001 χ²/KS standard as the engine-equivalence suite.

type topoCase struct {
	name string
	topo graph.Topology
	twin *graph.Graph
}

// blockTopoCases covers every implicit family with a CSR twin, chosen
// so both lane kernels and both complete-graph kernels run: complete(64)
// takes the magic-divide kernel, the rest take the lane loops.
func blockTopoCases(t testing.TB) []topoCase {
	t.Helper()
	mk := func(name string, topo graph.Topology, err error) topoCase {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return topoCase{name: name, topo: topo, twin: graph.MustMaterialize(topo)}
	}
	complete, errC := graph.NewImplicitComplete(64)
	cycle, errCy := graph.NewImplicitCycle(24)
	path, errP := graph.NewImplicitPath(17)
	torus, errT := graph.NewImplicitTorus(6, 8)
	cube, errH := graph.NewImplicitHypercube(4)
	circ, errR := graph.NewImplicitCirculant(48, []int{1, 2, 3})
	return []topoCase{
		mk("complete", complete, errC),
		mk("cycle", cycle, errCy),
		mk("path", path, errP),
		mk("torus", torus, errT),
		mk("hypercube", cube, errH),
		mk("circulant", circ, errR),
	}
}

// runTopoBlock runs trials of one point through RunBlock on an
// arbitrary topology (materialized or implicit) in either
// representation and returns the Results.
func runTopoBlock(t *testing.T, topo graph.Topology, compact bool, proc Process, engine Engine, k int, seed uint64, trials, block int) []Result {
	t.Helper()
	n := topo.N()
	counts := make([]int, k)
	for i := range counts {
		counts[i] = n / k
	}
	counts[k-1] += n - (n/k)*k
	out := make([]Result, trials)
	err := RunBlock(BlockConfig{
		Topology: topo,
		Compact:  compact,
		Process:  proc,
		Engine:   engine,
		Seed:     seed,
		Init: func(trial int, dst []int, r *rand.Rand) error {
			_, err := BlockOpinionsInto(dst, counts, r)
			return err
		},
		MaxSteps: 4 << 20,
		Block:    block,
	}, 0, trials, out)
	if err != nil {
		t.Fatalf("RunBlock(%s, compact=%v, %v, %v): %v", topo.Name(), compact, proc, engine, err)
	}
	return out
}

// TestBlockTopoByteIdentity is the acceptance pin for the tentpole:
// for every implicit family with a CSR twin and both processes, the
// four backend × representation combinations produce trial-for-trial
// bit-identical Results under EngineNaive, at unequal block sizes.
func TestBlockTopoByteIdentity(t *testing.T) {
	const trials = 10
	const k = 5
	for _, tc := range blockTopoCases(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, proc), func(t *testing.T) {
				seed := uint64(0x70b0) + uint64(tc.topo.N())
				base := runTopoBlock(t, tc.twin, false, proc, EngineNaive, k, seed, trials, 4)
				arms := []struct {
					label   string
					topo    graph.Topology
					compact bool
					block   int
				}{
					{"csr/compact", tc.twin, true, 4},
					{"implicit/int32", tc.topo, false, 3},
					{"implicit/compact", tc.topo, true, 1},
				}
				for _, arm := range arms {
					got := runTopoBlock(t, arm.topo, arm.compact, proc, EngineNaive, k, seed, trials, arm.block)
					for i := range base {
						if resultKey(got[i]) != resultKey(base[i]) {
							t.Errorf("%s trial %d diverged from csr/int32:\n  base %s\n  got  %s",
								arm.label, i, resultKey(base[i]), resultKey(got[i]))
						}
					}
				}
			})
		}
	}
}

// TestBlockTopoCompleteBig drives the full-word complete-graph kernel
// (n > 8192, no magic divide) on the implicit backend in both
// representations and pins their identity. There is no materialized arm
// — K_8300's adjacency is exactly the allocation the implicit path
// exists to avoid — so the int32 implicit run is the reference.
func TestBlockTopoCompleteBig(t *testing.T) {
	const n, trials, k = 8300, 3, 6
	topo, err := graph.NewImplicitComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	for i := range counts {
		counts[i] = n / k
	}
	counts[k-1] += n - (n/k)*k
	run := func(compact bool) []Result {
		out := make([]Result, trials)
		err := RunBlock(BlockConfig{
			Topology: topo,
			Compact:  compact,
			Stop:     UntilMaxSteps,
			MaxSteps: 30_000,
			Seed:     0xb16,
			Init: func(trial int, dst []int, r *rand.Rand) error {
				_, err := BlockOpinionsInto(dst, counts, r)
				return err
			},
			Block: 2,
		}, 0, trials, out)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	i32, b8 := run(false), run(true)
	for i := range i32 {
		if i32[i].Steps != 30_000 {
			t.Errorf("trial %d stopped at %d steps, want exactly 30000", i, i32[i].Steps)
		}
		if resultKey(i32[i]) != resultKey(b8[i]) {
			t.Errorf("trial %d: compact diverged:\n  int32 %s\n  byte  %s",
				i, resultKey(i32[i]), resultKey(b8[i]))
		}
	}
}

// gatherTopoBlock collects the same statistics as gatherBlock from a
// blocked run on an arbitrary topology.
func gatherTopoBlock(t *testing.T, topo graph.Topology, compact bool, proc Process, baseSeed uint64, trials int) eqSample {
	t.Helper()
	out := runTopoBlock(t, topo, compact, proc, EngineNaive, 3, baseSeed, trials, 0)
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

// TestBlockTopoDistributionEquivalence is the χ²/KS arm: the blocked
// kernel on an implicit torus/hypercube, under seeds independent of the
// materialized arm's, must realize the same winner and stopping-time
// distributions as the materialized CSR run.
func TestBlockTopoDistributionEquivalence(t *testing.T) {
	trials := eqTrials(t)
	torus, err := graph.NewImplicitTorus(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := graph.NewImplicitHypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		topo graph.Topology
	}{{"torus", torus}, {"hypercube", cube}} {
		twin := graph.MustMaterialize(tc.topo)
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, proc), func(t *testing.T) {
				mat := gatherBlock(t, twin, proc, EngineNaive, 0x5eed, trials, 0, nil)
				imp := gatherTopoBlock(t, tc.topo, true, proc, 0xd15c, trials)
				if stat, df := chi2TwoSample(mat.winners, imp.winners); df > 0 && stat > chi2Crit001[df] {
					t.Errorf("winner χ²(%d) = %.2f > %.2f (α=0.001): implicit disagrees with materialized", df, stat, chi2Crit001[df])
				}
				ksCrit := ks2Crit001 * math.Sqrt(float64(2*trials)/float64(trials*trials))
				for _, series := range []struct {
					label  string
					ma, im []float64
				}{
					{"consensus steps", mat.steps, imp.steps},
					{"two-adjacent step", mat.twoAdj, imp.twoAdj},
				} {
					d, err := stats.KS2Sample(series.ma, series.im)
					if err != nil {
						t.Fatal(err)
					}
					if d > ksCrit {
						t.Errorf("%s KS distance %.4f > %.4f (α=0.001): implicit disagrees with materialized", series.label, d, ksCrit)
					}
				}
			})
		}
	}
}

// TestBlockTopoHashedRegular smokes the one implicit family without a
// CSR twin: naive, auto, and fast runs must all reach consensus on a
// winner inside the initial window. EngineAuto and EngineFast retire to
// the sparse endgame engine here, so they are distribution- not
// byte-equivalent to EngineNaive (TestSparseDistributionEquivalence
// holds them to the χ²/KS standard; this test pins the multigraph
// plumbing end to end).
func TestBlockTopoHashedRegular(t *testing.T) {
	topo, err := graph.NewHashedRegular(1024, 8, 0xfeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range []Process{VertexProcess, EdgeProcess} {
		for _, eng := range []Engine{EngineNaive, EngineAuto, EngineFast} {
			out := runTopoBlock(t, topo, true, proc, eng, 4, 0xabc, 4, 2)
			for i := range out {
				if !out[i].Consensus {
					t.Errorf("%v/%v trial %d: no consensus", proc, eng, i)
				}
				if w := out[i].Winner; w < 1 || w > 4 {
					t.Errorf("%v/%v trial %d: winner %d outside initial window [1,4]", proc, eng, i, w)
				}
			}
		}
	}
}

// TestBlockTopoRegularProcesses pins the uniform-arc kernel selection:
// on a d-regular topology the vertex process picks (v, w) with
// probability 1/(n·d) = 1/2m, so it runs the edge process's arc draw,
// and at the same seed its Results equal the edge process's trial for
// trial on every backend and representation. EngineAuto is covered
// too: on a regular topology the discordance engine draws a uniform
// discordant arc for both processes.
func TestBlockTopoRegularProcesses(t *testing.T) {
	rr, err := graph.RandomRegularSeeded(1<<10, 8, 0x7e61, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := graph.NewHashedRegular(1<<10, 8, 0x7e62)
	if err != nil {
		t.Fatal(err)
	}
	cycle, errCy := graph.NewImplicitCycle(24)
	torus, errT := graph.NewImplicitTorus(6, 8)
	cube, errH := graph.NewImplicitHypercube(4)
	circ, errR := graph.NewImplicitCirculant(48, []int{1, 2, 3})
	for _, err := range []error{errCy, errT, errH, errR} {
		if err != nil {
			t.Fatal(err)
		}
	}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for _, tc := range []struct {
		name    string
		topo    graph.Topology
		compact bool
	}{
		{"rr/int32", rr, false},
		{"rr/compact", rr, true},
		{"hashed/compact", hashed, true},
		{"cycle", cycle, false},
		{"torus", torus, false},
		{"hypercube", cube, false},
		{"circulant", circ, false},
	} {
		for _, eng := range []Engine{EngineNaive, EngineAuto} {
			for _, block := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%v/B%d", tc.name, eng, block), func(t *testing.T) {
					seed := uint64(0x7e63) + uint64(tc.topo.N())
					vtx := runTopoBlock(t, tc.topo, tc.compact, VertexProcess, eng, 4, seed, trials, block)
					edge := runTopoBlock(t, tc.topo, tc.compact, EdgeProcess, eng, 4, seed, trials, block)
					for i := range vtx {
						if resultKey(vtx[i]) != resultKey(edge[i]) {
							t.Errorf("trial %d: vertex process diverged from edge process:\n  vertex %s\n  edge   %s",
								i, resultKey(vtx[i]), resultKey(edge[i]))
						}
					}
				})
			}
		}
	}
}

// TestBlockTopoValidation pins the error surface of the new config
// combinations.
func TestBlockTopoValidation(t *testing.T) {
	torus, err := graph.NewImplicitTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	twin := graph.MustMaterialize(torus)
	other := graph.Cycle(16)
	wide, err := graph.NewImplicitCycle(300)
	if err != nil {
		t.Fatal(err)
	}
	initK := func(k int) func(int, []int, *rand.Rand) error {
		return func(trial int, dst []int, r *rand.Rand) error {
			for i := range dst {
				dst[i] = i % k
			}
			return nil
		}
	}
	out := make([]Result, 1)
	kn, err := graph.NewImplicitComplete(32)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  BlockConfig
	}{
		{"fast engine on implicit complete", BlockConfig{Topology: kn, Engine: EngineFast, Init: initK(3)}},
		{"graph and mismatched topology", BlockConfig{Graph: other, Topology: torus, Init: initK(3)}},
		{"edge process without arc map", BlockConfig{Topology: noArcTopo{torus}, Process: EdgeProcess, Init: initK(3)}},
		{"compact window over 256", BlockConfig{Topology: wide, Compact: true, Init: initK(300), MaxSteps: 10, Stop: UntilMaxSteps}},
	}
	for _, tc := range cases {
		if err := RunBlock(tc.cfg, 0, 1, out); err == nil {
			t.Errorf("%s: RunBlock accepted an invalid config", tc.name)
		}
	}
	// Graph == Topology (same pointer) is the one both-set combination
	// that must be accepted.
	if err := RunBlock(BlockConfig{Graph: twin, Topology: twin, Init: initK(3)}, 0, 1, out); err != nil {
		t.Errorf("Graph==Topology rejected: %v", err)
	}
	// EngineFast on non-complete implicit and compact DIV runs routes to
	// the sparse endgame engine and must be accepted (it used to error).
	for _, tc := range []struct {
		name string
		cfg  BlockConfig
	}{
		{"fast engine on implicit", BlockConfig{Topology: torus, Engine: EngineFast, Init: initK(3)}},
		{"fast engine on compact", BlockConfig{Graph: twin, Compact: true, Engine: EngineFast, Init: initK(3)}},
	} {
		if err := RunBlock(tc.cfg, 0, 1, out); err != nil {
			t.Errorf("%s: RunBlock rejected a sparse-eligible config: %v", tc.name, err)
		}
	}
}

// noArcTopo hides the embedded topology's Arc method, modelling a
// custom Topology implementation that cannot enumerate arcs.
type noArcTopo struct{ graph.Topology }

// FuzzBlockTopo fuzzes the identity claim across families, sizes, and
// seeds: one trial on the implicit backend in both representations must
// match the materialized int32 reference bit for bit.
func FuzzBlockTopo(f *testing.F) {
	f.Add(uint8(0), uint8(12), uint8(3), uint64(1))
	f.Add(uint8(1), uint8(9), uint8(5), uint64(2))
	f.Add(uint8(2), uint8(30), uint8(2), uint64(3))
	f.Add(uint8(3), uint8(16), uint8(4), uint64(4))
	f.Fuzz(func(t *testing.T, fam, size, kRaw uint8, seed uint64) {
		var topo graph.Topology
		var err error
		switch fam % 4 {
		case 0:
			topo, err = graph.NewImplicitCycle(3 + int(size)%30)
		case 1:
			topo, err = graph.NewImplicitTorus(3+int(size)%5, 3+int(size)%7)
		case 2:
			topo, err = graph.NewImplicitHypercube(1 + int(size)%5)
		case 3:
			n := 5 + int(size)%40
			topo, err = graph.NewImplicitCirculant(n, []int{1, 1 + n/4})
		}
		if err != nil {
			t.Skip()
		}
		twin := graph.MustMaterialize(topo)
		k := 2 + int(kRaw)%6
		proc := VertexProcess
		if seed%2 == 1 {
			proc = EdgeProcess
		}
		base := runTopoBlock(t, twin, false, proc, EngineNaive, k, seed, 2, 2)
		for _, arm := range []struct {
			label   string
			topo    graph.Topology
			compact bool
		}{{"csr/compact", twin, true}, {"implicit/int32", topo, false}, {"implicit/compact", topo, true}} {
			got := runTopoBlock(t, arm.topo, arm.compact, proc, EngineNaive, k, seed, 2, 2)
			for i := range base {
				if resultKey(got[i]) != resultKey(base[i]) {
					t.Errorf("%s trial %d diverged from csr/int32", arm.label, i)
				}
			}
		}
	})
}
