package core

import (
	"math/rand/v2"
	"sync"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
)

// This file times the start of a trial at n = 10⁶, d = 8 — the fixed
// work an endgame trial does before its first draw — on CSR rr(10⁶, 8)
// with int32 opinions and on HashedRegular(10⁶, 8) with compact
// opinions. DESIGN.md §6 records these numbers against the previous
// implementation.

const startN, startD = 1_000_000, 8

// startBackend is one backend of the start-of-trial benchmarks.
type startBackend struct {
	name    string
	topo    graph.Topology
	compact bool
}

// startBackends builds the two backends once per test binary: the
// rr(10⁶, 8) build takes about a second.
var startBackends = sync.OnceValues(func() ([]startBackend, error) {
	rr, err := graph.RandomRegularSeeded(startN, startD, 0x5eed5, graph.BuildOpts{})
	if err != nil {
		return nil, err
	}
	hashed, err := graph.NewHashedRegular(startN, startD, 0x5eed6)
	if err != nil {
		return nil, err
	}
	return []startBackend{{"csr-int32", rr, false}, {"hashed-compact", hashed, true}}, nil
})

// startProfiles are 64 evenly spaced dissenters on a dominant opinion,
// and uniform k = 2 and k = 8, where no opinion is dominant.
var startProfiles = []seedProfile{
	{"dissenters64", func(dst []int, _ *rand.Rand) {
		for v := range dst {
			dst[v] = 1
		}
		for v := 0; v < len(dst); v += len(dst) / 64 {
			dst[v] = 2
		}
	}},
	{"uniform2", func(dst []int, r *rand.Rand) { UniformOpinionsInto(dst, 2, r) }},
	{"uniform8", func(dst []int, r *rand.Rand) { UniformOpinionsInto(dst, 8, r) }},
}

// forStartCases runs bench once per backend × profile, with op filled
// with the profile.
func forStartCases(b *testing.B, bench func(b *testing.B, be startBackend, op []int)) {
	backends, err := startBackends()
	if err != nil {
		b.Fatal(err)
	}
	op := make([]int, startN)
	for _, be := range backends {
		for _, p := range startProfiles {
			b.Run(be.name+"/"+p.name, func(b *testing.B) {
				p.fill(op, rng.New(0x5eed7))
				bench(b, be, op)
			})
		}
	}
}

// BenchmarkSparseSeed times one Seed, reseeding the same opinions: the
// previous seeding's members are the ones to clear.
func BenchmarkSparseSeed(b *testing.B) {
	forStartCases(b, func(b *testing.B, be startBackend, op []int) {
		sp, err := NewSparseState(newTopoState(b, be.topo, be.compact, op), VertexProcess)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.Seed()
		}
	})
}

// BenchmarkResetTo times one State.ResetTo of a warm State to the same
// opinions: the six start cases, and uniform k = 8 on CSR rr(2¹⁴, 8)
// with int32 opinions, the shape of a Theorem 1 reduction trial.
func BenchmarkResetTo(b *testing.B) {
	bench := func(b *testing.B, be startBackend, op []int) {
		s := newTopoState(b, be.topo, be.compact, op)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.ResetTo(op); err != nil {
				b.Fatal(err)
			}
		}
	}
	forStartCases(b, bench)
	b.Run("csr-int32-n16384/uniform8", func(b *testing.B) {
		const n = 1 << 14
		g, err := graph.RandomRegularSeeded(n, startD, 0x5eed9, graph.BuildOpts{})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, startBackend{topo: g}, UniformOpinions(n, 8, rng.New(0x5eed7)))
	})
}

// BenchmarkBlockTrialStart times one warm one-trial RunBlock under
// EngineAuto capped at two blocked chunks: almost all of it is the
// fixed work of a trial's start — the Init copy, ResetTo and, where the
// profile hands off at once, Seed.
func BenchmarkBlockTrialStart(b *testing.B) {
	forStartCases(b, func(b *testing.B, be startBackend, op []int) {
		benchBlockTrial(b, be, 2*hybridWindow, func(_ int, dst []int, _ *rand.Rand) error {
			copy(dst, op)
			return nil
		})
	})
}

// BenchmarkBlockEndgameTrial times one warm one-trial RunBlock under
// EngineAuto from 64 evenly spaced dissenters, capped at 50 rounds, as
// the endgame benchmark workloads run it.
func BenchmarkBlockEndgameTrial(b *testing.B) {
	backends, err := startBackends()
	if err != nil {
		b.Fatal(err)
	}
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			benchBlockTrial(b, be, 50*startN, func(_ int, dst []int, r *rand.Rand) error {
				startProfiles[0].fill(dst, r)
				return nil
			})
		})
	}
}

// benchBlockTrial times warm one-trial RunBlock calls on be.
func benchBlockTrial(b *testing.B, be startBackend, maxSteps int64, init func(int, []int, *rand.Rand) error) {
	cfg := BlockConfig{
		Topology: be.topo,
		Compact:  be.compact,
		Engine:   EngineAuto,
		Stop:     UntilConsensus,
		MaxSteps: maxSteps,
		Seed:     0x5eed8,
		Init:     init,
		Scratch:  NewScratchTopo(be.topo),
	}
	out := make([]Result, 1)
	if err := RunBlock(cfg, 0, 1, out); err != nil { // warm the scratch
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunBlock(cfg, i+1, i+2, out); err != nil {
			b.Fatal(err)
		}
		steps += out[0].Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/trial")
}
