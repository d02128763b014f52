package core

import (
	"fmt"
	"math/rand/v2"

	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
)

// scratchReuseTotal counts trials that ran on a reused (ResetTo'd)
// scratch State instead of a freshly allocated one.
var scratchReuseTotal = obs.Default.Counter("core_scratch_reuse_total")

// Scratch is a per-worker arena of reusable simulation state for
// repeated trials on one graph: the sequential loop's State and RNG, an
// initial-opinion buffer, and the blocked-kernel arena — which also
// holds the discordance engine's SparseStates that EngineFast and
// EngineAuto reseed — are allocated once and reset in place by each
// run, so a steady-state trial performs O(1) allocations instead of
// O(n). Wire one into Config.Scratch or BlockConfig.Scratch (the
// sweeps in internal/exp keep one per pool worker and graph).
//
// A Scratch is not safe for concurrent use: it must be owned by a
// single goroutine, and at most one Run may use it at a time. Reuse is
// distribution-neutral — a seeded run produces a byte-identical Result
// on a freshly constructed Scratch and on one dirtied by any number of
// earlier trials.
type Scratch struct {
	g       *graph.Graph   // nil when bound to an implicit topology
	topo    graph.Topology // the backing structure (== g when CSR)
	state   *State
	pcg     *rand.PCG
	r       *rand.Rand
	initBuf []int
	blk     *blockArena // blocked multi-trial kernel arena (block.go)
}

// NewScratch returns an empty scratch bound to g. State and engine
// structures are allocated lazily by the first run that needs them.
func NewScratch(g *graph.Graph) *Scratch {
	pcg := rand.NewPCG(0, 0)
	return &Scratch{g: g, topo: g, pcg: pcg, r: rand.New(pcg)}
}

// NewScratchTopo returns an empty scratch bound to an arbitrary
// topology — the implicit-family counterpart of NewScratch, for use
// with BlockConfig.Topology. Binding a materialized *graph.Graph is
// equivalent to NewScratch.
func NewScratchTopo(t graph.Topology) *Scratch {
	g, _ := t.(*graph.Graph)
	pcg := rand.NewPCG(0, 0)
	return &Scratch{g: g, topo: t, pcg: pcg, r: rand.New(pcg)}
}

// Graph returns the graph this scratch is bound to, or nil when it is
// bound to an implicit topology (use Topology then).
func (sc *Scratch) Graph() *graph.Graph { return sc.g }

// Topology returns the structure this scratch is bound to.
func (sc *Scratch) Topology() graph.Topology { return sc.topo }

// Rand reseeds the scratch's generator to the given seed and returns
// it. The resulting stream is identical to rng.New(seed): PCG.Seed
// installs exactly the state rand.NewPCG would, and rand.Rand holds no
// state of its own.
func (sc *Scratch) Rand(seed uint64) *rand.Rand {
	sc.pcg.Seed(seed, rng.SplitMix64(seed))
	return sc.r
}

// Initial returns the scratch's reusable initial-opinion buffer of
// length g.N(), for use with the *Into initial-profile variants
// (initial.go). The buffer's contents are whatever the previous trial
// left there; callers must fill every entry.
func (sc *Scratch) Initial() []int {
	if sc.initBuf == nil {
		sc.initBuf = make([]int, sc.topo.N())
	}
	return sc.initBuf
}

// stateFor returns the scratch's State reset to the given initial
// opinions, allocating it on first use. Run calls this in place of
// NewState.
func (sc *Scratch) stateFor(g *graph.Graph, initial []int) (*State, error) {
	if g != sc.g {
		return nil, fmt.Errorf("core: Config.Scratch is bound to %v, but Config.Graph is %v", sc.g, g)
	}
	if sc.state == nil {
		s, err := NewState(g, initial)
		if err != nil {
			return nil, err
		}
		sc.state = s
		return s, nil
	}
	if err := sc.state.ResetTo(initial); err != nil {
		return nil, err
	}
	scratchReuseTotal.Inc()
	return sc.state, nil
}

// blockArenaFor returns the scratch's blocked-kernel arena, allocating
// it on first use. The arena (block.go) owns the SoA opinion slab, the
// per-trial row states, and the per-process SparseStates; like the
// rest of the scratch it is bound to one graph and one goroutine.
func (sc *Scratch) blockArenaFor(t graph.Topology) (*blockArena, error) {
	if t != sc.topo {
		return nil, fmt.Errorf("core: Config.Scratch is bound to %v, but the run's topology is %v", sc.topo, t)
	}
	if sc.blk == nil {
		sc.blk = newBlockArena(t)
	}
	return sc.blk, nil
}
