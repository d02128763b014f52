package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"div/internal/graph"
	"div/internal/obs"
)

// This file pins BlockConfig's Observer and TraceSupport contract on
// every blocked kernel, the contract Config.Observer has on core.Run
// (whose fast and auto engines are one-row RunBlocks): the observer
// runs at step 0 and at every multiple of ObserveEvery a trial reaches,
// on a consistent State; returning false stops the trial at exactly
// that step; Stages trace the support; and under EngineNaive an
// observer changes no Result.

// observerKernel is one blocked kernel with the engines it serves.
type observerKernel struct {
	name    string
	topo    graph.Topology
	compact bool
	rule    Rule
	proc    Process
	engines []Engine
	k       int
	// maxSteps caps the kernels whose trials would not finish in a test
	// (K_8300); 0 runs to consensus.
	maxSteps int64
}

func observerKernels(t *testing.T) []observerKernel {
	t.Helper()
	all := []Engine{EngineNaive, EngineFast, EngineAuto}
	rr, err := graph.RandomRegularSeeded(300, 6, 0x0b5, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := graph.NewImplicitTorus(12, 15)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := graph.NewHashedRegular(240, 6, 0x0b6)
	if err != nil {
		t.Fatal(err)
	}
	big, err := graph.NewImplicitComplete(8300)
	if err != nil {
		t.Fatal(err)
	}
	return []observerKernel{
		{name: "complete-small", topo: graph.Complete(40), engines: all, k: 4},
		{name: "complete-big", topo: big, engines: []Engine{EngineNaive, EngineAuto}, k: 4, maxSteps: 30_000},
		{name: "csr-lanes/vertex", topo: rr, engines: all, k: 3},
		{name: "csr-lanes/edge", topo: rr, proc: EdgeProcess, engines: all, k: 3},
		{name: "topo-lanes/compact", topo: rr, compact: true, engines: all, k: 3},
		{name: "topo-lanes/implicit", topo: torus, engines: all, k: 3},
		{name: "topo-lanes/implicit-compact-edge", topo: hashed, compact: true, proc: EdgeProcess, engines: all, k: 3},
		{name: "generic-rule", topo: rr, rule: IncrementalStep{S: 2}, engines: all, k: 5},
	}
}

// config builds the kernel's BlockConfig for one engine.
func (kc observerKernel) config(engine Engine, seed uint64) BlockConfig {
	n := kc.topo.N()
	counts := make([]int, kc.k)
	for i := range counts {
		counts[i] = n / kc.k
	}
	counts[kc.k-1] += n - (n/kc.k)*kc.k
	return BlockConfig{
		Topology: kc.topo,
		Compact:  kc.compact,
		Process:  kc.proc,
		Rule:     kc.rule,
		Engine:   engine,
		Seed:     seed,
		MaxSteps: kc.maxSteps,
		Init: func(_ int, dst []int, r *rand.Rand) error {
			_, err := BlockOpinionsInto(dst, counts, r)
			return err
		},
		Block: 3,
	}
}

// forWindows runs body at the production hand-off window and at a
// 64-draw one, under which the auto trials of these small graphs hand
// off to the sparse engine and rebound many times. Tests that use it
// mutate the package-level knob, so they are not parallel.
func forWindows(t *testing.T, body func(t *testing.T)) {
	old := hybridWindow
	defer func() { hybridWindow = old }()
	for _, w := range []int64{old, 64} {
		hybridWindow = w
		t.Run(fmt.Sprintf("window=%d", w), body)
	}
}

// runSpans runs trials [0, trials) in two RunBlock calls, as the
// scheduler splits a batch into spans.
func runSpans(t *testing.T, cfg BlockConfig, trials int) []Result {
	t.Helper()
	out := make([]Result, trials)
	if err := RunBlock(cfg, 0, 2, out[:2]); err != nil {
		t.Fatal(err)
	}
	if err := RunBlock(cfg, 2, trials, out[2:]); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBlockObserverMatrix runs every kernel × engine with an observer
// at an odd period and checks the call sites, the State at each call,
// the support trace, and, under EngineNaive, that the observer leaves
// every Result byte-identical.
func TestBlockObserverMatrix(t *testing.T) {
	forWindows(t, testBlockObserverMatrix)
}

func testBlockObserverMatrix(t *testing.T) {
	const trials, every = 5, 37
	for _, kc := range observerKernels(t) {
		for _, engine := range kc.engines {
			t.Run(fmt.Sprintf("%s/%v", kc.name, engine), func(t *testing.T) {
				seed := uint64(0x0b5e) + uint64(kc.topo.N())
				seen := make([][]int64, trials)
				cfg := kc.config(engine, seed)
				cfg.TraceSupport = true
				cfg.ObserveEvery = every
				cfg.Observer = func(trial int, s *State) bool {
					if err := s.CheckInvariants(); err != nil {
						t.Fatalf("trial %d step %d: %v", trial, s.Steps(), err)
					}
					seen[trial] = append(seen[trial], s.Steps())
					return true
				}
				out := runSpans(t, cfg, trials)
				for trial, res := range out {
					if res.Aborted {
						t.Fatalf("trial %d aborted by an observer that never aborts", trial)
					}
					if kc.maxSteps == 0 && !res.Consensus {
						t.Fatalf("trial %d: no consensus after %d steps", trial, res.Steps)
					}
					got := seen[trial]
					if want := res.Steps/every + 1; int64(len(got)) != want {
						t.Fatalf("trial %d: %d observer calls over %d steps at period %d, want %d", trial, len(got), res.Steps, every, want)
					}
					for i, st := range got {
						if st != int64(i)*every {
							t.Fatalf("trial %d: call %d at step %d, want %d", trial, i, st, int64(i)*every)
						}
					}
					checkStages(t, trial, res)
				}
				if engine != EngineNaive {
					return
				}
				bare := kc.config(engine, seed)
				bare.TraceSupport = true
				for trial, res := range runSpans(t, bare, trials) {
					if resultKey(res) != resultKey(out[trial]) {
						t.Fatalf("trial %d: observer changed the Result\n  bare     %s\n  observed %s", trial, resultKey(res), resultKey(out[trial]))
					}
				}
			})
		}
	}
}

// checkStages holds a Result's support trace to its contract: it opens
// at step 0, its steps never decrease and stay within the run, every
// stage names a distinct support, and the last one is the final range.
func checkStages(t *testing.T, trial int, res Result) {
	t.Helper()
	st := res.Stages
	if len(st) == 0 || st[0].FromStep != 0 {
		t.Fatalf("trial %d: support trace does not open at step 0: %+v", trial, st)
	}
	for i := 1; i < len(st); i++ {
		if st[i].FromStep < st[i-1].FromStep || st[i].FromStep > res.Steps {
			t.Fatalf("trial %d: stage %d at step %d out of order (run of %d steps)", trial, i, st[i].FromStep, res.Steps)
		}
		if fmt.Sprint(st[i].Opinions) == fmt.Sprint(st[i-1].Opinions) {
			t.Fatalf("trial %d: stage %d repeats support %v", trial, i, st[i].Opinions)
		}
	}
	last := st[len(st)-1].Opinions
	if last[0] != res.FinalMin || last[len(last)-1] != res.FinalMax {
		t.Fatalf("trial %d: last stage %v, final range [%d,%d]", trial, last, res.FinalMin, res.FinalMax)
	}
}

// TestBlockObserverAbort: an observer that returns false stops its
// trial at exactly the observed step on every kernel and engine, marks
// it Aborted (in the Result and the probe's Done event), and leaves
// the other trials of the block running.
func TestBlockObserverAbort(t *testing.T) {
	forWindows(t, testBlockObserverAbort)
}

func testBlockObserverAbort(t *testing.T) {
	const trials, every = 5, 29
	for _, kc := range observerKernels(t) {
		for _, engine := range kc.engines {
			t.Run(fmt.Sprintf("%s/%v", kc.name, engine), func(t *testing.T) {
				calls := make([]int, trials)
				probes := make([]*collectingProbe, trials)
				cfg := kc.config(engine, 0xab0+uint64(kc.topo.N()))
				cfg.Stop = UntilMaxSteps
				cfg.MaxSteps = 1 << 40
				cfg.ObserveEvery = every
				// Trial t aborts on its (t+2)-th call, at step (t+1)·every.
				cfg.Observer = func(trial int, s *State) bool {
					calls[trial]++
					return calls[trial] < trial+2
				}
				cfg.Probe = func(trial int, _ uint64) obs.Probe {
					probes[trial] = &collectingProbe{}
					return probes[trial]
				}
				for trial, res := range runSpans(t, cfg, trials) {
					if want := int64(trial+1) * every; !res.Aborted || res.Steps != want {
						t.Fatalf("trial %d: aborted=%v at step %d, want aborted at %d", trial, res.Aborted, res.Steps, want)
					}
					if d := probes[trial].dones; len(d) != 1 || !d[0].Aborted || d[0].Step != res.Steps {
						t.Fatalf("trial %d: Done events %+v", trial, d)
					}
				}
			})
		}
	}
}
