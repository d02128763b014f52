package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"testing"
	"time"

	"div/internal/core"
	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
)

// This file is the machine-readable perf harness behind
// `divbench -bench-json` (and `make bench-engine`): it measures the
// trial pipeline — per-step cost, allocations per step, and trials per
// second with and without per-worker Scratch reuse — for every
// engine × process × graph family, plus the E2 reference point the
// acceptance criteria track across PRs. Probes are deliberately nil
// throughout: the numbers characterize the zero-instrumentation hot
// path.

// The E2 reference point (K_n, k=8, extremes profile, vertex process,
// auto engine, run to two adjacent opinions) measured immediately
// before the blocked SoA stepping kernel landed, on the repository's
// CI hardware — i.e. the sequential zero-allocation pipeline's
// throughput. Recorded here so BENCH_engine.json always carries the
// pre-change baseline the speedup criterion is judged against.
const (
	e2BaselineN            = 3200
	e2BaselineTrialsPerSec = 425.9
	e2BaselineNsPerStep    = 34.4
)

// e2BlockSizes is the block-size sweep measured on the E2 point.
var e2BlockSizes = []int{1, 4, 8, 16}

// BenchRow is one engine × process × graph-family measurement.
type BenchRow struct {
	Graph                string  `json:"graph"`
	Process              string  `json:"process"`
	Engine               string  `json:"engine"`
	Trials               int     `json:"trials"`
	Steps                int64   `json:"steps"`
	NsPerStepReused      float64 `json:"ns_per_step_reused"`
	TrialsPerSecFresh    float64 `json:"trials_per_sec_fresh"`
	TrialsPerSecReused   float64 `json:"trials_per_sec_reused"`
	AllocsPerStep        float64 `json:"allocs_per_step"`
	AllocsPerTrialReused float64 `json:"allocs_per_trial_reused"`
}

// BenchBaseline is the recorded pre-change reference measurement.
type BenchBaseline struct {
	N            int     `json:"n"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	NsPerStep    float64 `json:"ns_per_step"`
	Note         string  `json:"note"`
}

// BenchE2 is the current E2 reference-point measurement.
type BenchE2 struct {
	N                 int     `json:"n"`
	K                 int     `json:"k"`
	Trials            int     `json:"trials"`
	Steps             int64   `json:"steps"`
	TrialsPerSecFresh float64 `json:"trials_per_sec_fresh"`
	// TrialsPerSecReused is core.Run's throughput with per-worker
	// Scratch reuse — one trial per call, which for the auto engine is a
	// one-row RunBlock — kept for continuity with earlier reports.
	TrialsPerSecReused float64 `json:"trials_per_sec_reused"`
	NsPerStepReused    float64 `json:"ns_per_step_reused"`
	// BlockTrialsPerSec maps block size B to the blocked kernel's
	// throughput on the same point (scratch arena reused, nil probes).
	BlockTrialsPerSec map[int]float64 `json:"block_trials_per_sec"`
	// BestBlock and BestBlockTrialsPerSec identify the headline number:
	// the fastest block size of the sweep. SpeedupVsBaseline compares
	// it against the recorded pre-blocked-kernel baseline (valid when N
	// matches the baseline's N).
	BestBlock             int     `json:"best_block"`
	BestBlockTrialsPerSec float64 `json:"best_block_trials_per_sec"`
	BestBlockNsPerStep    float64 `json:"best_block_ns_per_step"`
	SpeedupVsBaseline     float64 `json:"speedup_vs_baseline"`
}

// BenchReport is the document written to BENCH_engine.json.
type BenchReport struct {
	Quick bool   `json:"quick"`
	Note  string `json:"note"`
	// Provenance attributes the numbers to the code, configuration, and
	// machine that produced them — without it a checked-in report is
	// uninterpretable once the hardware or commit changes.
	Provenance *obs.Provenance `json:"provenance,omitempty"`
	Baseline   BenchBaseline   `json:"baseline_pre_pipeline"`
	E2         BenchE2         `json:"e2_point"`
	// Scaling is the multicore section (scaling.go), present when the
	// run requested a width sweep (`divbench -widths`).
	Scaling *BenchScaling `json:"scaling,omitempty"`
	// BigN is the million-vertex section (bign.go), present when the
	// run requested it (`divbench -bench-bign` / `make bench-bign`).
	BigN *BenchBigN `json:"bign,omitempty"`
	// Build is the graph-construction section (build.go), present when
	// the run requested it (`divbench -bench-build` / `make bench-build`).
	Build *BenchBuild `json:"build,omitempty"`
	Rows  []BenchRow  `json:"rows"`
}

// benchFamily is one graph under test.
type benchFamily struct {
	name string
	g    *graph.Graph
}

// benchFamilies builds the benchmark graphs: a complete graph (dense,
// implicit adjacency), a random regular graph (the expander workload),
// and a star — the discordance engine's hardest degree sequence: hub
// updates touch every leaf, and under the edge process the hub and the
// leaves sit in degree buckets 2^14 and 2^0 of the rejection sampler.
func benchFamilies(p Params) ([]benchFamily, error) {
	nK := p.pick(256, 2000)
	nRR := p.pick(512, 10000)
	nStar := p.pick(512, 10000)
	rr, err := graph.RandomRegularSeeded(nRR, 8, rng.DeriveSeed(p.Seed, 0xbe7c), graph.BuildOpts{})
	if err != nil {
		return nil, err
	}
	return []benchFamily{
		{fmt.Sprintf("complete(n=%d)", nK), graph.Complete(nK)},
		{fmt.Sprintf("rr(n=%d,d=8)", nRR), rr},
		{fmt.Sprintf("star(n=%d)", nStar), graph.Star(nStar)},
	}, nil
}

// benchTrial runs one consensus-bound trial of the standard benchmark
// workload (extremes profile, k=4, run to two adjacent opinions) and
// returns the realized step count. With a non-nil scratch the trial
// reuses it; the trajectory is byte-identical either way.
func benchTrial(g *graph.Graph, proc core.Process, eng core.Engine, k int, seed uint64, sc *core.Scratch) (int64, error) {
	var init []int
	if sc != nil {
		init = core.ExtremesOpinionsInto(sc.Initial(), k, sc.Rand(seed))
	} else {
		init = core.ExtremesOpinions(g.N(), k, rng.New(seed))
	}
	res, err := core.Run(core.Config{
		Engine:  eng,
		Graph:   g,
		Initial: init,
		Process: proc,
		Stop:    core.UntilTwoAdjacent,
		Seed:    rng.SplitMix64(seed),
		Scratch: sc,
	})
	if err != nil {
		return 0, err
	}
	return res.Steps, nil
}

// benchSteadyAllocs measures allocations per steady-state step: two
// fixed-step runs on a reused scratch whose lengths differ by
// span steps; the difference isolates the per-step allocation rate
// from the per-trial constant. The target (asserted by the
// allocation-regression tests) is exactly 0.
func benchSteadyAllocs(g *graph.Graph, proc core.Process, eng core.Engine, seed uint64, sc *core.Scratch, short, long int64) (float64, error) {
	var trialErr error
	runFor := func(maxSteps int64) float64 {
		return testing.AllocsPerRun(2, func() {
			init := core.UniformOpinionsInto(sc.Initial(), 5, sc.Rand(seed))
			_, err := core.Run(core.Config{
				Engine:   eng,
				Graph:    g,
				Initial:  init,
				Process:  proc,
				Stop:     core.UntilMaxSteps,
				MaxSteps: maxSteps,
				Seed:     rng.SplitMix64(seed),
				Scratch:  sc,
			})
			if err != nil && trialErr == nil {
				trialErr = err
			}
		})
	}
	aShort := runFor(short)
	aLong := runFor(long)
	if trialErr != nil {
		return 0, trialErr
	}
	return (aLong - aShort) / float64(long-short), nil
}

// BenchEngine measures the whole matrix and returns the report.
func BenchEngine(p Params) (*BenchReport, error) {
	p = p.withDefaults()
	prov := obs.CollectProvenance("divbench", p.Seed, p.Engine)
	rep := &BenchReport{
		Quick:      p.Quick,
		Provenance: &prov,
		Note:       "generated by divbench -bench-json; trials_per_sec_* compare per-trial construction (fresh) vs per-worker Scratch reuse (reused); nil probes throughout",
		Baseline: BenchBaseline{
			N:            e2BaselineN,
			TrialsPerSec: e2BaselineTrialsPerSec,
			NsPerStep:    e2BaselineNsPerStep,
			Note:         "E2 point measured at the commit before the zero-allocation pipeline",
		},
	}
	fams, err := benchFamilies(p)
	if err != nil {
		return nil, err
	}
	engines := []core.Engine{core.EngineNaive, core.EngineFast, core.EngineAuto}
	procs := []core.Process{core.VertexProcess, core.EdgeProcess}
	trials := p.pick(6, 10)
	k := 4
	shortSteps, longSteps := int64(p.pick(2048, 8192)), int64(p.pick(16384, 65536))

	for _, fam := range fams {
		for _, proc := range procs {
			for _, eng := range engines {
				sc := core.NewScratch(fam.g)
				seedBase := rng.DeriveSeed(p.Seed, 0xbe00)
				// Warm the scratch (and the shared ArcIndex) outside the clock.
				if _, err := benchTrial(fam.g, proc, eng, k, rng.DeriveSeed(seedBase, 0), sc); err != nil {
					return nil, fmt.Errorf("bench %s/%v/%v: %w", fam.name, proc, eng, err)
				}
				var steps int64
				start := time.Now()
				for t := 0; t < trials; t++ {
					st, err := benchTrial(fam.g, proc, eng, k, rng.DeriveSeed(seedBase, uint64(t)), sc)
					if err != nil {
						return nil, fmt.Errorf("bench %s/%v/%v: %w", fam.name, proc, eng, err)
					}
					steps += st
				}
				reused := time.Since(start)
				start = time.Now()
				for t := 0; t < trials; t++ {
					if _, err := benchTrial(fam.g, proc, eng, k, rng.DeriveSeed(seedBase, uint64(t)), nil); err != nil {
						return nil, fmt.Errorf("bench %s/%v/%v: %w", fam.name, proc, eng, err)
					}
				}
				fresh := time.Since(start)
				allocsPerStep, err := benchSteadyAllocs(fam.g, proc, eng, rng.DeriveSeed(seedBase, 0xa110c), sc, shortSteps, longSteps)
				if err != nil {
					return nil, fmt.Errorf("bench allocs %s/%v/%v: %w", fam.name, proc, eng, err)
				}
				allocsPerTrial := testing.AllocsPerRun(3, func() {
					_, _ = benchTrial(fam.g, proc, eng, k, rng.DeriveSeed(seedBase, 1), sc)
				})
				rep.Rows = append(rep.Rows, BenchRow{
					Graph:                fam.name,
					Process:              proc.String(),
					Engine:               eng.String(),
					Trials:               trials,
					Steps:                steps,
					NsPerStepReused:      float64(reused.Nanoseconds()) / float64(steps),
					TrialsPerSecFresh:    float64(trials) / fresh.Seconds(),
					TrialsPerSecReused:   float64(trials) / reused.Seconds(),
					AllocsPerStep:        allocsPerStep,
					AllocsPerTrialReused: allocsPerTrial,
				})
			}
		}
	}

	// The E2 reference point: the sweep endpoint of E2a, exactly as the
	// experiment runs it (same profile, stop condition, and seeds).
	e2n := p.pick(800, e2BaselineN)
	e2trials := p.pick(10, 30)
	e2k := 8
	g := graph.Complete(e2n)
	sc := core.NewScratch(g)
	seedBase := rng.DeriveSeed(p.Seed, 0xe2be)
	if _, err := benchTrial(g, core.VertexProcess, core.EngineAuto, e2k, rng.DeriveSeed(seedBase, 0), sc); err != nil {
		return nil, err
	}
	var steps int64
	start := time.Now()
	for t := 0; t < e2trials; t++ {
		st, err := benchTrial(g, core.VertexProcess, core.EngineAuto, e2k, rng.DeriveSeed(seedBase, uint64(t)), sc)
		if err != nil {
			return nil, err
		}
		steps += st
	}
	reused := time.Since(start)
	start = time.Now()
	for t := 0; t < e2trials; t++ {
		if _, err := benchTrial(g, core.VertexProcess, core.EngineAuto, e2k, rng.DeriveSeed(seedBase, uint64(t)), nil); err != nil {
			return nil, err
		}
	}
	fresh := time.Since(start)
	rep.E2 = BenchE2{
		N:                  e2n,
		K:                  e2k,
		Trials:             e2trials,
		Steps:              steps,
		TrialsPerSecFresh:  float64(e2trials) / fresh.Seconds(),
		TrialsPerSecReused: float64(e2trials) / reused.Seconds(),
		NsPerStepReused:    float64(reused.Nanoseconds()) / float64(steps),
		BlockTrialsPerSec:  map[int]float64{},
	}

	// Block-size sweep on the same point: the blocked kernel with a
	// reused arena, one warm-up block outside the clock per size. The
	// Results are byte-identical across sizes; only wall clock moves.
	e2blockCfg := func(sc *core.Scratch, b int) core.BlockConfig {
		return core.BlockConfig{
			Engine:  core.EngineAuto,
			Graph:   g,
			Process: core.VertexProcess,
			Stop:    core.UntilTwoAdjacent,
			Seed:    seedBase,
			Init: func(trial int, dst []int, r *rand.Rand) error {
				core.ExtremesOpinionsInto(dst, e2k, r)
				return nil
			},
			Scratch: sc,
			Block:   b,
		}
	}
	// All sizes warm on, then time, the same trial indices, so every
	// size measures an identical workload.
	warmN := e2BlockSizes[len(e2BlockSizes)-1]
	warm := make([]core.Result, warmN)
	blockOut := make([]core.Result, e2trials)
	for _, b := range e2BlockSizes {
		cfg := e2blockCfg(sc, b)
		if err := core.RunBlock(cfg, 0, warmN, warm); err != nil {
			return nil, fmt.Errorf("bench E2 block=%d warmup: %w", b, err)
		}
		start := time.Now()
		if err := core.RunBlock(cfg, warmN, warmN+e2trials, blockOut); err != nil {
			return nil, fmt.Errorf("bench E2 block=%d: %w", b, err)
		}
		el := time.Since(start)
		var blockSteps int64
		for _, r := range blockOut {
			blockSteps += r.Steps
		}
		tps := float64(e2trials) / el.Seconds()
		rep.E2.BlockTrialsPerSec[b] = tps
		if tps > rep.E2.BestBlockTrialsPerSec {
			rep.E2.BestBlock = b
			rep.E2.BestBlockTrialsPerSec = tps
			rep.E2.BestBlockNsPerStep = float64(el.Nanoseconds()) / float64(blockSteps)
		}
	}
	if e2n == e2BaselineN {
		rep.E2.SpeedupVsBaseline = rep.E2.BestBlockTrialsPerSec / e2BaselineTrialsPerSec
	}

	prov = prov.WithMemStats()
	return rep, nil
}

// WriteJSON renders the report as one indented JSON document.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
