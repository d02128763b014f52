package exp

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"div/internal/core"
	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
	"div/internal/sched"
)

// This file is the multicore scaling harness behind `divbench -widths`
// and `make bench-scaling`: it reruns the quick suite once per
// requested pool width — setting GOMAXPROCS to match, so the Go
// scheduler really has that many Ps — and records the wall clock,
// pool utilization, and the scheduler/cache counter deltas of each
// pass, then sweeps the generic CSR blocked kernel over block sizes on
// the non-complete families (expander, torus, path) to locate where
// SoA lane interleaving beats one-trial-at-a-time stepping. The result
// is the `scaling` section of BENCH_engine.json.
//
// The width curve is only meaningful relative to CPUsOnline: on a
// single-core host every width > 1 timeslices one core, so speedups
// sit near (or below) 1× and the interesting signal is the contention
// counters (steals, parks) staying sane. The numbers are recorded as
// measured, never extrapolated.

// BenchWidthPoint is one width of the suite scaling curve: the quick
// suite run once on a pool of Width workers with GOMAXPROCS=Width.
// Counter fields are deltas over the pass, from obs.Default.
type BenchWidthPoint struct {
	Width           int     `json:"width"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Seconds         float64 `json:"seconds"`
	SpeedupVsWidth1 float64 `json:"speedup_vs_width1"`
	PoolUtilization float64 `json:"pool_utilization"`
	Tasks           int64   `json:"sched_tasks"`
	Steals          int64   `json:"sched_steals"`
	Injects         int64   `json:"sched_injects"`
	Parks           int64   `json:"sched_parks"`
	CacheHits       int64   `json:"graph_cache_hits"`
	CacheMisses     int64   `json:"graph_cache_misses"`
}

// BenchBlockRow is one family × process × block-size measurement of
// the generic CSR blocked kernel: a fixed-step workload (no consensus
// dependence, so every block size executes identical step counts)
// timed on a reused scratch arena.
type BenchBlockRow struct {
	Graph           string  `json:"graph"`
	Process         string  `json:"process"`
	Block           int     `json:"block"`
	Trials          int     `json:"trials"`
	Steps           int64   `json:"steps"`
	Seconds         float64 `json:"seconds"`
	NsPerStep       float64 `json:"ns_per_step"`
	TrialsPerSec    float64 `json:"trials_per_sec"`
	SpeedupVsBlock1 float64 `json:"speedup_vs_block1"`
}

// BenchScaling is the `scaling` section of BENCH_engine.json.
type BenchScaling struct {
	CPUsOnline int `json:"cpus_online"`
	// Widths is the per-width suite scaling curve, in request order.
	Widths []BenchWidthPoint `json:"widths"`
	// Blocked is the CSR blocked-kernel block-size sweep.
	Blocked []BenchBlockRow `json:"blocked"`
	// BlockedWins lists "family/process" groups where some block size
	// B > 1 beat B = 1 on the fixed-step workload.
	BlockedWins []string `json:"blocked_wins"`
	Note        string   `json:"note"`
}

// scalingCounterNames are the obs counters whose per-pass deltas the
// width curve records.
var scalingCounterNames = []string{
	"sched_tasks_total",
	"sched_steals_total",
	"sched_injects_total",
	"sched_parks_total",
	"graph_cache_hits_total",
	"graph_cache_misses_total",
}

func scalingCounterSnapshot() map[string]int64 {
	out := make(map[string]int64, len(scalingCounterNames))
	for _, name := range scalingCounterNames {
		out[name] = obs.Default.Counter(name).Value()
	}
	return out
}

// BenchScalingRun measures the scaling section: one quick-suite pass
// per width (0 means all online CPUs), then the blocked-kernel block
// sweep. GOMAXPROCS is restored to its entry value before returning.
func BenchScalingRun(p Params, widths []int) (*BenchScaling, error) {
	p = p.withDefaults()
	s := &BenchScaling{CPUsOnline: runtime.NumCPU()}
	if s.CPUsOnline > 1 {
		s.Note = "width curve measured with GOMAXPROCS=width per pass; counters are per-pass deltas; blocked rows are interleaved min-of-N seconds"
	} else {
		s.Note = "single-CPU host: widths > 1 timeslice one core, so speedup_vs_width1 ≈ 1 is the honest ceiling; counters are per-pass deltas; blocked rows are interleaved min-of-N seconds"
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	seen := map[int]bool{}
	for _, w := range widths {
		if w <= 0 {
			w = runtime.NumCPU()
		}
		if seen[w] {
			continue
		}
		seen[w] = true
		runtime.GOMAXPROCS(w)
		pool := sched.Shared(w)
		busy0 := pool.BusyNanos()
		before := scalingCounterSnapshot()
		start := time.Now()
		_, errs := RunAll(Params{Quick: true, Seed: p.Seed, Engine: p.Engine, Block: p.Block, Parallelism: w}, All)
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("scaling width %d: %s: %w", w, All[i].ID, err)
			}
		}
		wall := time.Since(start)
		after := scalingCounterSnapshot()
		pt := BenchWidthPoint{
			Width:       w,
			GOMAXPROCS:  w,
			Seconds:     wall.Seconds(),
			Tasks:       after["sched_tasks_total"] - before["sched_tasks_total"],
			Steals:      after["sched_steals_total"] - before["sched_steals_total"],
			Injects:     after["sched_injects_total"] - before["sched_injects_total"],
			Parks:       after["sched_parks_total"] - before["sched_parks_total"],
			CacheHits:   after["graph_cache_hits_total"] - before["graph_cache_hits_total"],
			CacheMisses: after["graph_cache_misses_total"] - before["graph_cache_misses_total"],
		}
		if wall > 0 {
			pt.PoolUtilization = float64(pool.BusyNanos()-busy0) / (float64(w) * float64(wall.Nanoseconds()))
		}
		s.Widths = append(s.Widths, pt)
	}
	for i := range s.Widths {
		if s.Widths[i].Width == 1 && s.Widths[i].Seconds > 0 {
			for j := range s.Widths {
				s.Widths[j].SpeedupVsWidth1 = s.Widths[i].Seconds / s.Widths[j].Seconds
			}
			break
		}
	}
	runtime.GOMAXPROCS(prev)

	blocked, wins, err := benchBlockedCSR(p)
	if err != nil {
		return nil, err
	}
	s.Blocked = blocked
	s.BlockedWins = wins
	return s, nil
}

// scalingBlockSizes is the block-size sweep of the CSR kernel bench.
var scalingBlockSizes = []int{1, 2, 4, 8}

// benchBlockedCSR times the generic CSR lane kernels across block
// sizes on the three non-complete families the experiment grid runs
// them on. The vertex count is fixed at 2^20 in both modes: the lane
// interleave targets exactly the regime where one lane's opinion row
// (4 MB at n=2^20) already overflows L2, so every op[v] access is an
// L3-latency load that independent lanes (and the lane loops' one-step
// lookahead) can overlap — at cache-resident sizes B > 1 only adds
// row-switch overhead and loses honestly. Quick mode trims trials and
// steps, not n. EngineNaive pins the rows to the inline lane loops (no
// hybrid hand-off), so the measurement is the kernel itself.
//
// Timing is interleaved min-of-N: after one warm pass per block size,
// the timed passes cycle B = 1, 2, 4, 8, 1, 2, ... and each row keeps
// its minimum. Back-to-back single-shot timings on a shared host swing
// far more than the effect under test (±5–10 % observed); interleaving
// spreads that drift evenly across block sizes and the minimum is the
// standard low-noise estimator for a deterministic workload. Effects
// inside the residual noise band still land where they land — the rows
// record measurements, not expectations.
func benchBlockedCSR(p Params) ([]BenchBlockRow, []string, error) {
	const n = 1 << 20
	const side = 1024
	stepsPerTrial := int64(p.pick(1<<16, 1<<17))
	trials := p.pick(4, 8)
	reps := p.pick(3, 5)
	rr, err := graph.RandomRegularSeeded(n, 8, rng.DeriveSeed(p.Seed, 0x5ca1e), graph.BuildOpts{})
	if err != nil {
		return nil, nil, err
	}
	type workload struct {
		name string
		g    *graph.Graph
		proc core.Process
	}
	workloads := []workload{
		{fmt.Sprintf("rr(n=%d,d=8)", n), rr, core.VertexProcess},
		{fmt.Sprintf("rr(n=%d,d=8)", n), rr, core.EdgeProcess},
		{fmt.Sprintf("torus(%dx%d)", side, side), graph.Torus(side, side), core.VertexProcess},
		{fmt.Sprintf("path(n=%d)", n), graph.Path(n), core.VertexProcess},
	}

	var rows []BenchBlockRow
	var wins []string
	out := make([]core.Result, trials)
	for _, wl := range workloads {
		sc := core.NewScratch(wl.g)
		cfg := func(b int) core.BlockConfig {
			return core.BlockConfig{
				Graph:    wl.g,
				Process:  wl.proc,
				Engine:   core.EngineNaive,
				Stop:     core.UntilMaxSteps,
				MaxSteps: stepsPerTrial,
				Seed:     rng.DeriveSeed(p.Seed, 0xb10c),
				Init: func(trial int, dst []int, r *rand.Rand) error {
					core.UniformOpinionsInto(dst, 5, r)
					return nil
				},
				Scratch: sc,
				Block:   b,
			}
		}
		// One untimed pass per block size warms the arena, CSR pages,
		// and branch predictors; every timed pass repeats the same
		// trial indices, so the step counts are identical by the
		// determinism contract.
		for _, b := range scalingBlockSizes {
			if err := core.RunBlock(cfg(b), 0, trials, out); err != nil {
				return nil, nil, fmt.Errorf("scaling blocked %s/%v block=%d warmup: %w", wl.name, wl.proc, b, err)
			}
		}
		minSec := make(map[int]float64, len(scalingBlockSizes))
		for rep := 0; rep < reps; rep++ {
			for _, b := range scalingBlockSizes {
				start := time.Now()
				if err := core.RunBlock(cfg(b), 0, trials, out); err != nil {
					return nil, nil, fmt.Errorf("scaling blocked %s/%v block=%d: %w", wl.name, wl.proc, b, err)
				}
				el := time.Since(start).Seconds()
				if v, ok := minSec[b]; !ok || el < v {
					minSec[b] = el
				}
			}
		}
		var steps int64
		for _, r := range out {
			steps += r.Steps
		}
		var base, best float64
		for _, b := range scalingBlockSizes {
			sec := minSec[b]
			row := BenchBlockRow{
				Graph:        wl.name,
				Process:      wl.proc.String(),
				Block:        b,
				Trials:       trials,
				Steps:        steps,
				Seconds:      sec,
				NsPerStep:    sec * 1e9 / float64(steps),
				TrialsPerSec: float64(trials) / sec,
			}
			if b == 1 {
				base = row.TrialsPerSec
			}
			if base > 0 {
				row.SpeedupVsBlock1 = row.TrialsPerSec / base
			}
			if b > 1 && row.TrialsPerSec > best {
				best = row.TrialsPerSec
			}
			rows = append(rows, row)
		}
		if best > base {
			wins = append(wins, fmt.Sprintf("%s/%v", wl.name, wl.proc))
		}
	}
	return rows, wins, nil
}
