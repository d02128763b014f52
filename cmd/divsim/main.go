// Command divsim runs a single voting process (or a small batch) and
// reports the outcome: the interactive explorer for the library.
//
// Examples:
//
//	divsim -graph complete:200 -k 5
//	divsim -graph regular:500,16 -k 9 -process edge -trials 100
//	divsim -graph path:30 -k 3 -trace-stages
//	divsim -graph complete:150 -rule median -k 9
//	divsim -graph complete:120 -rule loadbalance -process edge -k 16
//	divsim -graph regular:10000,8 -dissenters 20 -trace run.jsonl -metrics
//	divsim -graph regular:2000,8 -trials 50 -pprof localhost:6060
//	divsim -graph regular:2000,8 -trials 50 -serve :9090
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	_ "net/http/pprof"
	"os"

	"div/internal/cli"
	"div/internal/core"
	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
	"div/internal/stats"
	"div/internal/textplot"
)

func main() {
	var (
		graphSpec  = flag.String("graph", "complete:100", "graph spec (complete:N, regular:N,D, gnp:N,P, ws:N,D,B, ba:N,M, path:N, cycle:N, star:N, torus:R,C, hypercube:D, …)")
		k          = flag.Int("k", 5, "opinions are drawn uniformly from {1..k}")
		dissenters = flag.Int("dissenters", 0, "two-opinion split initial profile: N vertices at 2, the rest at 1 (overrides -k; the E20 final-stage workload)")
		procName   = flag.String("process", "vertex", "scheduler: vertex or edge")
		ruleName   = flag.String("rule", "div", "update rule: div, pull, median, bestofK, loadbalance")
		seed       = flag.Uint64("seed", 1, "random seed")
		trials     = flag.Int("trials", 1, "number of independent runs")
		engName    = flag.String("engine", "auto", "stepping engine: naive, fast, or auto; fast and auto skip-sample idle steps through the O(discordance)-memory sparse engine (distribution-equivalent to naive; rejected on implicit complete graphs)")
		trace      = flag.Bool("trace-stages", false, "print the opinion-support stage trace (first run only)")
		series     = flag.Bool("series", false, "print range/weight/discordance trajectory sparklines (first run only)")
		maxSteps   = flag.Int64("maxsteps", 0, "step cap (0 = 200·n²)")
		block      = flag.Int("block", 0, "run trials through the blocked SoA stepping kernel, this many per block (0 = sequential runs); incompatible with -trace-stages and -series")
		implicit   = flag.Bool("implicit", false, "back the run with the O(1)-state implicit topology for the spec (complete, cycle, path, torus, hypercube, circulant, hashedregular) instead of a materialized CSR graph; implies -block 1")
		compact    = flag.Bool("compact", false, "store opinions in the compact byte slab (requires the initial opinion window to span ≤ 256 values); implies -block 1")
		traceFile  = flag.String("trace", "", "write a JSONL probe trace of every run to this file")
		metrics    = flag.Bool("metrics", false, "print the aggregated metrics snapshot on exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and the expvar metrics snapshot on this address (e.g. localhost:6060)")
		serveAddr  = flag.String("serve", "", "serve live /metrics (Prometheus text), /snapshot.json, and /progress on this address during the run (e.g. :9090)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		servePprof(*pprofAddr)
	}
	prov := obs.CollectProvenance("divsim", *seed, *engName)
	var progress *obs.Progress
	if *serveAddr != "" {
		progress = obs.NewProgress(*trials)
		obs.Serve(*serveAddr, obs.Default, &prov, progress, func(err error) {
			fmt.Fprintln(os.Stderr, "divsim: serve:", err)
		})
		fmt.Printf("serve: /metrics, /snapshot.json, /progress on http://%s\n", *serveAddr)
	}
	if err := run(*graphSpec, *k, *dissenters, *procName, *ruleName, *engName, *seed, *trials,
		*trace, *series, *maxSteps, *block, *implicit, *compact, *traceFile, *metrics, prov, progress); err != nil {
		fmt.Fprintln(os.Stderr, "divsim:", err)
		os.Exit(1)
	}
}

// servePprof publishes the metrics registry as the expvar "div_metrics"
// variable and serves /debug/pprof/ and /debug/vars in the background.
func servePprof(addr string) {
	obs.Default.PublishExpvar("div_metrics")
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "divsim: pprof:", err)
		}
	}()
	fmt.Printf("pprof: serving /debug/pprof/ and /debug/vars on http://%s\n", addr)
}

func run(graphSpec string, k, dissenters int, procName, ruleName, engName string, seed uint64, trials int,
	trace, series bool, maxSteps int64, block int, implicit, compact bool, traceFile string, metrics bool,
	prov obs.Provenance, progress *obs.Progress) error {
	// The sequential engines step a materialized CSR graph; the implicit
	// backends and the compact byte slab live in the blocked kernel, so
	// either flag routes the run through it.
	if (implicit || compact) && block == 0 {
		block = 1
	}
	var g *graph.Graph
	var topo graph.Topology
	var err error
	if implicit {
		topo, err = cli.ParseTopology(graphSpec, rng.DeriveSeed(seed, 0x6a))
	} else {
		g, err = cli.ParseGraph(graphSpec, rng.DeriveSeed(seed, 0x6a))
		topo = g
	}
	if err != nil {
		return err
	}
	proc, err := cli.ParseProcess(procName)
	if err != nil {
		return err
	}
	rule, err := cli.ParseRule(ruleName)
	if err != nil {
		return err
	}
	engine, err := core.ParseEngine(engName)
	if err != nil {
		return err
	}
	if dissenters > 0 {
		k = 2
	}
	desc := fmt.Sprintf("%v", topo)
	if implicit {
		desc = topo.Name() + " (implicit)"
	}
	if compact {
		desc += " [compact]"
	}
	fmt.Printf("graph: %s  process: %v  rule: %s  engine: %v  k: %d  seed: %d\n", desc, proc, rule.Name(), engine, k, seed)

	// Probe sinks: a JSONL trace writer and/or the metrics registry.
	// Trials run serially, so a seeded trace is byte-identical across
	// invocations.
	var tw *obs.TraceWriter
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tw = obs.NewTraceWriter(f)
		tw.WriteProvenance(prov)
	}
	var metricsProbe obs.Probe
	if metrics || progress != nil {
		// -serve implies the metrics probe, so the live /metrics page
		// carries the div_* engine counters, not just harness telemetry.
		metricsProbe = obs.MetricsProbe(obs.Default)
	}

	winners := stats.NewIntHistogram()
	var stepsAll, reduceAll []float64

	if block > 0 {
		// Blocked kernel path: all trials step together in SoA blocks,
		// each drawing from its own counter-based stream keyed by
		// (seed, trial) — results are independent of the block size.
		if trace || series {
			return fmt.Errorf("-block (and -implicit/-compact, which imply it) is incompatible with -trace-stages and -series (the blocked kernel has no observer hooks)")
		}
		cfg := core.BlockConfig{
			Graph:    g,
			Topology: topo,
			Compact:  compact,
			Process:  proc,
			Rule:     rule,
			Engine:   engine,
			Seed:     seed,
			MaxSteps: maxSteps,
			Block:    block,
			Init: func(trial int, dst []int, r *rand.Rand) error {
				if dissenters > 0 {
					_, err := core.TwoOpinionSplitInto(dst, dissenters, r)
					return err
				}
				core.UniformOpinionsInto(dst, k, r)
				return nil
			},
		}
		if tw != nil || metricsProbe != nil {
			cfg.Probe = func(trial int, probeSeed uint64) obs.Probe {
				var probes []obs.Probe
				if tw != nil {
					probes = append(probes, tw.Probe(trial, probeSeed))
				}
				if metricsProbe != nil {
					probes = append(probes, metricsProbe)
				}
				return obs.Multi(probes...)
			}
		}
		out := make([]core.Result, trials)
		if err := core.RunBlock(cfg, 0, trials, out); err != nil {
			return err
		}
		if progress != nil {
			for t := 0; t < trials; t++ {
				progress.Done(fmt.Sprintf("trial %d", t))
			}
		}
		for t, res := range out {
			if t == 0 {
				fmt.Printf("initial: simple average %.4f, degree-weighted average %.4f\n",
					res.InitialAverage, res.InitialWeightedAverage)
			}
			if res.Consensus {
				winners.Add(res.Winner)
			}
			stepsAll = append(stepsAll, float64(res.Steps))
			if res.TwoAdjacentStep >= 0 {
				reduceAll = append(reduceAll, float64(res.TwoAdjacentStep))
			}
			if trials == 1 {
				if res.Consensus {
					fmt.Printf("consensus on %d after %d steps (two adjacent at step %d)\n",
						res.Winner, res.Steps, res.TwoAdjacentStep)
				} else {
					fmt.Printf("NO consensus after %d steps; final range [%d,%d]\n",
						res.Steps, res.FinalMin, res.FinalMax)
				}
			}
		}
		return finish(winners, stepsAll, reduceAll, trials, tw, traceFile, metrics)
	}

	for t := 0; t < trials; t++ {
		if progress != nil {
			progress.Start(fmt.Sprintf("trial %d", t))
		}
		trialSeed := rng.DeriveSeed(seed, uint64(t))
		r := rng.New(trialSeed)
		var init []int
		if dissenters > 0 {
			init, err = core.TwoOpinionSplit(g.N(), dissenters, r)
			if err != nil {
				return err
			}
		} else {
			init = core.UniformOpinions(g.N(), k, r)
		}
		var rec interface {
			core.SampleSink
			RangeFloat() []float64
			SumFloat() []float64
			DiscordanceFloat() []float64
		}
		cfg := core.Config{
			Graph:        g,
			Initial:      init,
			Process:      proc,
			Rule:         rule,
			Engine:       engine,
			Seed:         rng.SplitMix64(trialSeed),
			MaxSteps:     maxSteps,
			TraceSupport: trace && t == 0,
		}
		var probes []obs.Probe
		if tw != nil {
			probes = append(probes, tw.Probe(t, cfg.Seed))
		}
		if metricsProbe != nil {
			probes = append(probes, metricsProbe)
		}
		cfg.Probe = obs.Multi(probes...)
		if series && t == 0 {
			// Above the sample budget (or with an open-ended horizon)
			// this yields a fixed-memory StreamRecorder instead of the
			// exact append-per-sample Recorder.
			auto := core.NewAutoRecorder(maxSteps, int64(g.N()), 0)
			rec = auto.(interface {
				core.SampleSink
				RangeFloat() []float64
				SumFloat() []float64
				DiscordanceFloat() []float64
			})
			cfg.Observer = rec.Observe
			cfg.ObserveEvery = int64(g.N())
		}
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		if rec != nil && rec.Len() > 1 {
			width := 72
			per := int64(g.N())
			if sr, ok := rec.(*core.StreamRecorder); ok {
				per *= sr.Stride()
			}
			fmt.Printf("range trajectory (one sample per %d steps):\n  %s\n",
				per, textplot.Sparkline(downsample(rec.RangeFloat(), width)))
			fmt.Printf("weight S(t) trajectory:\n  %s\n",
				textplot.Sparkline(downsample(rec.SumFloat(), width)))
			fmt.Printf("discordant-edge trajectory:\n  %s\n",
				textplot.Sparkline(downsample(rec.DiscordanceFloat(), width)))
		}
		if t == 0 {
			fmt.Printf("initial: simple average %.4f, degree-weighted average %.4f\n",
				res.InitialAverage, res.InitialWeightedAverage)
			if trace {
				for _, st := range res.Stages {
					fmt.Printf("  step %10d: support %v\n", st.FromStep, st.Opinions)
				}
			}
		}
		if res.Consensus {
			winners.Add(res.Winner)
		}
		stepsAll = append(stepsAll, float64(res.Steps))
		if res.TwoAdjacentStep >= 0 {
			reduceAll = append(reduceAll, float64(res.TwoAdjacentStep))
		}
		if trials == 1 {
			if res.Consensus {
				fmt.Printf("consensus on %d after %d steps (two adjacent at step %d)\n",
					res.Winner, res.Steps, res.TwoAdjacentStep)
			} else {
				fmt.Printf("NO consensus after %d steps; final range [%d,%d]\n",
					res.Steps, res.FinalMin, res.FinalMax)
			}
		}
		if progress != nil {
			progress.Done(fmt.Sprintf("trial %d", t))
		}
	}
	return finish(winners, stepsAll, reduceAll, trials, tw, traceFile, metrics)
}

// finish prints the batch summary and flushes the probe sinks — the
// common tail of the sequential and blocked trial paths.
func finish(winners *stats.IntHistogram, stepsAll, reduceAll []float64, trials int, tw *obs.TraceWriter, traceFile string, metrics bool) error {
	if trials > 1 {
		fmt.Printf("winners over %d trials: %s\n", trials, winners)
		fmt.Printf("mean steps to consensus: %.0f; mean steps to two adjacent: %.0f\n",
			stats.Mean(stepsAll), stats.Mean(reduceAll))
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("trace: %d events -> %s\n", tw.Events(), traceFile)
	}
	if metrics {
		fmt.Println("metrics:")
		if err := obs.Default.Snapshot().WriteText(os.Stdout); err != nil {
			return err
		}
		if peak, ok := obs.ReadPeakRSS(); ok {
			fmt.Printf("memory: peak RSS %.1f MB, total alloc %.1f MB\n",
				float64(peak)/(1<<20), float64(obs.HeapTotalAlloc())/(1<<20))
		}
	}
	return nil
}

// downsample reduces xs to at most width points by striding.
func downsample(xs []float64, width int) []float64 {
	if len(xs) <= width {
		return xs
	}
	out := make([]float64, width)
	for i := range out {
		out[i] = xs[i*len(xs)/width]
	}
	return out
}
