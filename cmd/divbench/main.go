// Command divbench regenerates the repository's experiment suite
// E1–E19 (DESIGN.md §3): every theorem, lemma, closed-form probability
// and worked example in the paper gets a table (and, where meaningful,
// an ASCII figure), together with pass/fail checks comparing the
// measurement to the paper's claim.
//
// Usage:
//
//	divbench                 # run every experiment, quick sizes
//	divbench -full           # publication sizes (minutes)
//	divbench -exp E1,E9      # a subset
//	divbench -csv out/       # also write each table as CSV
//	divbench -seed 7         # change the master seed
//	divbench -engine naive   # force the reference stepping engine
//	divbench -min-util 100   # fail if pool utilization < 100‰ (10%)
//	divbench -metrics        # print the aggregated metrics snapshot on exit
//	divbench -trace t.jsonl  # write a JSONL probe trace of every core run
//	divbench -serve :9090    # serve live /metrics (Prometheus text),
//	                         # /snapshot.json, and /progress while running
//	divbench -pprof :6060    # serve /debug/pprof/ + /debug/vars while running
//	divbench -bench-json BENCH_engine.json
//	                         # run only the engine perf matrix and write it
//	                         # as JSON (per-step ns, allocs, trials/sec per
//	                         # engine×process×graph-family; -full for the
//	                         # tracked sizes)
//	divbench -bench-json BENCH_engine.json -widths 1,2,4,0
//	                         # additionally measure the multicore scaling
//	                         # section: quick suite once per pool width
//	                         # (0 = all CPUs, GOMAXPROCS set to match) plus
//	                         # the CSR blocked-kernel block-size sweep
//	divbench -compare old.json new.json
//	                         # compare two -bench-json reports; exit 1 if
//	                         # any throughput/allocation metric regressed
//	                         # beyond -compare-threshold (default 10%)
//
// The exit status is nonzero if any check fails or any table/CSV
// write errors; failures are repeated in a consolidated FAILED block
// at the end so they cannot scroll away in -full output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"div/internal/core"
	"div/internal/exp"
	"div/internal/graph"
	"div/internal/obs"
	"div/internal/sched"
	"div/internal/sim"
)

func main() {
	var (
		full       = flag.Bool("full", false, "publication sizes (slower)")
		expList    = flag.String("exp", "all", "comma-separated experiment IDs (E1..E19) or 'all'")
		seed       = flag.Uint64("seed", 0, "master seed (0 = package default)")
		csvDir     = flag.String("csv", "", "directory to write per-table CSV files into")
		par        = flag.Int("parallelism", 0, "worker goroutines (0 = GOMAXPROCS)")
		engine     = flag.String("engine", "auto", "stepping engine for every run: naive, fast, or auto")
		block      = flag.Int("block", 0, "trials per block for the blocked stepping kernel (0 = core default); results are byte-identical across block sizes")
		minUtil    = flag.Int("min-util", 0, "fail the run if work-stealing pool utilization is below this many permille")
		metrics    = flag.Bool("metrics", false, "print the aggregated metrics snapshot on exit")
		traceFile  = flag.String("trace", "", "write a JSONL probe trace of every core run to this file (line order across parallel trials is scheduler-dependent)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and the expvar metrics snapshot on this address during the run")
		benchJSON  = flag.String("bench-json", "", "run only the engine perf matrix and merge it into this JSON report file (keeping its bign and build sections, and its scaling section without -widths)")
		benchBigN  = flag.String("bench-bign", "", "run only the big-n section (implicit topology + compact slab vs materialized CSR at n=10⁶, plus 10⁷ with -full) and merge it into this JSON report file")
		benchBuild = flag.String("bench-build", "", "run only the graph-construction section (seeded parallel builders vs the frozen seed []Edge path, gnp + randomRegular at n=10⁵, plus 10⁶ and 10⁷ with -full) and merge it into this JSON report file")
		widthsCSV  = flag.String("widths", "", "with -bench-json: also measure the suite scaling curve at these pool widths (comma-separated; 0 = all online CPUs) plus the CSR blocked-kernel block sweep, recorded in the report's 'scaling' section")
		serveAddr  = flag.String("serve", "", "serve live /metrics (Prometheus text), /snapshot.json, and /progress on this address during the run (e.g. :9090)")
		compareOld = flag.String("compare", "", "compare this baseline -bench-json report against the report given as the positional argument; exit 1 on regressions")
		compareThr = flag.Float64("compare-threshold", 0.10, "tolerated relative degradation for -compare (0.10 = 10%)")
	)
	flag.Parse()
	if *compareOld != "" {
		os.Exit(runCompare(*compareOld, flag.Arg(0), *compareThr))
	}
	if _, err := core.ParseEngine(*engine); err != nil {
		fmt.Fprintln(os.Stderr, "divbench:", err)
		os.Exit(2)
	}
	widths, err := parseWidths(*widthsCSV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divbench:", err)
		os.Exit(2)
	}
	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, widths, exp.Params{Quick: !*full, Seed: *seed, Parallelism: *par, Engine: *engine, Block: *block}); err != nil {
			fmt.Fprintln(os.Stderr, "divbench:", err)
			os.Exit(1)
		}
		return
	}
	if *benchBigN != "" {
		if err := runBenchBigN(*benchBigN, exp.Params{Quick: !*full, Seed: *seed, Parallelism: *par, Engine: *engine, Block: *block}); err != nil {
			fmt.Fprintln(os.Stderr, "divbench:", err)
			os.Exit(1)
		}
		return
	}
	if *benchBuild != "" {
		if err := runBenchBuild(*benchBuild, exp.Params{Quick: !*full, Seed: *seed, Parallelism: *par, Engine: *engine, Block: *block}); err != nil {
			fmt.Fprintln(os.Stderr, "divbench:", err)
			os.Exit(1)
		}
		return
	}
	if len(widths) > 0 {
		fmt.Fprintln(os.Stderr, "divbench: -widths requires -bench-json (the scaling curve is part of the JSON report)")
		os.Exit(2)
	}

	defs, err := selectExperiments(*expList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *pprofAddr != "" {
		obs.Default.PublishExpvar("div_metrics")
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "divbench: pprof:", err)
			}
		}()
		fmt.Printf("pprof: serving /debug/pprof/ and /debug/vars on http://%s\n", *pprofAddr)
	}

	params := exp.Params{Quick: !*full, Seed: *seed, Parallelism: *par, Engine: *engine, Block: *block}
	prov := obs.CollectProvenance("divbench", params.Seed, *engine)
	var progress *obs.Progress
	if *serveAddr != "" {
		progress = obs.NewProgress(len(defs))
		obs.Serve(*serveAddr, obs.Default, &prov, progress, func(err error) {
			fmt.Fprintln(os.Stderr, "divbench: serve:", err)
		})
		fmt.Printf("serve: /metrics, /snapshot.json, /progress on http://%s\n", *serveAddr)
	}
	var makers []obs.ProbeMaker
	var tw *obs.TraceWriter
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "divbench:", err)
			os.Exit(2)
		}
		defer f.Close()
		tw = obs.NewTraceWriter(f)
		tw.WriteProvenance(prov)
		makers = append(makers, tw.Probe)
	}
	if *metrics || *serveAddr != "" {
		// -serve attaches the metrics probe too, so the live /metrics page
		// carries the div_* engine counters, not just harness telemetry.
		makers = append(makers, obs.ConstMaker(obs.MetricsProbe(obs.Default)))
	}
	params.Probe = obs.MultiMaker(makers...)

	// failed collects every failing check, experiment error, and output
	// error for the consolidated summary block: a single FAIL in -full
	// output scrolls away long before the run ends, and Render/CSV
	// failures must reach the exit status, not just stderr.
	var failed []string

	// Every experiment runs concurrently — their sweeps interleave
	// trials on the shared work-stealing pool — while output streams
	// strictly in definition order.
	type outcome struct {
		rep     *exp.Report
		err     error
		elapsed time.Duration
	}
	runDef := func(d exp.Def) outcome {
		if progress != nil {
			progress.Start(d.ID)
			defer progress.Done(d.ID)
		}
		sp := obs.Default.Span(obs.SpanSuite + "_" + obs.SpanExperiment)
		start := time.Now()
		rep, err := d.Run(params)
		sp.End()
		return outcome{rep: rep, err: err, elapsed: time.Since(start)}
	}
	results := make([]chan outcome, len(defs))
	pool := sched.Shared(*par)
	busy0 := pool.BusyNanos()
	suiteSpan := obs.Default.Span(obs.SpanSuite)
	suiteStart := time.Now()
	for i, d := range defs {
		results[i] = make(chan outcome, 1)
		go func(ch chan<- outcome, d exp.Def) { ch <- runDef(d) }(results[i], d)
	}
	for i, d := range defs {
		o := <-results[i]
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.ID, o.err)
			failed = append(failed, fmt.Sprintf("%s: experiment error: %v", d.ID, o.err))
			continue
		}
		rep := o.rep
		fmt.Printf("\n######## %s — %s (%v)\n\n", rep.ID, rep.Name, o.elapsed.Round(time.Millisecond))
		for ti, tbl := range rep.Tables {
			if err := tbl.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = append(failed, fmt.Sprintf("%s: table %d render: %v", rep.ID, ti+1, err))
			}
			fmt.Println()
			if *csvDir != "" {
				path := filepath.Join(*csvDir, fmt.Sprintf("%s_table%d.csv", rep.ID, ti+1))
				if err := writeCSV(path, tbl); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
					failed = append(failed, fmt.Sprintf("%s: csv %s: %v", rep.ID, path, err))
				}
			}
		}
		for _, fig := range rep.Figures {
			fmt.Println(fig)
		}
		for _, c := range rep.Checks {
			mark := "PASS"
			if !c.Pass {
				mark = "FAIL"
				failed = append(failed, fmt.Sprintf("%s: %s — %s", rep.ID, c.Name, c.Detail))
			}
			fmt.Printf("  [%s] %s — %s\n", mark, c.Name, c.Detail)
		}
		for _, n := range rep.Notes {
			fmt.Printf("  note: %s\n", n)
		}
	}
	suiteWall := time.Since(suiteStart)
	suiteSpan.End()

	util := 0.0
	if suiteWall > 0 {
		util = float64(pool.BusyNanos()-busy0) / (float64(pool.Width()) * float64(suiteWall.Nanoseconds()))
	}
	fmt.Printf("\nsuite: %d experiment(s) in %v, pool width %d, utilization %.1f%%",
		len(defs), suiteWall.Round(time.Millisecond), pool.Width(), 100*util)
	if *minUtil > 0 && int(1000*util) < *minUtil {
		failed = append(failed, fmt.Sprintf("pool utilization %d‰ below floor %d‰", int(1000*util), *minUtil))
	}
	hits, misses, evictions, bytes := graph.SharedCache().Stats()
	fmt.Printf("\ngraph cache: %d hits, %d misses, %d evictions, %.1f MB resident\n", hits, misses, evictions, float64(bytes)/(1<<20))
	fmt.Printf("blocked kernel: %d trials, %d rng stream refills\n",
		obs.Default.Counter("core_block_trials_total").Value(),
		obs.Default.Counter("rng_stream_refills_total").Value())
	if tw != nil {
		if err := tw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "divbench: trace:", err)
			failed = append(failed, fmt.Sprintf("trace: %v", err))
		} else {
			fmt.Printf("\ntrace: %d events -> %s\n", tw.Events(), *traceFile)
		}
	}
	if *metrics {
		fmt.Println("\nmetrics:")
		if err := obs.Default.Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "divbench:", err)
		}
		if peak, ok := obs.ReadPeakRSS(); ok {
			fmt.Printf("memory: peak RSS %.1f MB, total alloc %.1f MB\n",
				float64(peak)/(1<<20), float64(obs.HeapTotalAlloc())/(1<<20))
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "\nFAILED: %d check(s)\n", len(failed))
		for _, f := range failed {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
}

// writeMerged loads the JSON report at path (an empty one, with
// existed false, when it cannot be read), lets set replace the sections
// this run measured, and writes the report back: a runner never deletes
// the sections another runner wrote.
func writeMerged(path string, set func(rep *exp.BenchReport, existed bool)) error {
	rep := &exp.BenchReport{}
	data, err := os.ReadFile(path)
	if err == nil {
		if err := json.Unmarshal(data, rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	set(rep, err == nil)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// adoptEngineReport replaces old's engine-matrix sections with fresh's
// and keeps the sections fresh does not carry: bign, build, and scaling
// when no width sweep ran.
func adoptEngineReport(old, fresh *exp.BenchReport) {
	bign, build, scaling := old.BigN, old.Build, old.Scaling
	*old = *fresh
	old.BigN, old.Build = bign, build
	if old.Scaling == nil {
		old.Scaling = scaling
	}
}

// runBenchJSON runs the engine perf matrix (plus, when widths are
// given, the multicore scaling section), merges it into the JSON
// report at path (BENCH_engine.json), and echoes the headline numbers
// to stdout.
func runBenchJSON(path string, widths []int, params exp.Params) error {
	start := time.Now()
	rep, err := exp.BenchEngine(params)
	if err != nil {
		return err
	}
	if len(widths) > 0 {
		scaling, err := exp.BenchScalingRun(params, widths)
		if err != nil {
			return err
		}
		rep.Scaling = scaling
	}
	if err := writeMerged(path, func(old *exp.BenchReport, _ bool) { adoptEngineReport(old, rep) }); err != nil {
		return err
	}
	fmt.Printf("bench: %d rows -> %s (%v)\n", len(rep.Rows), path, time.Since(start).Round(time.Millisecond))
	fmt.Printf("bench: E2 point n=%d: %.1f trials/sec reused, %.1f fresh, %.1f ns/step (baseline n=%d: %.1f trials/sec)\n",
		rep.E2.N, rep.E2.TrialsPerSecReused, rep.E2.TrialsPerSecFresh, rep.E2.NsPerStepReused,
		rep.Baseline.N, rep.Baseline.TrialsPerSec)
	fmt.Printf("bench: E2 blocked kernel: best block=%d at %.1f trials/sec (%.1f ns/step)\n",
		rep.E2.BestBlock, rep.E2.BestBlockTrialsPerSec, rep.E2.BestBlockNsPerStep)
	if rep.E2.SpeedupVsBaseline > 0 {
		fmt.Printf("bench: E2 speedup vs pre-blocked-kernel baseline: %.2fx\n", rep.E2.SpeedupVsBaseline)
	}
	if rep.Scaling != nil {
		fmt.Printf("bench: scaling: %d CPU(s) online\n", rep.Scaling.CPUsOnline)
		for _, pt := range rep.Scaling.Widths {
			fmt.Printf("bench: scaling width %d: %.2fs (%.2fx vs width 1), util %.1f%%, %d tasks, %d steals, %d parks\n",
				pt.Width, pt.Seconds, pt.SpeedupVsWidth1, 100*pt.PoolUtilization, pt.Tasks, pt.Steals, pt.Parks)
		}
		for _, win := range rep.Scaling.BlockedWins {
			fmt.Printf("bench: scaling: blocked kernel beats B=1 on %s\n", win)
		}
	}
	return nil
}

// runBenchBigN measures the big-n section and merges it into the JSON
// report at path, preserving any sections an earlier -bench-json run
// wrote there. It fails when the acceptance bounds are violated: the
// implicit/compact arm must be byte-identical to the materialized
// int32 arm, and its peak RSS at n=10⁶ must stay within 25% of the
// materialized baseline's.
func runBenchBigN(path string, params exp.Params) error {
	start := time.Now()
	sec, err := exp.BenchBigNRun(params)
	if err != nil {
		return err
	}
	prov := obs.CollectProvenance("divbench", params.Seed, params.Engine).WithMemStats()
	if err := writeMerged(path, func(rep *exp.BenchReport, existed bool) {
		if !existed {
			rep.Quick = params.Quick
			rep.Note = "bign section generated by divbench -bench-bign; run -bench-json for the engine matrix"
		}
		rep.BigN = sec
		rep.Provenance = &prov
	}); err != nil {
		return err
	}
	for _, arm := range sec.Arms {
		fmt.Printf("bench: bign %-20s n=%-8d %6.1f ns/step, build %6.3fs, peak RSS %7.1f MB, alloc %7.1f MB, two-adjacent %.0f%%\n",
			arm.Label, arm.N, arm.NsPerStep, arm.BuildSeconds,
			float64(arm.PeakRSSBytes)/(1<<20), float64(arm.AllocBytes)/(1<<20), 100*arm.TwoAdjacentFrac)
	}
	if d := sec.Dissenter; d != nil {
		for _, arm := range d.Arms {
			fmt.Printf("bench: bign dissenter %-12s %d trial(s): %.3fs, %d steps, consensus %.0f%%, tail %.3fs/%d steps (to-90%% %.3fs/%d)\n",
				arm.Label, arm.Trials, arm.Seconds, arm.Steps, 100*arm.ConsensusFrac,
				arm.Phase.TailSeconds, arm.Phase.TailSteps, arm.Phase.SecondsTo90, arm.Phase.StepsTo90)
		}
		bound := ""
		if d.NaiveCapped {
			bound = " (naive step-capped: lower bound)"
		}
		fmt.Printf("bench: bign dissenter speedup auto/sparse vs naive = %.1fx%s (bound ≥ 2), sparse peak %.2f MB = %.2f B/vertex (bound ≤ %g; CSR estimate %.1f MB)\n",
			d.Speedup, bound, float64(d.SparsePeakBytes)/(1<<20), d.SparsePeakBytesPerVertex, exp.SparsePeakBytesPerVertexBound,
			float64(d.CSREstimateBytes)/(1<<20))
	}
	if eq := sec.SmallEq; eq != nil {
		fmt.Printf("bench: bign small-eq n=%d, %d trials/arm: winner χ²=%.2f (df %d, crit %.2f), steps KS=%.4f (crit %.4f), mean to-90%%/tail steps %.0f/%.0f -> pass=%v\n",
			eq.N, eq.Trials, eq.Chi2, eq.Chi2Df, eq.Chi2Crit, eq.KSSteps, eq.KSCrit,
			eq.MeanStepsTo90, eq.MeanTailSteps, eq.Pass)
	}
	fmt.Printf("bench: bign peak-RSS ratio implicit/materialized = %.3f (bound 0.25), results identical = %v -> %s (%v)\n",
		sec.RSSRatio, sec.Identical, path, time.Since(start).Round(time.Millisecond))
	if !sec.Identical {
		return fmt.Errorf("bign: implicit/compact results diverged from the materialized int32 arm")
	}
	if sec.RSSRatio > 0.25 {
		return fmt.Errorf("bign: peak RSS ratio %.3f exceeds the 0.25 bound", sec.RSSRatio)
	}
	if d := sec.Dissenter; d != nil {
		for _, arm := range d.Arms {
			if arm.Engine == core.EngineAuto.String() && arm.ConsensusFrac < 1 {
				return fmt.Errorf("bign dissenter: auto/sparse arm reached consensus in only %.0f%% of trials", 100*arm.ConsensusFrac)
			}
		}
		if d.Speedup < 2 {
			return fmt.Errorf("bign dissenter: speedup %.2fx below the 2x bound", d.Speedup)
		}
		if d.SparsePeakBytesPerVertex > exp.SparsePeakBytesPerVertexBound {
			return fmt.Errorf("bign dissenter: sparse peak %.2f B/vertex exceeds the %g bound", d.SparsePeakBytesPerVertex, exp.SparsePeakBytesPerVertexBound)
		}
	}
	if eq := sec.SmallEq; eq != nil && !eq.Pass {
		return fmt.Errorf("bign small-eq: sparse vs naive distribution check failed (χ²=%.2f crit %.2f, KS=%.4f crit %.4f)",
			eq.Chi2, eq.Chi2Crit, eq.KSSteps, eq.KSCrit)
	}
	return nil
}

// runBenchBuild measures the graph-construction section and merges it
// into the JSON report at path, preserving the other sections. In full
// mode it fails when the acceptance bounds are violated: the n=10⁶
// G(n,p) build must be ≥ 1.5× the frozen seed []Edge baseline, and the
// n=10⁷ G(n,p) build peak RSS must stay within 2× the final CSR size.
func runBenchBuild(path string, params exp.Params) error {
	start := time.Now()
	sec, err := exp.BenchBuildRun(params)
	if err != nil {
		return err
	}
	prov := obs.CollectProvenance("divbench", params.Seed, params.Engine).WithMemStats()
	if err := writeMerged(path, func(rep *exp.BenchReport, existed bool) {
		if !existed {
			rep.Quick = params.Quick
			rep.Note = "build section generated by divbench -bench-build; run -bench-json for the engine matrix"
		}
		rep.Build = sec
		rep.Provenance = &prov
	}); err != nil {
		return err
	}
	var failures []string
	for _, pt := range sec.Points {
		base := "baseline skipped"
		if pt.BaselineSeconds > 0 {
			base = fmt.Sprintf("baseline %6.2fs (%.2fx)", pt.BaselineSeconds, pt.SpeedupVsBaseline)
		}
		fmt.Printf("bench: build %-14s n=%-9d m=%-9d serial %6.2fs (%5.2fM edges/s), %s, peak RSS %7.1f MB / CSR %7.1f MB = %.2f\n",
			pt.Family, pt.N, pt.Edges, pt.SerialSeconds, pt.SerialEdgesPerSec/1e6, base,
			float64(pt.PeakRSSBytes)/(1<<20), float64(pt.CSRBytes)/(1<<20), pt.RSSOverCSR)
		fmt.Printf("bench: build %-14s phases: sample %v, count %v, offsets %v, scatter %v, sort %v\n",
			pt.Family,
			time.Duration(pt.SampleNanos), time.Duration(pt.CountNanos), time.Duration(pt.OffsetsNanos),
			time.Duration(pt.ScatterNanos), time.Duration(pt.SortNanos))
		if !params.Quick && pt.Family == "gnp" {
			if pt.N == 1_000_000 && pt.SpeedupVsBaseline < 1.5 {
				failures = append(failures, fmt.Sprintf("build gnp n=10⁶: speedup %.2fx below the 1.5x bound", pt.SpeedupVsBaseline))
			}
			if pt.N == 10_000_000 && pt.RSSOverCSR > 2 {
				failures = append(failures, fmt.Sprintf("build gnp n=10⁷: peak RSS %.2fx CSR exceeds the 2x bound", pt.RSSOverCSR))
			}
		}
	}
	fmt.Printf("bench: build section -> %s (%v)\n", path, time.Since(start).Round(time.Millisecond))
	if len(failures) > 0 {
		return fmt.Errorf("build gates failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// runCompare is the bench regression gate: it loads two -bench-json
// reports and returns the process exit code — 0 when the new report is
// within the noise threshold of the old, 1 when any metric regressed
// beyond it, 2 on usage or I/O problems.
func runCompare(oldPath, newPath string, threshold float64) int {
	if newPath == "" {
		fmt.Fprintln(os.Stderr, "divbench: -compare needs the new report as a positional argument: divbench -compare old.json new.json")
		return 2
	}
	load := func(path string) (*exp.BenchReport, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep exp.BenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rep, nil
	}
	oldRep, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divbench:", err)
		return 2
	}
	newRep, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divbench:", err)
		return 2
	}
	opts := exp.CompareOptions{Threshold: threshold}
	res := exp.CompareReports(oldRep, newRep, opts)
	if err := res.WriteText(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "divbench:", err)
		return 2
	}
	if res.Regressions > 0 {
		return 1
	}
	return 0
}

// parseWidths parses the -widths flag: a comma-separated list of pool
// widths, where 0 means all online CPUs.
func parseWidths(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -widths entry %q (want a non-negative integer)", part)
		}
		out = append(out, w)
	}
	return out, nil
}

func selectExperiments(list string) ([]exp.Def, error) {
	if strings.EqualFold(list, "all") || list == "" {
		return exp.All, nil
	}
	var defs []exp.Def
	for _, id := range strings.Split(list, ",") {
		d, err := exp.ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		defs = append(defs, d)
	}
	return defs, nil
}

func writeCSV(path string, tbl *sim.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tbl.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
