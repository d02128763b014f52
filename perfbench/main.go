// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed stepping budget, checks every trial and the
// workload's law, and prints its metrics as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload reduce-rr --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans around every call into a layer and reports the
// per-layer metrics instead. README.md lists the workloads, the metrics
// and which layer change each metric should show.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"div/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	spans    string
	setups   int
}

// setups is how many times a run sets its workload up, each on its own
// graph; setup_s is their median.
const setups = 5

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "reduce-rr, endgame-rr or endgame-implicit")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: graph, profile and trial streams derive from it")
	fs.Float64Var(&o.seconds, "seconds", 30, "stepping budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and reports per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "spans dump path for traced runs (default .bench_out/spans-<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	case !(o.seconds > 0):
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.traced, o.setups = trace == 1, setups
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_out/spans-%s-seed%d.jsonl", o.workload, o.seed)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
		return 2
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.traced {
		if err := writeSpans(o.spans, rep.prov, rep.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	rep.print(stdout, o)
	// A trial that fails its check is counted in the result line; a law
	// that fails over the whole run fails the run.
	if !rep.lawsPass() {
		return 1
	}
	return 0
}

// report is everything one run measured.
type report struct {
	prov        provenance
	setups      []setupStats
	setupPeakMB float64
	peakMB      float64
	ref, meas   tally // the untraced reference and the measured phase
	laws        []check

	// Counter deltas over the measured phase, keyed by obs.Default
	// name; names the registry does not hold are listed in absent.
	counters   map[string]int64
	absent     []string
	sparsePeak int64
	busyNanos  int64
	poolWidth  int
	allocBytes uint64
	gcCycles   uint32

	spans []Span
	root  int
}

// deltaCounters are the obs.Default counters the per-layer metrics
// difference over the measured phase.
var deltaCounters = []string{
	"sched_tasks_total", "sched_steals_total", "sched_parks_total",
	"core_sparse_handoffs_total", "rng_stream_refills_total",
}

// measure runs the workload: repeated set-ups, then stepping units until
// the budget is spent. A traced run first spends a quarter of the budget
// untraced as the reference its tracing overhead is measured against.
func measure(w workload, o options) (*report, error) {
	rep := &report{prov: newProvenance(o.workload, o.seed, o.seconds, o.traced), counters: map[string]int64{}}
	calib0, cpu0 := calibrate(), readCPUTimes()

	var tr *Tracer
	if o.traced {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	}
	rep.root = tr.begin("bench.run", 0)
	// Each set-up draws its own graph, so setup_s is a median over graphs
	// as well as over host noise (λ's iteration count depends on the
	// graph: one call takes 0.6–3.2 s). The last set-up builds rep 0, the
	// graph every run of this seed measures.
	for i := 0; i < o.setups; i++ {
		if i > 0 {
			w.release()
			collectGarbage(tr, rep.root)
		}
		id := tr.begin("bench.setup", rep.root)
		start := time.Now()
		st, err := w.setup(tr, id, o.setups-1-i)
		st.wall = time.Since(start)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.setups = append(rep.setups, st)
	}
	rep.setupPeakMB = peakRSSMB()
	collectGarbage(tr, rep.root)

	budget := time.Duration(o.seconds * float64(time.Second))
	u := 0
	if o.traced {
		ref := budget / 4
		id := tr.begin("bench.reference", rep.root)
		for rep.ref.elapsed < ref {
			w.step(nil, 0, u, &rep.ref)
			u++
		}
		tr.end(id)
		budget -= ref
	}

	before := obs.Default.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var busy0 int64
	if p := w.pool(); p != nil {
		busy0, rep.poolWidth = p.BusyNanos(), p.Width()
	}
	id := tr.begin("bench.measure", rep.root)
	for rep.meas.elapsed < budget {
		w.step(tr, id, u, &rep.meas)
		u++
	}
	tr.end(id)
	if p := w.pool(); p != nil {
		rep.busyNanos = p.BusyNanos() - busy0
	}
	runtime.ReadMemStats(&ms1)
	after := obs.Default.Snapshot()
	tr.end(rep.root)

	rep.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rep.gcCycles = ms1.NumGC - ms0.NumGC
	for _, name := range deltaCounters {
		if !registered(before.Counters, name) {
			rep.absent = append(rep.absent, name)
			continue
		}
		rep.counters[name] = after.CounterValue(name) - before.CounterValue(name)
	}
	if registered(after.Gauges, "sparse_set_peak") {
		rep.sparsePeak = after.GaugeValue("sparse_set_peak")
	} else {
		rep.absent = append(rep.absent, "sparse_set_peak")
	}
	rep.laws = w.laws()
	rep.peakMB = peakRSSMB()
	rep.spans = tr.snapshot()
	rep.prov.HostCalibMS = (calib0 + calibrate()) / 2
	rep.prov.HostStealFrac = stealFrac(cpu0, readCPUTimes())
	return rep, nil
}

// collectGarbage frees the previous set-up's artifacts before the next
// phase, so every set-up starts from a released heap.
func collectGarbage(tr *Tracer, parent int) {
	id := tr.begin("mem.gc", parent)
	runtime.GC()
	debug.FreeOSMemory()
	tr.end(id)
}

// registered reports whether a snapshot section holds the named
// instrument.
func registered(vals []obs.NamedValue, name string) bool {
	return slices.ContainsFunc(vals, func(v obs.NamedValue) bool { return v.Name == name })
}

func (r *report) attempted() int { return r.ref.attempted + r.meas.attempted }
func (r *report) failed() int    { return r.ref.failed + r.meas.failed }

func (r *report) lawsPass() bool {
	for _, c := range r.laws {
		if !c.Pass {
			return false
		}
	}
	return true
}

// correct holds when no trial failed its check and every law passed.
func (r *report) correct() bool { return r.failed() == 0 && r.lawsPass() }

// metric is one reported value with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// ratio is a/b, 0 when b is 0, so no metric is ever NaN or infinite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupMedian is the median over set-ups of one field.
func (r *report) setupMedian(field func(setupStats) float64) float64 {
	xs := make([]float64, len(r.setups))
	for i, st := range r.setups {
		xs[i] = field(st)
	}
	return median(xs)
}

// endToEnd are the untraced run's metrics. The rates are medians over
// the run's units (a unit is one span task of a sweep, or one trial) of
// the unit's rate per second of its thread's CPU time, scaled to the
// nominal host by the unit's gauge (rateAtNominal).
func (r *report) endToEnd() []metric {
	trials, steps := r.meas.rates()
	return []metric{
		{"setup_s", r.setupMedian(func(s setupStats) float64 { return s.wall.Seconds() }), "s"},
		{"trials_per_s", median(trials), "1/s"},
		{"steps_per_s", median(steps), "draws/s"},
		{"peak_rss_mb", r.peakMB, "MB"},
	}
}

// fingerprintTrials is how many leading trials core.steps_total sums.
// Trials are pure functions of (seed, trial index), so the sum is fixed
// by the seed whatever the run's speed, and moves only when a change
// alters trajectories.
const fingerprintTrials = 16

// leadingSteps sums the steps of the units that hold the run's first
// n trials, reference phase first.
func (r *report) leadingSteps(n int) int64 {
	var s int64
	for _, u := range append(append([]unitStat(nil), r.ref.units...), r.meas.units...) {
		if n <= 0 {
			break
		}
		s += u.steps
		n -= u.trials
	}
	return s
}

// perLayer are the traced run's metrics. Counter and step totals cover
// the measured (traced) phase; set-up timings are medians over set-ups.
func (r *report) perLayer() []metric {
	const mb = 1 << 20
	sec := func(d time.Duration) float64 { return d.Seconds() }
	ns := func(n int64) float64 { return float64(n) / 1e9 }
	steps := float64(r.meas.steps())
	calls := r.meas.calls()
	stepS := sum(calls)
	var sweeps []float64
	for _, s := range r.spans {
		if s.Name == "exp.sweep" {
			sweeps = append(sweeps, ns(s.End-s.Start))
		}
	}
	tailPct, tail := tailPercentile(calls)
	self := layerSelf(r.spans)
	refRate, _ := r.ref.rates()
	measRate, _ := r.meas.rates()
	overhead := ratio(median(refRate), median(measRate)) - 1
	if len(refRate) == 0 {
		overhead = 0
	}
	ms := []metric{
		{"graph.build_s", r.setupMedian(func(s setupStats) float64 { return sec(s.build) }), "s"},
		{"graph.build_sample_s", r.setupMedian(func(s setupStats) float64 { return ns(s.phases.SampleNanos) }), "s"},
		{"graph.build_count_s", r.setupMedian(func(s setupStats) float64 { return ns(s.phases.CountNanos) }), "s"},
		{"graph.build_offsets_s", r.setupMedian(func(s setupStats) float64 { return ns(s.phases.OffsetsNanos) }), "s"},
		{"graph.build_scatter_s", r.setupMedian(func(s setupStats) float64 { return ns(s.phases.ScatterNanos) }), "s"},
		{"graph.build_sort_s", r.setupMedian(func(s setupStats) float64 { return ns(s.phases.SortNanos) }), "s"},
		{"graph.arcindex_s", r.setupMedian(func(s setupStats) float64 { return sec(s.arcIndex) }), "s"},
		{"graph.csr_mb", r.setupMedian(func(s setupStats) float64 { return float64(s.csrBytes) / mb }), "MB"},
		{"spectral.lambda_s", r.setupMedian(func(s setupStats) float64 { return sec(s.lambda) }), "s"},
		{"exp.sweep_s", median(sweeps), "s"},
		{"sched.busy_frac", ratio(ns(r.busyNanos), float64(r.poolWidth)*sum(sweeps)), "ratio"},
		{"sched.tasks", float64(r.counters["sched_tasks_total"]), "count"},
		{"sched.steals", float64(r.counters["sched_steals_total"]), "count"},
		{"sched.parks", float64(r.counters["sched_parks_total"]), "count"},
		{"core.step_s", stepS, "s"},
		{"core.ns_per_step", ratio(stepS*1e9, steps), "ns/step"},
		{"core.call_ms_p50", median(calls) * 1e3, "ms"},
		{"core.call_ms_tail", tail * 1e3, "ms"},
		{"core.call_tail_pct", tailPct, "%"},
		{"core.calls", float64(len(calls)), "count"},
		{"core.steps_total", float64(r.leadingSteps(fingerprintTrials)), "count"},
		{"core.sparse_handoffs", float64(r.counters["core_sparse_handoffs_total"]), "count"},
		{"core.sparse_peak_mb", float64(r.sparsePeak) / mb, "MB"},
		{"rng.words_per_step", ratio(64*float64(r.counters["rng_stream_refills_total"]), steps), "words/step"},
		{"mem.setup_peak_mb", r.setupPeakMB, "MB"},
		{"mem.step_alloc_mb", float64(r.allocBytes) / mb, "MB"},
		{"mem.gc_cycles", float64(r.gcCycles), "count"},
		{"host.calib_ms", r.prov.HostCalibMS, "ms"},
		{"host.steal_frac", r.prov.HostStealFrac, "ratio"},
		{"host.gauge_ms", median(r.meas.gauges()), "ms"},
		{"check.failed_frac", failedFrac(r.attempted(), r.failed()), "ratio"},
		{"trace.unattributed_frac", unattributedFrac(r.spans, r.root, "bench.reference", "bench.gauge"), "ratio"},
		{"trace.overhead_frac", overhead, "ratio"},
		{"trace.absent_counters", float64(len(r.absent)), "count"},
	}
	for _, l := range selfLayers {
		ms = append(ms, metric{l + ".self_s", ns(self[l]), "s"})
	}
	return ms
}

// selfLayers are the layers the benchmark opens spans for.
var selfLayers = []string{"graph", "spectral", "exp", "core", "mem"}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func (r *report) print(w io.Writer, o options) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.traced)
	prov, _ := json.Marshal(r.prov) // plain strings and finite numbers cannot fail to encode
	fmt.Fprintf(w, "provenance %s\n", prov)
	walls := make([]string, len(r.setups))
	for i, st := range r.setups {
		walls[i] = fmt.Sprintf("%.3f", st.wall.Seconds())
	}
	fmt.Fprintf(w, "setup %d reps [%s] s\n", len(r.setups), strings.Join(walls, " "))
	if last := r.setups[len(r.setups)-1]; last.lambdaV != 0 {
		fmt.Fprintf(w, "setup lambda %.6f\n", last.lambdaV)
	}
	if o.traced {
		fmt.Fprintf(w, "reference %d trials in %.3f s (untraced)\n", r.ref.attempted, r.ref.elapsed.Seconds())
	}
	wall, steps := r.meas.elapsed.Seconds(), r.meas.steps()
	fmt.Fprintf(w, "measured %d trials in %d units, %.3f s stepping, %d steps (wall means: %.4g trials/s, %.4g steps/s)\n",
		r.meas.attempted, len(r.meas.units), wall, steps, ratio(float64(r.meas.attempted), wall), ratio(float64(steps), wall))
	rawTrials, rawSteps := r.meas.rawRates()
	fmt.Fprintf(w, "unit medians per CPU second: %.4g trials/s, %.4g steps/s unscaled; gauge %.4g ms (nominal %.4g ms)\n",
		median(rawTrials), median(rawSteps), median(r.meas.gauges()), float64(gaugeNominal.Nanoseconds())/1e6)
	fmt.Fprintf(w, "failed %d of %d (failed_frac %g)\n", r.failed(), r.attempted(), failedFrac(r.attempted(), r.failed()))
	for _, e := range append(r.ref.errs, r.meas.errs...) {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	for _, c := range r.laws {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "law %s %s: %s\n", c.Name, verdict, c.Detail)
	}
	for _, name := range r.absent {
		fmt.Fprintf(w, "counter %s absent from obs.Default\n", name)
	}

	ms := r.endToEnd()
	if o.traced {
		ms = r.perLayer()
		self := layerSelf(r.spans)
		wall := 0.0
		for _, s := range r.spans {
			if s.ID == r.root {
				wall = float64(s.End-s.Start) / 1e9
			}
		}
		fmt.Fprintf(w, "self time by layer over %.3f s of wall (concurrent spans each count):\n", wall)
		for _, l := range selfLayers {
			fmt.Fprintf(w, "  %-9s %9.3f s  %6.1f%%\n", l, float64(self[l])/1e9, 100*ratio(float64(self[l])/1e9, wall))
		}
		fmt.Fprintf(w, "spans %d written to %s\n", len(r.spans), o.spans)
	}
	out := resultLine{Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "metric %-24s %.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, _ := json.Marshal(out) // every value is finite, so encoding cannot fail
	fmt.Fprintf(w, "%s\n", line)
}
