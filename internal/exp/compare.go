package exp

import (
	"fmt"
	"io"
	"sort"
)

// This file is the bench regression gate behind `divbench -compare
// old.json new.json` (and `make bench-compare`): it pairs up the rows
// of two BENCH_engine.json reports and flags throughput or allocation
// regressions beyond a noise threshold. Wall-clock metrics on shared
// CI hardware are noisy, so the gate is deliberately tolerant: a
// relative threshold (default 10%) on the throughput ratios, and an
// absolute floor on allocation counts (which are near-deterministic —
// a step from 0 to 1 alloc/step is real, a 0.01 flutter is not).

// CompareOptions tunes the regression gate.
type CompareOptions struct {
	// Threshold is the tolerated relative degradation, e.g. 0.10 means
	// a metric may be up to 10% worse before it counts as a regression.
	// Zero means the default 0.10.
	Threshold float64
	// AllocFloor is the absolute allocation-count slack: an allocs
	// metric regresses only when new > old + AllocFloor. Zero means the
	// default 0.5 (half an allocation per step/trial — below any real
	// code change, above measurement flutter).
	AllocFloor float64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.Threshold == 0 {
		o.Threshold = 0.10
	}
	if o.AllocFloor == 0 {
		o.AllocFloor = 0.5
	}
	return o
}

// CompareMetric is one paired measurement.
type CompareMetric struct {
	// Name identifies the metric, e.g.
	// "rows[complete(n=256)|vertex|fast].trials_per_sec_reused".
	Name string
	Old  float64
	New  float64
	// Change is the relative change in the direction of "worse": for
	// higher-is-better metrics (old-new)/old, for lower-is-better
	// (new-old)/old. Positive means the new report is worse.
	Change    float64
	Regressed bool
}

// CompareResult is the outcome of CompareReports.
type CompareResult struct {
	Metrics []CompareMetric
	// Skipped lists row keys present in only one report, the E2
	// section when its configuration differs, and throughput or
	// latency metrics the old report holds at 0 — compared against
	// nothing, flagged so a silently shrunk report can't pass as clean.
	Skipped     []string
	Regressions int
}

// compareCtx accumulates paired metrics.
type compareCtx struct {
	opts CompareOptions
	res  *CompareResult
}

// noBaseline lists a metric whose old value is 0 under Skipped and
// reports true: an old report that lacks the field reads 0 there, and
// a relative change against 0 compares nothing.
func (c *compareCtx) noBaseline(name string, old float64) bool {
	if old != 0 {
		return false
	}
	c.res.Skipped = append(c.res.Skipped, name+": no baseline in old report")
	return true
}

// record appends m, flagging it when its change exceeds Threshold.
func (c *compareCtx) record(m CompareMetric) {
	if m.Change > c.opts.Threshold {
		m.Regressed = true
		c.res.Regressions++
	}
	c.res.Metrics = append(c.res.Metrics, m)
}

// higherBetter records a throughput-style metric: regression when the
// new value drops more than Threshold below the old.
func (c *compareCtx) higherBetter(name string, old, new float64) {
	if !c.noBaseline(name, old) {
		c.record(CompareMetric{Name: name, Old: old, New: new, Change: (old - new) / old})
	}
}

// lowerBetter records a latency-style metric: regression when the new
// value rises more than Threshold above the old.
func (c *compareCtx) lowerBetter(name string, old, new float64) {
	if !c.noBaseline(name, old) {
		c.record(CompareMetric{Name: name, Old: old, New: new, Change: (new - old) / old})
	}
}

// allocs records an allocation-count metric with the absolute floor.
// A 0 baseline is compared like any other: 0 allocs/step is a real
// value, not a missing field.
func (c *compareCtx) allocs(name string, old, new float64) {
	m := CompareMetric{Name: name, Old: old, New: new}
	if old > 0 {
		m.Change = (new - old) / old
	}
	m.Regressed = new > old+c.opts.AllocFloor
	if m.Regressed {
		c.res.Regressions++
	}
	c.res.Metrics = append(c.res.Metrics, m)
}

// CompareReports pairs the rows of two bench reports and flags
// regressions beyond the noise threshold. Rows are matched by
// graph × process × engine; rows present in only one report are
// recorded in Skipped, never silently dropped. The E2 section is
// compared only when both reports measured the same point (N and K
// match — quick and full reports use different sizes).
func CompareReports(old, new *BenchReport, opts CompareOptions) *CompareResult {
	c := &compareCtx{opts: opts.withDefaults(), res: &CompareResult{}}

	oldRows := make(map[string]BenchRow, len(old.Rows))
	for _, r := range old.Rows {
		oldRows[r.Graph+"|"+r.Process+"|"+r.Engine] = r
	}
	seen := make(map[string]bool, len(new.Rows))
	for _, nr := range new.Rows {
		key := nr.Graph + "|" + nr.Process + "|" + nr.Engine
		seen[key] = true
		or, ok := oldRows[key]
		if !ok {
			c.res.Skipped = append(c.res.Skipped, "rows["+key+"]: only in new report")
			continue
		}
		pfx := "rows[" + key + "]."
		c.higherBetter(pfx+"trials_per_sec_reused", or.TrialsPerSecReused, nr.TrialsPerSecReused)
		c.lowerBetter(pfx+"ns_per_step_reused", or.NsPerStepReused, nr.NsPerStepReused)
		c.allocs(pfx+"allocs_per_step", or.AllocsPerStep, nr.AllocsPerStep)
		c.allocs(pfx+"allocs_per_trial_reused", or.AllocsPerTrialReused, nr.AllocsPerTrialReused)
	}
	for key := range oldRows {
		if !seen[key] {
			c.res.Skipped = append(c.res.Skipped, "rows["+key+"]: only in old report")
		}
	}

	if old.E2.N == new.E2.N && old.E2.K == new.E2.K {
		c.higherBetter("e2.trials_per_sec_reused", old.E2.TrialsPerSecReused, new.E2.TrialsPerSecReused)
		c.higherBetter("e2.best_block_trials_per_sec", old.E2.BestBlockTrialsPerSec, new.E2.BestBlockTrialsPerSec)
		c.lowerBetter("e2.best_block_ns_per_step", old.E2.BestBlockNsPerStep, new.E2.BestBlockNsPerStep)
	} else {
		c.res.Skipped = append(c.res.Skipped,
			fmt.Sprintf("e2: points differ (old n=%d k=%d, new n=%d k=%d)", old.E2.N, old.E2.K, new.E2.N, new.E2.K))
	}

	// The bign dissenter subsection guards the sparse-endgame tail win:
	// the naive/auto speedup ratio (wall-noise partially cancels in the
	// ratio) and the auto arm's tail seconds, plus the near-deterministic
	// sparse working set per vertex. Compared only when both reports
	// measured the same point.
	switch od, nd := dissenterOf(old), dissenterOf(new); {
	case od == nil && nd == nil:
	case od == nil || nd == nil || od.N != nd.N || od.Dissenters != nd.Dissenters:
		c.res.Skipped = append(c.res.Skipped, "bign.dissenter: present or sized differently in only one report")
	default:
		c.higherBetter("bign.dissenter.speedup", od.Speedup, nd.Speedup)
		c.lowerBetter("bign.dissenter.sparse_peak_bytes_per_vertex", od.SparsePeakBytesPerVertex, nd.SparsePeakBytesPerVertex)
		for _, oa := range od.Arms {
			for _, na := range nd.Arms {
				if oa.Label == na.Label && oa.Trials == na.Trials {
					c.lowerBetter("bign.dissenter.arms["+oa.Label+"].tail_seconds",
						oa.Phase.TailSeconds, na.Phase.TailSeconds)
				}
			}
		}
	}

	// The build section guards graph-construction throughput and the
	// transient-memory bound. Points are matched by family × n × param;
	// points present in only one report are flagged like rows. The
	// serial/baseline speedup ratio is compared rather than raw wall
	// seconds (shared-hardware noise partially cancels in the ratio).
	compareBuild(c, buildOf(old), buildOf(new))

	sort.Slice(c.res.Metrics, func(i, j int) bool { return c.res.Metrics[i].Name < c.res.Metrics[j].Name })
	sort.Strings(c.res.Skipped)
	return c.res
}

// dissenterOf extracts the bign dissenter subsection, nil-safe at
// every level (reports without a bign section compare as absent).
func dissenterOf(r *BenchReport) *BenchBigNDissenter {
	if r == nil || r.BigN == nil {
		return nil
	}
	return r.BigN.Dissenter
}

// buildOf extracts the build section, nil-safe.
func buildOf(r *BenchReport) *BenchBuild {
	if r == nil {
		return nil
	}
	return r.Build
}

// compareBuild pairs the build-section points of two reports.
func compareBuild(c *compareCtx, old, new *BenchBuild) {
	if old == nil && new == nil {
		return
	}
	if old == nil || new == nil {
		c.res.Skipped = append(c.res.Skipped, "build: section present in only one report")
		return
	}
	oldPts := make(map[string]BenchBuildPoint, len(old.Points))
	for _, pt := range old.Points {
		oldPts[buildPointKey(pt)] = pt
	}
	seen := make(map[string]bool, len(new.Points))
	for _, np := range new.Points {
		key := buildPointKey(np)
		seen[key] = true
		op, ok := oldPts[key]
		if !ok {
			c.res.Skipped = append(c.res.Skipped, "build.points["+key+"]: only in new report")
			continue
		}
		pfx := "build.points[" + key + "]."
		c.higherBetter(pfx+"serial_edges_per_sec", op.SerialEdgesPerSec, np.SerialEdgesPerSec)
		if op.SpeedupVsBaseline > 0 && np.SpeedupVsBaseline > 0 {
			c.higherBetter(pfx+"speedup_vs_baseline", op.SpeedupVsBaseline, np.SpeedupVsBaseline)
		}
		c.lowerBetter(pfx+"rss_over_csr", op.RSSOverCSR, np.RSSOverCSR)
	}
	for key := range oldPts {
		if !seen[key] {
			c.res.Skipped = append(c.res.Skipped, "build.points["+key+"]: only in old report")
		}
	}
}

func buildPointKey(pt BenchBuildPoint) string {
	return fmt.Sprintf("%s|n=%d|param=%g", pt.Family, pt.N, pt.Param)
}

// WriteText renders the comparison as a human-readable table:
// regressions first, then improvements/no-change, then skips.
func (r *CompareResult) WriteText(w io.Writer, opts CompareOptions) error {
	opts = opts.withDefaults()
	write := func(only bool) {
		for _, m := range r.Metrics {
			if m.Regressed != only {
				continue
			}
			mark := "ok  "
			if m.Regressed {
				mark = "FAIL"
			}
			fmt.Fprintf(w, "%s %-60s old=%-12.4g new=%-12.4g worse=%+.1f%%\n",
				mark, m.Name, m.Old, m.New, 100*m.Change)
		}
	}
	write(true)
	write(false)
	for _, s := range r.Skipped {
		fmt.Fprintf(w, "skip %s\n", s)
	}
	if r.Regressions > 0 {
		_, err := fmt.Fprintf(w, "%d regression(s) beyond %.0f%% threshold\n", r.Regressions, 100*opts.Threshold)
		return err
	}
	_, err := fmt.Fprintf(w, "no regressions beyond %.0f%% threshold (%d metrics compared, %d skipped)\n",
		100*opts.Threshold, len(r.Metrics), len(r.Skipped))
	return err
}
