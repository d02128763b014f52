package exp

import (
	"bytes"
	"strings"
	"testing"
)

func compareFixture() *BenchReport {
	return &BenchReport{
		E2: BenchE2{
			N: 800, K: 8,
			TrialsPerSecReused:    1000,
			BestBlockTrialsPerSec: 1500,
			BestBlockNsPerStep:    40,
		},
		Rows: []BenchRow{
			{Graph: "complete(n=256)", Process: "vertex", Engine: "fast",
				TrialsPerSecReused: 5000, NsPerStepReused: 30, AllocsPerStep: 0, AllocsPerTrialReused: 2},
			{Graph: "rr(n=512,d=8)", Process: "edge", Engine: "auto",
				TrialsPerSecReused: 800, NsPerStepReused: 55, AllocsPerStep: 0, AllocsPerTrialReused: 3},
		},
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	rep := compareFixture()
	res := CompareReports(rep, rep, CompareOptions{})
	if res.Regressions != 0 {
		t.Fatalf("self-compare found %d regressions: %+v", res.Regressions, res.Metrics)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("self-compare skipped %v", res.Skipped)
	}
	// 2 rows × 4 metrics + 3 E2 metrics.
	if len(res.Metrics) != 11 {
		t.Fatalf("compared %d metrics, want 11", len(res.Metrics))
	}
}

func TestCompareWithinNoiseIsClean(t *testing.T) {
	old, cur := compareFixture(), compareFixture()
	cur.Rows[0].TrialsPerSecReused *= 0.95 // 5% slower: inside the 10% default
	cur.Rows[0].NsPerStepReused *= 1.05
	cur.E2.BestBlockTrialsPerSec *= 0.92
	if res := CompareReports(old, cur, CompareOptions{}); res.Regressions != 0 {
		t.Fatalf("noise-level drift flagged: %+v", res.Metrics)
	}
}

func TestCompareFlagsInjectedRegressions(t *testing.T) {
	old, cur := compareFixture(), compareFixture()
	cur.Rows[0].TrialsPerSecReused *= 0.5 // 2× slower
	cur.Rows[1].NsPerStepReused *= 1.5    // 50% more per step
	cur.Rows[1].AllocsPerStep = 2         // new allocations on the hot path
	cur.E2.BestBlockTrialsPerSec *= 0.7
	res := CompareReports(old, cur, CompareOptions{})
	if res.Regressions != 4 {
		t.Fatalf("found %d regressions, want 4: %+v", res.Regressions, res.Metrics)
	}
	wantFlagged := map[string]bool{
		"rows[complete(n=256)|vertex|fast].trials_per_sec_reused": true,
		"rows[rr(n=512,d=8)|edge|auto].ns_per_step_reused":        true,
		"rows[rr(n=512,d=8)|edge|auto].allocs_per_step":           true,
		"e2.best_block_trials_per_sec":                            true,
	}
	for _, m := range res.Metrics {
		if m.Regressed != wantFlagged[m.Name] {
			t.Errorf("%s regressed=%v, want %v", m.Name, m.Regressed, wantFlagged[m.Name])
		}
	}
}

func TestCompareImprovementIsNotRegression(t *testing.T) {
	old, cur := compareFixture(), compareFixture()
	cur.Rows[0].TrialsPerSecReused *= 3
	cur.Rows[0].NsPerStepReused /= 3
	cur.Rows[0].AllocsPerTrialReused = 0
	if res := CompareReports(old, cur, CompareOptions{}); res.Regressions != 0 {
		t.Fatalf("improvements flagged: %+v", res.Metrics)
	}
}

func TestCompareThresholdOption(t *testing.T) {
	old, cur := compareFixture(), compareFixture()
	cur.Rows[0].TrialsPerSecReused *= 0.8 // 20% slower
	if res := CompareReports(old, cur, CompareOptions{Threshold: 0.30}); res.Regressions != 0 {
		t.Fatalf("20%% drop flagged under a 30%% threshold: %+v", res.Metrics)
	}
	if res := CompareReports(old, cur, CompareOptions{Threshold: 0.10}); res.Regressions != 1 {
		t.Fatalf("20%% drop not flagged under a 10%% threshold")
	}
}

func TestCompareAllocFloorTolleratesFlutter(t *testing.T) {
	old, cur := compareFixture(), compareFixture()
	cur.Rows[1].AllocsPerTrialReused += 0.3 // measurement flutter, under the 0.5 floor
	if res := CompareReports(old, cur, CompareOptions{}); res.Regressions != 0 {
		t.Fatalf("alloc flutter flagged: %+v", res.Metrics)
	}
	cur.Rows[1].AllocsPerTrialReused = old.Rows[1].AllocsPerTrialReused + 1
	if res := CompareReports(old, cur, CompareOptions{}); res.Regressions != 1 {
		t.Fatal("a whole extra allocation per trial not flagged")
	}
}

func TestCompareSkipsUnmatched(t *testing.T) {
	old, cur := compareFixture(), compareFixture()
	cur.Rows = cur.Rows[:1]                                   // one row vanished
	cur.Rows = append(cur.Rows, BenchRow{Graph: "star(n=64)", // one row appeared
		Process: "vertex", Engine: "naive", TrialsPerSecReused: 1})
	cur.E2.N = 3200 // different E2 point
	res := CompareReports(old, cur, CompareOptions{})
	if res.Regressions != 0 {
		t.Fatalf("unmatched sections must skip, not regress: %+v", res.Metrics)
	}
	if len(res.Skipped) != 3 {
		t.Fatalf("skipped = %v, want the vanished row, the new row, and e2", res.Skipped)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf, CompareOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, "skip ") || !strings.Contains(got, "no regressions") {
		t.Fatalf("WriteText output:\n%s", got)
	}
}

func TestCompareDissenterGuard(t *testing.T) {
	withDiss := func(speedup, autoTailSec, peakPerVertex float64) *BenchReport {
		rep := compareFixture()
		rep.BigN = &BenchBigN{Dissenter: &BenchBigNDissenter{
			N: 1_000_000, Dissenters: 256,
			Speedup: speedup, SparsePeakBytesPerVertex: peakPerVertex,
			Arms: []BenchBigNDissenterArm{
				{Label: "naive", Trials: 3, Phase: BenchBigNPhase{TailSeconds: 12}},
				{Label: "auto/sparse", Trials: 3, Phase: BenchBigNPhase{TailSeconds: autoTailSec}},
			},
		}}
		return rep
	}
	old := withDiss(19, 0.6, 4.14)
	if res := CompareReports(old, withDiss(19, 0.6, 4.14), CompareOptions{}); res.Regressions != 0 || len(res.Skipped) != 0 {
		t.Fatalf("self-compare of dissenter section not clean: %+v %v", res.Metrics, res.Skipped)
	}
	// Speedup halved, auto tail 2.5× slower, peak per vertex inflated:
	// three regressions (the naive arm's tail is unchanged).
	if res := CompareReports(old, withDiss(8, 1.5, 7.5), CompareOptions{}); res.Regressions != 3 {
		t.Fatalf("found %d regressions, want 3: %+v", res.Regressions, res.Metrics)
	}
	// A report without the subsection skips, never silently passes.
	res := CompareReports(old, compareFixture(), CompareOptions{})
	if res.Regressions != 0 || len(res.Skipped) != 1 {
		t.Fatalf("one-sided dissenter section: regressions=%d skipped=%v", res.Regressions, res.Skipped)
	}
	// An old report that predates a field reads 0 there: the metric has
	// no baseline, so it skips instead of passing as compared.
	res = CompareReports(withDiss(19, 0.6, 0), withDiss(19, 0.6, 4.146), CompareOptions{})
	const peak = "bign.dissenter.sparse_peak_bytes_per_vertex"
	if len(res.Skipped) != 1 || res.Skipped[0] != peak+": no baseline in old report" {
		t.Fatalf("field missing from the old report not skipped: %v", res.Skipped)
	}
	for _, m := range res.Metrics {
		if m.Name == peak {
			t.Fatalf("metric without a baseline compared: %+v", m)
		}
	}
}

func TestCompareBuildGuard(t *testing.T) {
	withBuild := func(serialEps, speedup, rssRatio float64) *BenchReport {
		rep := compareFixture()
		rep.Build = &BenchBuild{GOMAXPROCS: 1, Points: []BenchBuildPoint{
			{Family: "gnp", N: 1_000_000, Param: 1.6e-5,
				SerialEdgesPerSec: serialEps, SpeedupVsBaseline: speedup, RSSOverCSR: rssRatio},
			{Family: "randomRegular", N: 1_000_000, Param: 8,
				SerialEdgesPerSec: 2e6, RSSOverCSR: 2.8},
		}}
		return rep
	}
	old := withBuild(9e6, 1.8, 1.5)
	if res := CompareReports(old, withBuild(9e6, 1.8, 1.5), CompareOptions{}); res.Regressions != 0 || len(res.Skipped) != 0 {
		t.Fatalf("self-compare of build section not clean: %+v %v", res.Metrics, res.Skipped)
	}
	// Throughput halved, speedup collapsed, RSS ratio inflated: three
	// regressions on the gnp point.
	if res := CompareReports(old, withBuild(4e6, 1.1, 2.2), CompareOptions{}); res.Regressions != 3 {
		t.Fatalf("found %d regressions, want 3: %+v", res.Regressions, res.Metrics)
	}
	// The rr point recorded no baseline (SpeedupVsBaseline 0 on both
	// sides): the speedup metric must not be compared for it.
	for _, m := range CompareReports(old, withBuild(9e6, 1.8, 1.5), CompareOptions{}).Metrics {
		if strings.Contains(m.Name, "randomRegular") && strings.Contains(m.Name, "speedup_vs_baseline") {
			t.Fatalf("baseline-less point compared a speedup: %s", m.Name)
		}
	}
	// A report without the section skips, never silently passes; so do
	// points present on only one side.
	if res := CompareReports(old, compareFixture(), CompareOptions{}); res.Regressions != 0 || len(res.Skipped) != 1 {
		t.Fatalf("one-sided build section: regressions=%d skipped=%v", res.Regressions, res.Skipped)
	}
	shrunk := withBuild(9e6, 1.8, 1.5)
	shrunk.Build.Points = shrunk.Build.Points[:1]
	if res := CompareReports(old, shrunk, CompareOptions{}); len(res.Skipped) != 1 || !strings.Contains(res.Skipped[0], "only in old report") {
		t.Fatalf("vanished build point not flagged: %v", res.Skipped)
	}
}

func TestCompareWriteTextRegressionsFirst(t *testing.T) {
	old, cur := compareFixture(), compareFixture()
	cur.Rows[1].TrialsPerSecReused *= 0.4
	res := CompareReports(old, cur, CompareOptions{})
	var buf bytes.Buffer
	if err := res.WriteText(&buf, CompareOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "FAIL ") {
		t.Fatalf("regressions must lead the rendering:\n%s", out)
	}
	if !strings.Contains(out, "1 regression(s) beyond 10% threshold") {
		t.Fatalf("missing verdict line:\n%s", out)
	}
}
