package core_test

import (
	"testing"

	"div/internal/core"
	"div/internal/graph"
	"div/internal/rng"
)

// BenchmarkAutoPerStepDissenter measures the per-step wall-clock cost of
// a full EngineAuto consensus run on the dissenter profile
// (RR(10000,8), two-opinion split with n/500 dissenters, vertex
// process). This is the acceptance benchmark for the observability
// layer: with Config.Probe == nil the cost must stay within 2% of the
// pre-probe baseline. The reported metric is ns/step (per-trial
// elapsed over realized steps).
func BenchmarkAutoPerStepDissenter(b *testing.B) {
	const n, d = 10000, 8
	g, err := graph.RandomRegularSeeded(n, d, rng.DeriveSeed(1, 0x2000), graph.BuildOpts{})
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := rng.DeriveSeed(1, 0x20f0+uint64(i))
		b.StopTimer()
		init, err := core.TwoOpinionSplit(n, n/500, rng.New(seed))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := core.Run(core.Config{
			Graph:   g,
			Initial: init,
			Process: core.VertexProcess,
			Engine:  core.EngineAuto,
			Seed:    rng.SplitMix64(seed),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consensus {
			b.Fatal("no consensus")
		}
		steps += res.Steps
	}
	b.StopTimer()
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
}
