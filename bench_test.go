package div_test

import (
	"testing"

	"div"
	"div/internal/core"
	"div/internal/exp"
	"div/internal/graph"
	"div/internal/rng"
	"div/internal/spectral"
)

// ---------------------------------------------------------------------------
// Experiment benchmarks: one per entry in the E1–E19 index (DESIGN.md §3).
// Each iteration regenerates the experiment's tables at quick sizes and
// reports the number of paper-claim checks that passed as a metric.
// Run a single one with e.g. `go test -bench=E1 -benchtime=1x`.
// ---------------------------------------------------------------------------

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	def, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	passed, failed := 0, 0
	for i := 0; i < b.N; i++ {
		rep, err := def.Run(exp.Params{Quick: true, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		failed += len(rep.Failed())
		passed += len(rep.Checks) - len(rep.Failed())
	}
	b.ReportMetric(float64(passed)/float64(b.N), "checks-passed/op")
	if failed > 0 {
		b.Logf("%s: %d check failures across %d runs (statistical thresholds; see divbench)", id, failed, b.N)
	}
}

func BenchmarkE1WinnerDistribution(b *testing.B)  { benchmarkExperiment(b, "E1") }
func BenchmarkE2ReductionTime(b *testing.B)       { benchmarkExperiment(b, "E2") }
func BenchmarkE3Martingale(b *testing.B)          { benchmarkExperiment(b, "E3") }
func BenchmarkE4TwoOpinionPull(b *testing.B)      { benchmarkExperiment(b, "E4") }
func BenchmarkE5Concentration(b *testing.B)       { benchmarkExperiment(b, "E5") }
func BenchmarkE6StageEvolution(b *testing.B)      { benchmarkExperiment(b, "E6") }
func BenchmarkE7ModeMedianMean(b *testing.B)      { benchmarkExperiment(b, "E7") }
func BenchmarkE8LoadBalancing(b *testing.B)       { benchmarkExperiment(b, "E8") }
func BenchmarkE9PathCounterexample(b *testing.B)  { benchmarkExperiment(b, "E9") }
func BenchmarkE10EdgeVsVertex(b *testing.B)       { benchmarkExperiment(b, "E10") }
func BenchmarkE11Eigenvalues(b *testing.B)        { benchmarkExperiment(b, "E11") }
func BenchmarkE12ExtremeElimination(b *testing.B) { benchmarkExperiment(b, "E12") }
func BenchmarkE13LambdaKThreshold(b *testing.B)   { benchmarkExperiment(b, "E13") }
func BenchmarkE14Distributed(b *testing.B)        { benchmarkExperiment(b, "E14") }
func BenchmarkE15StepSizeAblation(b *testing.B)   { benchmarkExperiment(b, "E15") }
func BenchmarkE16Synchronous(b *testing.B)        { benchmarkExperiment(b, "E16") }
func BenchmarkE17PushPull(b *testing.B)           { benchmarkExperiment(b, "E17") }
func BenchmarkE18Zealots(b *testing.B)            { benchmarkExperiment(b, "E18") }
func BenchmarkE19CoalescingDuality(b *testing.B)  { benchmarkExperiment(b, "E19") }

// ---------------------------------------------------------------------------
// Engine micro-benchmarks: the per-step costs that dominate everything
// above.
// ---------------------------------------------------------------------------

func benchmarkSteps(b *testing.B, g *graph.Graph, proc core.Process) {
	b.Helper()
	r := rng.New(1)
	s := core.MustState(g, core.UniformOpinions(g.N(), 9, r))
	sched, err := core.NewScheduler(s, proc)
	if err != nil {
		b.Fatal(err)
	}
	rule := core.DIV{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, w := sched.Pair(r)
		rule.Step(s, r, v, w)
	}
}

func BenchmarkDIVStepVertexComplete(b *testing.B) {
	benchmarkSteps(b, graph.Complete(1000), core.VertexProcess)
}

func BenchmarkDIVStepVertexRegular(b *testing.B) {
	g, err := graph.RandomRegularSeeded(10000, 16, 1, graph.BuildOpts{})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkSteps(b, g, core.VertexProcess)
}

func BenchmarkDIVStepEdgeRegular(b *testing.B) {
	g, err := graph.RandomRegularSeeded(10000, 16, 1, graph.BuildOpts{})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkSteps(b, g, core.EdgeProcess)
}

func BenchmarkFullRunToConsensus(b *testing.B) {
	g := graph.Complete(200)
	r := rng.New(2)
	init := core.UniformOpinions(200, 5, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{Graph: g, Initial: init, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consensus {
			b.Fatal("no consensus")
		}
	}
}

// BenchmarkLambdaSparse times spectral.Lambda on the benchmark's
// reduce-rr graph shape, rr(2¹⁴, 8), the λ its set-up pays for.
func BenchmarkLambdaSparse(b *testing.B) {
	g, err := graph.RandomRegularSeeded(1<<14, 8, 3, graph.BuildOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.Lambda(g, spectral.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomRegularGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := graph.RandomRegularSeeded(5000, 8, uint64(i), graph.BuildOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGnpGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := graph.GnpSeeded(5000, 0.01, uint64(i), graph.BuildOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedRun(b *testing.B) {
	g := div.Complete(60)
	init := div.UniformOpinions(60, 4, div.NewRand(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := div.RunDistributed(div.NetConfig{
			Graph:           g,
			Initial:         init,
			Seed:            uint64(i + 1),
			StopOnConsensus: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Consensus {
			b.Fatal("no consensus")
		}
	}
}

// Ensure every experiment has a benchmark: a compile-time-ish guard
// that fails fast if the index grows without a matching bench.
func TestBenchCoverageOfExperimentIndex(t *testing.T) {
	covered := map[string]bool{
		"E1": true, "E2": true, "E3": true, "E4": true, "E5": true,
		"E6": true, "E7": true, "E8": true, "E9": true, "E10": true,
		"E11": true, "E12": true, "E13": true, "E14": true, "E15": true,
		"E16": true, "E17": true, "E18": true, "E19": true,
	}
	for _, d := range exp.All {
		if !covered[d.ID] {
			t.Errorf("experiment %s has no benchmark in bench_test.go", d.ID)
		}
	}
	if len(covered) != len(exp.All) {
		t.Errorf("bench list (%d) out of sync with experiment index (%d)", len(covered), len(exp.All))
	}
}
