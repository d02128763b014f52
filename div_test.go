package div_test

import (
	"fmt"
	"math"
	"testing"

	"div"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g, err := div.RandomRegular(200, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !div.IsConnected(g) {
		t.Fatal("random regular graph disconnected")
	}
	init := div.UniformOpinions(g.N(), 5, div.NewRand(2))
	res, err := div.Run(div.Config{Graph: g, Initial: init, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus {
		t.Fatalf("no consensus after %d steps", res.Steps)
	}
	c := res.InitialWeightedAverage
	if float64(res.Winner) < math.Floor(c)-1 || float64(res.Winner) > math.Ceil(c)+1 {
		t.Errorf("winner %d far from average %.3f", res.Winner, c)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	g := div.Complete(60)
	init := div.UniformOpinions(60, 4, div.NewRand(4))
	for _, rule := range []div.Rule{div.DIV{}, div.Pull{}, div.Median{}, div.BestOfK{K: 3}} {
		res, err := div.Run(div.Config{
			Graph:   g,
			Initial: init,
			Rule:    rule,
			Process: div.EdgeProcess,
			Seed:    5,
		})
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		if !res.Consensus {
			t.Errorf("%s: no consensus", rule.Name())
		}
	}
}

func TestPublicAPISpectral(t *testing.T) {
	lam, err := div.Lambda(div.Complete(50))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lam-1.0/49) > 1e-6 {
		t.Errorf("λ(K_50) = %v, want 1/49", lam)
	}
	if b := div.MixingTimeBound(0.5, 0.01, 0.25); b <= 0 || math.IsInf(b, 0) {
		t.Errorf("mixing bound %v", b)
	}
}

func TestPublicAPIDistributed(t *testing.T) {
	g := div.Complete(30)
	init := div.UniformOpinions(30, 3, div.NewRand(6))
	res, err := div.RunDistributed(div.NetConfig{
		Graph:           g,
		Initial:         init,
		Seed:            7,
		StopOnConsensus: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus {
		t.Errorf("no distributed consensus by time %v", res.Time)
	}
}

func TestPublicAPINewGraph(t *testing.T) {
	g, err := div.NewGraph(3, []div.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("n=%d m=%d", g.N(), g.M())
	}
	if _, err := div.NewGraph(2, []div.Edge{{U: 0, V: 0}}); err == nil {
		t.Error("self loop accepted")
	}
}

// ExampleRun demonstrates the headline guarantee: consensus on the
// rounded initial average.
func ExampleRun() {
	g := div.Complete(90)
	// 30 vertices at each of 1, 4, 7: average exactly 4.
	init, err := div.BlockOpinions(90, []int{30, 0, 0, 30, 0, 0, 30}, div.NewRand(1))
	if err != nil {
		panic(err)
	}
	res, err := div.Run(div.Config{Graph: g, Initial: init, Seed: 20})
	if err != nil {
		panic(err)
	}
	fmt.Println("consensus:", res.Consensus, "winner:", res.Winner)
	// Output: consensus: true winner: 4
}

func TestPublicAPIExtensions(t *testing.T) {
	g := div.Complete(20)
	init := div.UniformOpinions(20, 4, div.NewRand(10))

	// Step-size rule.
	res, err := div.Run(div.Config{Graph: g, Initial: init, Rule: div.IncrementalStep{S: 2}, Seed: 11})
	if err != nil || !res.Consensus {
		t.Fatalf("IncrementalStep: %+v, %v", res, err)
	}

	// Synchronous rounds.
	sres, err := div.RunSync(div.SyncConfig{Graph: g, Initial: init, Lazy: 0.3, Seed: 12})
	if err != nil || !sres.Consensus {
		t.Fatalf("RunSync: %+v, %v", sres, err)
	}

	// Zealots.
	zInit := append([]int(nil), init...)
	zInit[0] = 4
	rule, err := div.NewStubborn(div.DIV{}, 20, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	zres, err := div.Run(div.Config{Graph: g, Initial: zInit, Rule: rule, MaxSteps: 5000 * 400, Seed: 13})
	if err != nil || !zres.Consensus || zres.Winner != 4 {
		t.Fatalf("Stubborn: %+v, %v", zres, err)
	}

	// Push direction.
	pres, err := div.Run(div.Config{Graph: g, Initial: init, Rule: div.PushDIV{}, Seed: 14})
	if err != nil || !pres.Consensus {
		t.Fatalf("PushDIV: %+v, %v", pres, err)
	}

	// Recorder.
	rec := &div.Recorder{}
	_, err = div.Run(div.Config{Graph: g, Initial: init, Seed: 15, Observer: rec.Observe, ObserveEvery: 20})
	if err != nil || rec.Len() < 2 {
		t.Fatalf("Recorder: %d samples, %v", rec.Len(), err)
	}
}
