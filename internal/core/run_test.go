package core

import (
	"math"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
)

func TestRunReachesConsensus(t *testing.T) {
	g := graph.Complete(30)
	r := rng.New(41)
	res, err := Run(Config{
		Graph:   g,
		Initial: UniformOpinions(30, 5, r),
		Process: VertexProcess,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus {
		t.Fatalf("no consensus after %d steps", res.Steps)
	}
	if res.Winner < 1 || res.Winner > 5 {
		t.Errorf("winner %d outside initial range", res.Winner)
	}
	if res.TwoAdjacentStep < 0 || res.TwoAdjacentStep > res.Steps {
		t.Errorf("TwoAdjacentStep = %d (steps %d)", res.TwoAdjacentStep, res.Steps)
	}
	if res.ThreeStep < 0 || res.ThreeStep > res.TwoAdjacentStep {
		t.Errorf("ThreeStep = %d > TwoAdjacentStep %d", res.ThreeStep, res.TwoAdjacentStep)
	}
	if res.FinalMin != res.Winner || res.FinalMax != res.Winner {
		t.Errorf("final range [%d,%d] at consensus %d", res.FinalMin, res.FinalMax, res.Winner)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(Config{Graph: graph.Complete(3), Initial: []int{1}}); err == nil {
		t.Error("bad initial length accepted")
	}
	// An unknown process must surface as an error from the fast engine,
	// with and without a scratch (whose arena indexes by process).
	g := graph.Cycle(6)
	for _, sc := range []*Scratch{nil, NewScratch(g)} {
		if _, err := Run(Config{Graph: g, Initial: []int{1, 2, 1, 2, 1, 2}, Process: Process(7), Engine: EngineFast, Scratch: sc}); err == nil {
			t.Errorf("unknown process accepted (scratch %v)", sc != nil)
		}
	}
}

func TestRunUntilTwoAdjacent(t *testing.T) {
	g := graph.Complete(40)
	r := rng.New(42)
	res, err := Run(Config{
		Graph:   g,
		Initial: UniformOpinions(40, 6, r),
		Stop:    UntilTwoAdjacent,
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMax-res.FinalMin > 1 {
		t.Errorf("stopped with range %d", res.FinalMax-res.FinalMin)
	}
	if res.TwoAdjacentStep != res.Steps {
		t.Errorf("TwoAdjacentStep %d != Steps %d", res.TwoAdjacentStep, res.Steps)
	}
	if math.IsNaN(res.WeightAtTwoAdjacent) {
		t.Error("WeightAtTwoAdjacent not recorded")
	}
}

func TestRunUntilMaxSteps(t *testing.T) {
	g := graph.Complete(10)
	r := rng.New(43)
	res, err := Run(Config{
		Graph:    g,
		Initial:  UniformOpinions(10, 3, r),
		Stop:     UntilMaxSteps,
		MaxSteps: 123,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 123 {
		t.Errorf("steps = %d, want 123", res.Steps)
	}
}

func TestRunImmediateConsensus(t *testing.T) {
	g := graph.Complete(5)
	res, err := Run(Config{Graph: g, Initial: []int{7, 7, 7, 7, 7}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus || res.Winner != 7 || res.Steps != 0 {
		t.Errorf("immediate consensus: %+v", res)
	}
	if res.TwoAdjacentStep != 0 || res.ThreeStep != 0 {
		t.Errorf("milestones = %d,%d, want 0,0", res.ThreeStep, res.TwoAdjacentStep)
	}
}

func TestRunObserverAborts(t *testing.T) {
	g := graph.Complete(20)
	r := rng.New(44)
	calls := 0
	res, err := Run(Config{
		Graph:        g,
		Initial:      UniformOpinions(20, 4, r),
		Seed:         5,
		ObserveEvery: 10,
		Observer: func(s *State) bool {
			calls++
			return calls < 3
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Error("run not aborted")
	}
	if res.Steps > 100 {
		t.Errorf("aborted run took %d steps", res.Steps)
	}
}

func TestRunTraceSupport(t *testing.T) {
	g := graph.Complete(30)
	r := rng.New(45)
	init, err := BlockOpinions(30, []int{10, 10, 0, 0, 10}, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Graph:        g,
		Initial:      init,
		Seed:         6,
		TraceSupport: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) < 2 {
		t.Fatalf("only %d stages traced", len(res.Stages))
	}
	first := res.Stages[0]
	if first.FromStep != 0 {
		t.Errorf("first stage at step %d", first.FromStep)
	}
	wantFirst := []int{1, 2, 5}
	if len(first.Opinions) != 3 {
		t.Fatalf("first stage opinions %v, want %v", first.Opinions, wantFirst)
	}
	for i := range wantFirst {
		if first.Opinions[i] != wantFirst[i] {
			t.Fatalf("first stage opinions %v, want %v", first.Opinions, wantFirst)
		}
	}
	last := res.Stages[len(res.Stages)-1]
	if len(last.Opinions) != 1 || last.Opinions[0] != res.Winner {
		t.Errorf("last stage %v, winner %d", last.Opinions, res.Winner)
	}
	// Steps strictly increase.
	for i := 1; i < len(res.Stages); i++ {
		if res.Stages[i].FromStep <= res.Stages[i-1].FromStep {
			t.Errorf("stage steps not increasing at %d", i)
		}
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	g := graph.Complete(25)
	r := rng.New(46)
	init := UniformOpinions(25, 5, r)
	cfg := Config{Graph: g, Initial: init, Seed: 77}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Winner != b.Winner || a.Steps != b.Steps || a.TwoAdjacentStep != b.TwoAdjacentStep {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	cfg.Seed = 78
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Steps == a.Steps && c.Winner == a.Winner && c.TwoAdjacentStep == a.TwoAdjacentStep {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

func TestRunManyCount(t *testing.T) {
	g := graph.Complete(15)
	r := rng.New(47)
	results, err := RunMany(Config{Graph: g, Initial: UniformOpinions(15, 3, r), Seed: 9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if !res.Consensus {
			t.Errorf("trial %d no consensus", i)
		}
	}
}

func TestRunEdgeProcess(t *testing.T) {
	g := graph.Star(20)
	r := rng.New(48)
	res, err := Run(Config{
		Graph:   g,
		Initial: UniformOpinions(20, 3, r),
		Process: EdgeProcess,
		Seed:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus {
		t.Fatalf("no consensus on star after %d steps", res.Steps)
	}
}

func TestInitialProfiles(t *testing.T) {
	r := rng.New(49)
	ops := UniformOpinions(1000, 7, r)
	for _, x := range ops {
		if x < 1 || x > 7 {
			t.Fatalf("uniform opinion %d outside [1,7]", x)
		}
	}
	blocks, err := BlockOpinions(10, []int{3, 0, 7}, r)
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, x := range blocks {
		count[x]++
	}
	if count[1] != 3 || count[3] != 7 || count[2] != 0 {
		t.Errorf("block counts %v", count)
	}
	if _, err := BlockOpinions(5, []int{2, 2}, r); err == nil {
		t.Error("wrong block total accepted")
	}
	if _, err := BlockOpinions(5, []int{-1, 6}, r); err == nil {
		t.Error("negative block accepted")
	}

	two, err := TwoOpinionSplit(10, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, x := range two {
		if x == 1 {
			ones++
		}
	}
	if ones != 4 {
		t.Errorf("TwoOpinionSplit placed %d ones", ones)
	}
	if _, err := TwoOpinionSplit(10, 11, r); err == nil {
		t.Error("n1 > n accepted")
	}

	ext := ExtremesOpinions(11, 5, r)
	for _, x := range ext {
		if x != 1 && x != 5 {
			t.Fatalf("extremes profile contains %d", x)
		}
	}

	planted, err := PlantedSetOpinions(6, []int{1, 3}, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if planted[1] != 9 || planted[3] != 9 || planted[0] != 2 {
		t.Errorf("planted = %v", planted)
	}
	if _, err := PlantedSetOpinions(6, []int{7}, 1, 2); err == nil {
		t.Error("out-of-range planted vertex accepted")
	}

	weighted, err := WeightedOpinions(5000, []float64{0.7, 0.2, 0.1}, r)
	if err != nil {
		t.Fatal(err)
	}
	c := map[int]int{}
	for _, x := range weighted {
		c[x]++
	}
	if c[1] < 3000 || c[3] > 1000 {
		t.Errorf("weighted counts %v implausible", c)
	}
	if _, err := WeightedOpinions(3, nil, r); err == nil {
		t.Error("empty weights accepted")
	}
}
