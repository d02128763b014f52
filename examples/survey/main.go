// Survey: the paper's motivating scenario. Opinions are Likert-scale
// answers 1 ('disagree strongly') … 5 ('agree strongly') on a
// small-world social network. People don't adopt a neighbour's view
// wholesale — they shift one notch toward it. DIV models exactly that,
// and the group settles on the rounded *mean* opinion, not the most
// common one.
package main

import (
	"fmt"
	"log"

	"div"
)

func main() {
	const n = 500
	// A Watts–Strogatz small world: everyone knows their neighbours
	// plus a few long-range acquaintances (the rewiring makes it an
	// expander in practice).
	g, err := div.WattsStrogatz(n, 10, 0.3, 1)
	if err != nil {
		log.Fatal(err)
	}

	// A polarized population: many strong disagreers, a moderate
	// middle, and an enthusiastic minority.
	//                           1    2    3   4   5
	counts := []int{180, 120, 60, 40, 100}
	init, err := div.BlockOpinions(n, counts, div.NewRand(2))
	if err != nil {
		log.Fatal(err)
	}

	mode, modeCount := 1, 0
	var sum int
	for i, c := range counts {
		if c > modeCount {
			mode, modeCount = i+1, c
		}
		sum += (i + 1) * c
	}
	mean := float64(sum) / n
	fmt.Printf("population of %d on %v\n", n, g)
	fmt.Printf("answers: %v → mode %d, mean %.3f\n\n", counts, mode, mean)

	res, err := div.Run(div.Config{
		Graph:        g,
		Initial:      init,
		Process:      div.VertexProcess,
		Seed:         3,
		TraceSupport: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("evolution of the set of opinions present:")
	shown := 0
	for _, st := range res.Stages {
		fmt.Printf("  step %9d: %v\n", st.FromStep, st.Opinions)
		shown++
		if shown >= 12 && len(res.Stages) > 14 {
			fmt.Printf("  … %d more stages …\n", len(res.Stages)-shown-1)
			last := res.Stages[len(res.Stages)-1]
			fmt.Printf("  step %9d: %v\n", last.FromStep, last.Opinions)
			break
		}
	}

	fmt.Printf("\nconsensus: %d after %d interactions\n", res.Winner, res.Steps)
	fmt.Printf("the mean answer was %.3f → the group settles on %d or %d; the mode (%d) does not decide\n",
		mean, int(mean), int(mean)+1, mode)

	// Contrast with plain pull voting, which adopts opinions wholesale
	// and crowns a value with probability proportional to its support.
	pullWins := map[int]int{}
	for trial := 0; trial < 50; trial++ {
		pr, err := div.Run(div.Config{
			Graph:   g,
			Initial: init,
			Process: div.VertexProcess,
			Rule:    div.Pull{},
			Seed:    uint64(100 + trial),
		})
		if err != nil {
			log.Fatal(err)
		}
		pullWins[pr.Winner]++
	}
	fmt.Printf("\npull voting over 50 trials picks: %v — a lottery weighted by initial support\n", pullWins)
}
