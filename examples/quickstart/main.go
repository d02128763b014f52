// Quickstart: run discrete incremental voting on a random regular
// expander and watch it agree on the rounded average opinion.
package main

import (
	"fmt"
	"log"

	"div"
)

func main() {
	// A random 16-regular graph on 1000 vertices: λ ≈ 2/√16 = 0.25,
	// comfortably inside the paper's λk = o(1) regime for k = 5.
	g, err := div.RandomRegular(1000, 16, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Every vertex starts with an independent uniform opinion in 1..5.
	init := div.UniformOpinions(g.N(), 5, div.NewRand(2))

	res, err := div.Run(div.Config{
		Graph:   g,
		Initial: init,
		Process: div.VertexProcess,
		Seed:    3,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("graph:            %v\n", g)
	fmt.Printf("initial average:  %.4f (degree-weighted %.4f)\n",
		res.InitialAverage, res.InitialWeightedAverage)
	fmt.Printf("consensus:        %v on opinion %d\n", res.Consensus, res.Winner)
	fmt.Printf("steps:            %d total; two adjacent opinions after %d\n",
		res.Steps, res.TwoAdjacentStep)
	fmt.Println()
	fmt.Println("Theorem 2: the winner is ⌊c⌋ or ⌈c⌉ of the initial average c, w.h.p.")
}
