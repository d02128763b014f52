// Sensors: distributed integer averaging on a sensor mesh. Each node
// holds an integer reading (say, a quantized temperature); the network
// must agree on the average using only the weakest possible
// interaction — one node reading one neighbour and nudging its own
// value. The example compares DIV against the load-balancing averaging
// protocol ([5] in the paper), which needs coordinated two-node
// updates.
package main

import (
	"fmt"
	"log"
	"math"

	"div"
)

func main() {
	const (
		n      = 600
		degree = 12
		k      = 32 // readings quantized to 1..32
	)
	g, err := div.RandomRegular(n, degree, 1)
	if err != nil {
		log.Fatal(err)
	}
	lam, err := div.Lambda(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: %v, λ = %.3f (λ·k = %.2f)\n\n", g, lam, lam*float64(k))

	readings := div.UniformOpinions(n, k, div.NewRand(2))
	var sum int
	for _, x := range readings {
		sum += x
	}
	c := float64(sum) / n
	fmt.Printf("true average reading: %.4f → acceptable answers {%d, %d}\n\n",
		c, int(math.Floor(c)), int(math.Ceil(c)))

	// DIV: one-sided pulls, runs to a single consensus value.
	res, err := div.Run(div.Config{
		Graph:   g,
		Initial: readings,
		Process: div.EdgeProcess,
		Seed:    3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DIV:          consensus on %d after %d one-sided interactions\n", res.Winner, res.Steps)
	fmt.Printf("              (range shrank to two adjacent values after %d steps)\n", res.TwoAdjacentStep)

	// Load balancing: coordinated edge updates, conserves the sum
	// exactly, but only guarantees a band of three consecutive values
	// ([5]) — adjacent values exchange nothing under floor/ceil
	// averaging, so on a sparse mesh it can stall there forever.
	lb, err := div.Run(div.Config{
		Graph:   g,
		Initial: readings,
		Process: div.EdgeProcess,
		Rule:    div.LoadBalance{},
		Stop:    div.UntilThreeConsecutive,
		Seed:    4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loadbalance:  values within [%d, %d] after %d coordinated exchanges — a mixture, not consensus\n",
		lb.FinalMin, lb.FinalMax, lb.Steps)

	fmt.Println()
	fmt.Println("trade-off: load balancing contracts faster and conserves the sum exactly,")
	fmt.Println("but needs two-sided coordinated updates and cannot finish; DIV needs only")
	fmt.Println("pull reads and terminates at the rounded average (Theorems 1–2).")
}
