// Command graphinfo inspects a graph family: size, degree statistics,
// structure flags, and the spectral quantities the paper's theorems are
// parameterized by (λ, λk feasibility, mixing-time bound).
//
// Examples:
//
//	graphinfo -graph regular:1000,16
//	graphinfo -graph gnp:500,0.05 -k 9
//	graphinfo -graph barbell:20,5 -diameter
//	graphinfo -graph circulant:1000000,1+2+3+4 -implicit
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"div/internal/cli"
	"div/internal/graph"
	"div/internal/markov"
	"div/internal/spectral"
)

func main() {
	var (
		graphSpec    = flag.String("graph", "complete:100", "graph spec (see divsim -help)")
		seed         = flag.Uint64("seed", 1, "seed for random families")
		k            = flag.Int("k", 5, "opinion count for the λk feasibility line")
		diameter     = flag.Bool("diameter", false, "also compute the exact diameter (O(n·m))")
		implicit     = flag.Bool("implicit", false, "inspect the O(1)-state implicit backend for the spec instead of materializing it, and print the predicted-vs-actual CSR memory estimate")
		buildWorkers = flag.Int("build-workers", runtime.GOMAXPROCS(0), "worker count for parallel graph construction (random families; 1 = serial, never changes the built graph)")
	)
	flag.Parse()

	var err error
	if *implicit {
		err = runImplicit(*graphSpec, *seed, *k)
	} else {
		err = run(*graphSpec, *seed, *k, *diameter, *buildWorkers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run(graphSpec string, seed uint64, k int, diameter bool, buildWorkers int) error {
	var stats graph.BuildStats
	g, err := cli.ParseGraphOpts(graphSpec, seed, graph.BuildOpts{Workers: buildWorkers, Stats: &stats})
	if err != nil {
		return err
	}
	fmt.Printf("graph:      %v\n", g)
	if stats.Stripes > 0 {
		total := stats.TotalNanos()
		fmt.Printf("build:      %v total, %d worker(s), %d stripe(s)\n",
			time.Duration(total), stats.Workers, stats.Stripes)
		phase := func(name string, nanos int64) {
			if total > 0 {
				fmt.Printf("            %-8s %12v  (%4.1f%%)\n",
					name, time.Duration(nanos), 100*float64(nanos)/float64(total))
			}
		}
		phase("sample", stats.SampleNanos)
		phase("count", stats.CountNanos)
		phase("offsets", stats.OffsetsNanos)
		phase("scatter", stats.ScatterNanos)
		phase("sort", stats.SortNanos)
	}
	deg := graph.Degrees(g)
	fmt.Printf("degrees:    min %d, max %d, mean %.2f\n", deg.Min, deg.Max, deg.Mean)
	fmt.Printf("stationary: π_min %.6f, π_max %.6f (paper wants π_min = Θ(1/n): n·π_min = %.2f)\n",
		deg.PiMin, deg.PiMax, float64(g.N())*deg.PiMin)
	fmt.Printf("connected:  %v   bipartite: %v   regular: %v\n",
		graph.IsConnected(g), graph.IsBipartite(g), g.IsRegular())
	if diameter {
		d, err := graph.Diameter(g)
		if err != nil {
			return err
		}
		fmt.Printf("diameter:   %d\n", d)
	}
	if !graph.IsConnected(g) {
		fmt.Println("λ:          undefined (disconnected)")
		return nil
	}
	lam, err := spectral.Lambda(g, spectral.Options{})
	if errors.Is(err, spectral.ErrNotConverged) {
		// λ₂ comes from the same Lanczos run, so it cannot converge
		// either, and the λk and mixing bounds need λ from above: print
		// the lower bound alone.
		fmt.Printf("λ:          ≥ %.6f (not converged: lower bound; λ₂, λk and t_mix skipped)\n", lam)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("λ:          %.6f\n", lam)
	if g.N() >= 2 {
		cut, lambda2, err := markov.CheegerSweep(g)
		if err != nil {
			return err
		}
		fmt.Printf("λ₂:         %.6f (signed)\n", lambda2)
		fmt.Printf("Φ (sweep):  %.6f with |S| = %d  [Cheeger: %.4f ≤ Φ ≤ %.4f]\n",
			cut.Phi, len(cut.Set), (1-lambda2)/2, math.Sqrt(2*(1-lambda2)))
	}
	fmt.Printf("λ·k:        %.4f at k=%d (Theorem 2 needs λk = o(1))\n", lam*float64(k), k)
	if lam > 0 && lam < 1 {
		fmt.Printf("max k:      %.0f for λk ≤ 0.5\n", math.Floor(0.5/lam))
		fmt.Printf("t_mix:      ≤ %.0f steps (ε = 1/4 bound)\n", spectral.MixingTimeBound(lam, deg.PiMin, 0.25))
	} else if lam >= 1 {
		fmt.Println("warning:    λ = 1 (bipartite or disconnected walk): the paper's aperiodicity assumption fails")
	}
	return nil
}

// materializeByteCap bounds the CSR twin built for the actual-memory
// column: above ~2²⁶ predicted bytes the point of -implicit is exactly
// not to build the adjacency, so only the prediction is printed.
const materializeByteCap = 64 << 20

// runImplicit inspects the O(1)-state backend for the spec: topology
// facts, the closed-form λ where one exists, and the memory the
// materialized CSR representation would cost — predicted from
// graph.CSRMemEstimate, and, when small enough to afford, measured
// against the actual materialized twin.
func runImplicit(graphSpec string, seed uint64, k int) error {
	topo, err := cli.ParseTopology(graphSpec, seed)
	if err != nil {
		return err
	}
	n, degSum := topo.N(), topo.DegreeSum()
	fmt.Printf("topology:   %s (implicit, O(1) state)\n", topo.Name())
	fmt.Printf("degrees:    min %d, mean %.2f, sum %d\n",
		topo.MinDegree(), float64(degSum)/float64(n), degSum)
	piMin := float64(topo.MinDegree()) / float64(degSum)
	fmt.Printf("stationary: π_min %.3g (n·π_min = %.2f)\n", piMin, float64(n)*piMin)

	if lam, ok := spectral.LambdaTopology(topo); ok {
		fmt.Printf("λ:          %.6f (closed form)\n", lam)
		fmt.Printf("λ·k:        %.4f at k=%d (Theorem 2 needs λk = o(1))\n", lam*float64(k), k)
		if lam > 0 && lam < 1 {
			fmt.Printf("max k:      %.0f for λk ≤ 0.5\n", math.Floor(0.5/lam))
			fmt.Printf("t_mix:      ≤ %.0f steps (ε = 1/4 bound)\n", spectral.MixingTimeBound(lam, piMin, 0.25))
		} else if lam >= 1 {
			fmt.Println("warning:    λ = 1 (bipartite walk): the paper's aperiodicity assumption fails")
		}
	} else if hr, ok := topo.(*graph.HashedRegular); ok {
		fmt.Printf("λ:          ≲ %.6f (w.h.p. random-regular bound; no closed form)\n",
			spectral.LambdaRandomRegularBound(hr.MinDegree()))
	}

	adjPred, arcPred := graph.CSRMemEstimate(n, degSum)
	fmt.Printf("memory if materialized (predicted): adjacency %s + arc index %s = %s\n",
		fmtBytes(adjPred), fmtBytes(arcPred), fmtBytes(adjPred+arcPred))
	if adjPred+arcPred > materializeByteCap {
		fmt.Printf("memory if materialized (actual):    skipped above %s predicted — the saving is the point\n",
			fmtBytes(materializeByteCap))
		return nil
	}
	g, err := graph.Materialize(topo)
	if err != nil {
		// HashedRegular multigraphs can collide on an edge and have no
		// simple CSR twin; the prediction above is still what a simple
		// graph of the same size would cost.
		fmt.Printf("memory if materialized (actual):    unavailable (%v)\n", err)
		return nil
	}
	ix := g.ArcIndex()
	adjActual := 8 * int64(len(g.Offsets()))
	adjActual += 4 * int64(len(g.Arcs()))
	arcActual := 4 * int64(len(ix.Tails()))
	arcActual += 4 * int64(len(ix.Rev()))
	fmt.Printf("memory if materialized (actual):    adjacency %s + arc index %s = %s\n",
		fmtBytes(adjActual), fmtBytes(arcActual), fmtBytes(adjActual+arcActual))
	return nil
}

// fmtBytes renders a byte count at a human scale.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
