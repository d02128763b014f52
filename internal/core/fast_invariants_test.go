//go:build divtestinvariants

package core

import (
	"fmt"
	"testing"

	"div/internal/rng"
)

// TestFastInvariantHookActive runs the fast engine end-to-end with the
// divtestinvariants build tag enabled, so sparseCheckInvariants (the
// tagged hook in fast_invariants_on.go) recomputes the whole
// discordant-vertex set from scratch after *every* SetOpinion and
// panics on any mismatch. A green run here is the property test of
// record: the incremental O(d(v)) updates agree with the ground-truth
// recompute at every single state the engine visits, on every CSR test
// family and both processes.
func TestFastInvariantHookActive(t *testing.T) {
	for name, g := range bookkeepingGraphs(t) {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			t.Run(fmt.Sprintf("%s/%v", name, proc), func(t *testing.T) {
				n := g.N()
				r := rng.New(rng.DeriveSeed(0x1a9, uint64(n)*3+uint64(proc)))
				init := UniformOpinions(n, 5, r)
				res, err := Run(Config{
					Graph:   g,
					Initial: init,
					Process: proc,
					Engine:  EngineFast,
					Seed:    rng.DeriveSeed(0x1aa, uint64(n)),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Consensus {
					t.Fatalf("no consensus after %d steps", res.Steps)
				}
			})
		}
	}
}
