//go:build divtestinvariants

package core

// sparseCheckInvariants re-derives the discordance engine's
// discordant-vertex set from scratch after every opinion update and
// every seeding, and panics on the first divergence (membership,
// counts, buckets, position index, mass aggregates), then re-checks the
// State's own aggregates. O(n·d) per call — run `go test -tags
// divtestinvariants ./internal/core` (the Makefile `invariants` target)
// to exercise it; never enable it for benchmarks.
func sparseCheckInvariants(sp *SparseState) {
	if err := sp.CheckSparse(); err != nil {
		panic(err)
	}
	if err := sp.s.CheckInvariants(); err != nil {
		panic(err)
	}
}

// invariantChecksEnabled reports whether this build re-derives the
// discordance bookkeeping after every update (divtestinvariants). The
// allocation-regression tests skip themselves under it: the O(n + m)
// checking pass allocates by design.
const invariantChecksEnabled = true
