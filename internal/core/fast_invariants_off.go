//go:build !divtestinvariants

package core

// sparseCheckInvariants compiles to a no-op unless the
// divtestinvariants build tag is set (fast_invariants_on.go), keeping
// the discordance engine's O(d) update free of checking overhead.
func sparseCheckInvariants(*SparseState) {}

// resetCheckInvariants compiles to a no-op unless the divtestinvariants
// build tag is set, keeping State.ResetTo to its one or two passes.
func resetCheckInvariants(*State) {}

// invariantChecksEnabled reports whether this build re-derives the
// discordance bookkeeping after every update (divtestinvariants). The
// allocation-regression tests skip themselves under it: the O(n + m)
// checking pass allocates by design.
const invariantChecksEnabled = false
