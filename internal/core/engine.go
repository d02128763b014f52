package core

import (
	"fmt"
	"strings"
)

// Engine selects the stepping strategy used by Run and RunBlock. Every
// engine realizes the same process law — the joint distribution of the
// opinion trajectory, the step counter, the stopping times, and the
// observer call sites is identical — they differ only in how much work
// a step costs.
type Engine int

const (
	// EngineNaive simulates every scheduler invocation individually,
	// including the no-op steps where the scheduled pair already agrees:
	// Run's sequential loop, RunBlock's blocked kernel. It is the
	// reference implementation and the default.
	EngineNaive Engine = iota
	// EngineFast tracks the discordant (disagreeing) vertices
	// incrementally (SparseState) and advances the step counter past
	// runs of idle steps in one geometric draw; see sparse.go for the
	// construction and DESIGN.md §6 for why the law is preserved
	// exactly. It requires the rule to be a PairwiseRule. Seeded
	// trajectories are law-equivalent to EngineNaive's, not
	// byte-identical.
	EngineFast
	// EngineAuto adapts at runtime: a trial steps in the blocked kernel
	// while discordance is high and hands off to the same skip-sampling
	// engine when a windowed idle-fraction estimate says the O(d(v))
	// per-active-step bookkeeping will pay for itself, coming back if
	// discordance rebounds (hybrid.go). Runs whose rule is not a
	// PairwiseRule stay naive throughout (in Run, the sequential loop).
	EngineAuto
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineNaive:
		return "naive"
	case EngineFast:
		return "fast"
	case EngineAuto:
		return "auto"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine parses an engine name: "naive", "fast", or "auto"
// (case-insensitive).
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "naive":
		return EngineNaive, nil
	case "fast":
		return EngineFast, nil
	case "auto":
		return EngineAuto, nil
	default:
		return EngineNaive, fmt.Errorf("core: unknown engine %q (want naive, fast, or auto)", s)
	}
}
