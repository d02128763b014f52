package core

import (
	"fmt"
	"strings"
)

// Engine selects the stepping strategy used by Run. Every engine
// realizes the same process law — the joint distribution of the opinion
// trajectory, the step counter, the stopping times, and the observer
// call sites is identical — they differ only in how much work a step
// costs.
type Engine int

const (
	// EngineNaive simulates every scheduler invocation individually,
	// including the no-op steps where the scheduled pair already agrees.
	// It is the reference implementation and the default.
	EngineNaive Engine = iota
	// EngineFast tracks the discordant (disagreeing) vertices
	// incrementally (SparseState) and advances the step counter past
	// runs of idle steps in one geometric draw; see sparse.go for the
	// construction and DESIGN.md §6 for why the law is preserved
	// exactly. It requires the rule to be a PairwiseRule. Seeded
	// trajectories are law-equivalent to EngineNaive's, not
	// byte-identical.
	EngineFast
	// EngineAuto adapts at runtime: it steps naively while discordance
	// is high and switches to the same skip-sampling engine when a
	// windowed idle-fraction estimate says the O(d(v))
	// per-active-step bookkeeping will pay for itself (hybrid.go). Runs
	// whose rule is not a PairwiseRule stay naive throughout.
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

// stepMode is the concrete stepping strategy engineFor resolved
// cfg.Engine to.
type stepMode int

const (
	stepNaive stepMode = iota
	stepFast
	stepHybrid
)

// engineFor resolves cfg.Engine to a concrete stepper. stepFast comes
// with a ready *SparseState; stepHybrid builds (and reseeds) one lazily
// as discordance falls and rebounds. EngineFast errors when the run is
// ineligible; EngineAuto silently stays naive.
func engineFor(cfg Config, s *State, rule Rule) (stepMode, *SparseState, error) {
	switch cfg.Engine {
	case EngineNaive:
		return stepNaive, nil, nil
	case EngineFast:
		if _, ok := rule.(PairwiseRule); !ok {
			return 0, nil, fmt.Errorf("core: fast engine requires a PairwiseRule, got %q", rule.Name())
		}
		sp, err := sparseFor(cfg.Scratch, s, cfg.Process)
		return stepFast, sp, err
	case EngineAuto:
		if _, ok := rule.(PairwiseRule); !ok {
			return stepNaive, nil, nil
		}
		return stepHybrid, nil, nil
	default:
		return 0, nil, fmt.Errorf("core: unknown engine %d", int(cfg.Engine))
	}
}
