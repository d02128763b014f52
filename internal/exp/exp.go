// Package exp implements the repository's experiment suite E1–E19: one
// experiment per theorem, lemma, closed-form probability, or worked
// example in the paper (plus the E14 distributed-deployment extension).
// DESIGN.md §3 is the index. Each experiment produces text tables (and
// the scaling ones ASCII figures), together with named pass/fail checks
// asserted by the integration tests, so "paper claim vs. measured"
// lives in code rather than prose.
//
// Every experiment accepts Params and respects Quick mode, which
// scales sizes down to seconds for use in `go test` and `go test
// -bench`; the full mode behind `divbench -full` uses larger n and
// trial counts.
package exp

import (
	"fmt"
	"io"
	"math"
	"sync"

	"div/internal/core"
	"div/internal/obs"
	"div/internal/sim"
)

// Params configures an experiment run.
type Params struct {
	// Quick selects reduced sizes/trials (seconds instead of minutes).
	Quick bool
	// Seed is the master seed; every trial derives from it.
	Seed uint64
	// Parallelism caps worker goroutines; 0 means GOMAXPROCS.
	Parallelism int
	// Engine selects the core stepping engine ("naive", "fast",
	// "auto"); empty means "auto". Experiments pass it through to every
	// core.Run so `divbench -engine` applies suite-wide.
	Engine string
	// Probe, when non-nil, is invoked once per core.Run with that run's
	// trial index and derived seed, and the returned probe is attached
	// to the run's Config (nil keeps the engine's zero-cost fast path).
	// Experiments pass it through every Config so `divbench -trace`
	// and `-metrics` see the whole suite.
	Probe obs.ProbeMaker
	// Serial disables the suite work-stealing scheduler: sweeps run
	// their points in order through sim.TrialsWorker, the pre-scheduler
	// behaviour behind `divbench -serial`. Results are byte-identical
	// either way (seeds derive per point and trial); only scheduling
	// and wall-clock change.
	Serial bool
	// Block is the blocked kernel's trials-per-block B for sweeps on
	// the blocked pipeline (core.RunBlock: E1's winner sweep and both
	// E2 sweeps); 0 means core.DefaultBlock. Each trial draws from its
	// own counter-based RNG stream keyed by (point seed, trial), so
	// reports are byte-identical across block sizes and scheduling —
	// `divbench -block` is purely a performance knob.
	Block int
}

// blockSize resolves Block, defaulting to core.DefaultBlock.
func (p Params) blockSize() int {
	if p.Block > 0 {
		return p.Block
	}
	return core.DefaultBlock
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 0x5eed
	}
	if p.Engine == "" {
		p.Engine = "auto"
	}
	return p
}

// coreEngine resolves the Engine string, defaulting to EngineAuto on
// empty or unparseable values (experiments validate the flag at the
// CLI boundary; here a bad value must not abort a suite run).
func (p Params) coreEngine() core.Engine {
	e, err := core.ParseEngine(p.Engine)
	if err != nil {
		return core.EngineAuto
	}
	return e
}

// probeFor builds the probe for one core run; nil when no maker is
// installed, preserving the engine's nil-probe fast path.
func (p Params) probeFor(trial int, seed uint64) obs.Probe {
	if p.Probe == nil {
		return nil
	}
	return p.Probe(trial, seed)
}

// pick returns quick in Quick mode and full otherwise.
func (p Params) pick(quick, full int) int {
	if p.Quick {
		return quick
	}
	return full
}

// Check is a named verdict comparing a paper claim against measurement.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Name   string
	Tables []*sim.Table
	// Figures holds pre-rendered ASCII plots.
	Figures []string
	Checks  []Check
	Notes   []string
}

// Failed returns the failing checks.
func (r *Report) Failed() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

func (r *Report) check(pass bool, name, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteText renders the full report — tables, figures, checks, notes
// — to w, exactly as divbench prints it. It is the canonical textual
// form the determinism regression test compares across scheduling
// modes.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "######## %s — %s\n\n", r.ID, r.Name); err != nil {
		return err
	}
	for _, tbl := range r.Tables {
		if err := tbl.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, fig := range r.Figures {
		if _, err := fmt.Fprintln(w, fig); err != nil {
			return err
		}
	}
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		if _, err := fmt.Fprintf(w, "  [%s] %s — %s\n", mark, c.Name, c.Detail); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Func runs one experiment.
type Func func(Params) (*Report, error)

// Def pairs an experiment with its metadata.
type Def struct {
	ID   string
	Name string
	Run  Func
}

// All lists every experiment in index order.
var All = []Def{
	{ID: "E1", Name: "winner distribution (Theorem 2)", Run: E1WinnerDistribution},
	{ID: "E2", Name: "reduction time scaling (Theorem 1, eq. 4)", Run: E2ReductionTime},
	{ID: "E3", Name: "weight martingales (Lemma 3)", Run: E3Martingale},
	{ID: "E4", Name: "two-opinion pull voting (eq. 3)", Run: E4TwoOpinionPull},
	{ID: "E5", Name: "Azuma concentration (eq. 5)", Run: E5Concentration},
	{ID: "E6", Name: "stage evolution (intro example)", Run: E6StageEvolution},
	{ID: "E7", Name: "mode/median/mean separation", Run: E7ModeMedianMean},
	{ID: "E8", Name: "DIV vs load-balancing averaging [5]", Run: E8LoadBalancing},
	{ID: "E9", Name: "path counterexample ([13] Thm 3)", Run: E9PathCounterexample},
	{ID: "E10", Name: "edge vs vertex process (Remark 1)", Run: E10EdgeVsVertex},
	{ID: "E11", Name: "second eigenvalues of example families", Run: E11Eigenvalues},
	{ID: "E12", Name: "extreme-opinion elimination (Lemmas 10-14)", Run: E12ExtremeElimination},
	{ID: "E13", Name: "accuracy across the λk threshold", Run: E13LambdaKThreshold},
	{ID: "E14", Name: "distributed message-passing deployment", Run: E14Distributed},
	{ID: "E15", Name: "step-size ablation (DIV → pull)", Run: E15StepSizeAblation},
	{ID: "E16", Name: "synchronous rounds (extension)", Run: E16Synchronous},
	{ID: "E17", Name: "push vs pull: which average survives", Run: E17PushPull},
	{ID: "E18", Name: "zealots / stubborn vertices (extension)", Run: E18Zealots},
	{ID: "E19", Name: "pull voting ↔ coalescing walks duality", Run: E19CoalescingDuality},
}

// RunAll runs the given experiments (all of them when defs is empty)
// and returns reports in definition order. Unless p.Serial, the
// experiments' goroutines run concurrently and their sweeps share the
// work-stealing pool, so trials from different experiments interleave;
// with p.Serial they run strictly one after another — the two paths
// the suite-timing benchmark compares. Experiment errors are collected
// per definition: the i-th error corresponds to the i-th def (nil on
// success), and reports[i] is nil exactly when errs[i] is non-nil.
func RunAll(p Params, defs []Def) (reports []*Report, errs []error) {
	if len(defs) == 0 {
		defs = All
	}
	reports = make([]*Report, len(defs))
	errs = make([]error, len(defs))
	if p.Serial {
		for i, d := range defs {
			reports[i], errs[i] = d.Run(p)
		}
		return reports, errs
	}
	var wg sync.WaitGroup
	for i, d := range defs {
		i, d := i, d
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = d.Run(p)
		}()
	}
	wg.Wait()
	return reports, errs
}

// ByID returns the experiment definition with the given ID.
func ByID(id string) (Def, error) {
	for _, d := range All {
		if d.ID == id {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// roundedPair returns ⌊c⌋ and ⌈c⌉.
func roundedPair(c float64) (int, int) {
	return int(math.Floor(c)), int(math.Ceil(c))
}

// isRoundedAverage reports whether winner ∈ {⌊c⌋, ⌈c⌉}.
func isRoundedAverage(winner int, c float64) bool {
	lo, hi := roundedPair(c)
	return winner == lo || winner == hi
}
