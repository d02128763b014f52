package core

// Recorder is an Observer that samples the live state into time
// series: pass Recorder.Observe as Config.Observer (with the desired
// Config.ObserveEvery period) and read the series after the run. It
// captures exactly the quantities the paper's analysis tracks — the
// conserved weights S(t) and Z(t), the opinion range and support size,
// the π masses of the two extreme opinions (the objects of Lemma 10),
// and the discordant-edge count (the potential of the paper's
// final-stage analysis).
//
// Sampling cadence under skip-sampling: the discordance engine behind
// the fast and auto engines never simulates idle steps individually,
// but with an observer it caps every geometric skip (and the blocked
// kernel every chunk) at the next ObserveEvery boundary, so an observer
// is invoked at exactly the same step numbers as under EngineNaive —
// samples land on multiples of ObserveEvery regardless of engine
// (probe_test.go and block_observer_test.go assert this). The boundary
// visit is lawful because the truncated geometric is memoryless
// (DESIGN.md §6). The cost model differs, though: in the naive and
// blocked regimes a sample is O(1) except for Discordance, which
// recounts in O(m); in the sparse regime Discordance is O(1) from the
// engine's live index, but each boundary visit bounds the skip length,
// so a very small ObserveEvery erodes skip-sampling's advantage
// (EngineAuto never hands off when ObserveEvery < 8 for exactly this
// reason).
type Recorder struct {
	// Steps[i] is the step count at sample i.
	Steps []int64
	// Range[i] is Max-Min at sample i.
	Range []int
	// Support[i] is the number of distinct opinions at sample i.
	Support []int
	// Sum[i] is S_raw(t) = Σ X_v.
	Sum []int64
	// DegSum[i] is Σ d(v)X_v (∝ Z(t)).
	DegSum []int64
	// PiMin[i] and PiMax[i] are π(A_min) and π(A_max): the stationary
	// masses of the smallest and largest surviving opinions.
	PiMin, PiMax []float64
	// Discordance[i] is the number of discordant edges at sample i —
	// O(1) to read while the discordance engine's index is live, an
	// O(m) recount otherwise (see State.DiscordantEdges).
	Discordance []int64
}

// Observe implements the Config.Observer signature; it never aborts.
func (rec *Recorder) Observe(s *State) bool {
	rec.Steps = append(rec.Steps, s.Steps())
	rec.Range = append(rec.Range, s.Range())
	rec.Support = append(rec.Support, s.SupportSize())
	rec.Sum = append(rec.Sum, s.Sum())
	rec.DegSum = append(rec.DegSum, s.DegSum())
	rec.PiMin = append(rec.PiMin, s.PiMass(s.Min()))
	rec.PiMax = append(rec.PiMax, s.PiMass(s.Max()))
	rec.Discordance = append(rec.Discordance, s.DiscordantEdges())
	return true
}

// Len returns the number of samples taken.
func (rec *Recorder) Len() int { return len(rec.Steps) }

// SumFloat returns the Sum series as float64s, for plotting and fits.
func (rec *Recorder) SumFloat() []float64 {
	out := make([]float64, len(rec.Sum))
	for i, v := range rec.Sum {
		out[i] = float64(v)
	}
	return out
}

// RangeFloat returns the Range series as float64s.
func (rec *Recorder) RangeFloat() []float64 {
	out := make([]float64, len(rec.Range))
	for i, v := range rec.Range {
		out[i] = float64(v)
	}
	return out
}

// DiscordanceFloat returns the Discordance series as float64s.
func (rec *Recorder) DiscordanceFloat() []float64 {
	out := make([]float64, len(rec.Discordance))
	for i, v := range rec.Discordance {
		out[i] = float64(v)
	}
	return out
}
