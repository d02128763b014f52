// Package core implements the paper's primary contribution: the
// discrete incremental voting (DIV) process, under both asynchronous
// schedulers defined in the paper (the vertex process and the edge
// process), with O(1)-per-step state accounting for opinion counts,
// degree-weighted masses, extreme opinions, and the martingale weights
// S(t) and Z(t).
//
// The engine is rule-pluggable: the DIV update rule (move one step
// toward the observed neighbour) is the default, and the comparison
// dynamics from the paper's related-work discussion (pull voting,
// median voting, best-of-k plurality, edge load balancing) are provided
// by package internal/baseline on the same State and scheduling
// machinery, which makes head-to-head experiments exact like-for-like.
package core

import (
	"fmt"
	"math"

	"div/internal/graph"
)

// State is the mutable configuration of a voting process: an opinion
// per vertex plus incremental aggregates. All updates must go through
// SetOpinion so the aggregates stay consistent.
//
// Opinions live in the window [Base(), Base()+Width()-1] fixed at
// construction; every dynamic in this repository is range-contracting
// (an update never moves a vertex outside the current [Min,Max]
// opinion range), which SetOpinion enforces.
type State struct {
	g *graph.Graph // nil when the state is backed by an implicit topology
	// topo is the implicit topology backing the state when g is nil (the
	// blocked kernel's implicit-family path); CSR-backed states leave it
	// nil and answer structure queries through g directly.
	topo graph.Topology
	// Exactly one representation is live. opinions stores absolute
	// opinion values; opb is the compact byte representation (opinion
	// window ≤ 256) storing base-relative values, so a blocked trial's
	// working set at n = 2²⁰ fits L2. Both are kept byte-identical in
	// trajectory by the kernels: the representation never changes which
	// pair is drawn or how it updates.
	opinions []int32
	opb      []uint8
	base     int32   // smallest initial opinion (offset of counts[0])
	counts   []int64 // counts[i] = #vertices with opinion base+i
	degMass  []int64 // degMass[i] = Σ d(v) over vertices with opinion base+i
	minIdx   int     // smallest i with counts[i] > 0
	maxIdx   int     // largest i with counts[i] > 0
	sum      int64   // Σ_v X_v  (n·(S-average))
	degSum   int64   // Σ_v d(v)·X_v (2m times the π-weighted average)
	steps    int64
	support  int    // number of indices with counts[i] > 0
	supVer   uint64 // bumped whenever any cell transitions 0↔1 vertex

	// discordFn, when non-nil, returns the exact number of discordant
	// edges in O(1) from an engine-maintained index (sparse.go). Nil means
	// DiscordantEdges falls back to an O(m) recount. Engines attach and
	// detach it as their index becomes authoritative or goes stale.
	discordFn func() int64
}

// NewState builds a State over g with the given initial opinions
// (len == g.N()). The graph must be non-empty.
func NewState(g *graph.Graph, initial []int) (*State, error) {
	s := &State{g: g}
	if err := s.ResetTo(initial); err != nil {
		return nil, err
	}
	return s, nil
}

// ResetTo re-initializes the state in place to the given initial
// opinions (len == g.N()), reusing the existing arrays whenever the
// new opinion window fits their capacity — the zero-allocation path
// behind per-worker Scratch reuse. Step counters, the support version,
// and any engine-attached discordance index are cleared; after ResetTo
// the state is indistinguishable from a freshly constructed one.
// Opinions must fit in int32. After an error for the opinions' range
// the state is unusable until the next successful ResetTo: its opinion
// row may already hold part of the rejected profile.
//
// A state that holds a window of at most 256 opinions — a reused one,
// such as a blocked-kernel row or a Scratch's — takes its base as a
// guess and reads initial once, writing the opinion row and counting
// each opinion's offset from the guess. It keeps that pass when every
// opinion lies within 256 of the guess and, for the compact row, whose
// bytes are base-relative, when the smallest opinion is the guess
// itself. Otherwise, and on a fresh state, it reads initial twice: once
// for the window, then once to write the row and count it. The state
// is the same either way. No other O(n) pass is made: the sums follow
// from the counts, and on a regular topology the degree masses too. An
// irregular topology adds one pass for the degree masses, reading
// degrees from the CSR offsets when they exist.
func (s *State) ResetTo(initial []int) error {
	topo := s.Topology()
	n := topo.N()
	if n == 0 {
		return fmt.Errorf("core: empty graph")
	}
	if len(initial) != n {
		return fmt.Errorf("core: %d initial opinions for %d vertices", len(initial), n)
	}
	if s.opinions == nil && s.opb == nil {
		s.opinions = make([]int32, n)
	}
	var part [4][256]uint32
	guess, fits := int(s.base), false
	if w := len(s.counts); w > 0 && w <= 256 {
		fits = s.fillRow(initial, guess, &part) < 256
	}
	var lo, hi int
	if fits {
		first, last := -1, 0
		for i := range 256 {
			if part[0][i]|part[1][i]|part[2][i]|part[3][i] != 0 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		lo, hi = guess+first, guess+last
		fits = s.opb == nil || first == 0
	}
	if !fits {
		lo, hi = initial[0], initial[0]
		for _, x := range initial {
			lo = min(lo, x)
			hi = max(hi, x)
		}
	}
	if lo < math.MinInt32 || hi > math.MaxInt32 {
		return fmt.Errorf("core: opinions [%d, %d] outside the int32 range", lo, hi)
	}
	width64 := int64(hi) - int64(lo) + 1
	if width64 > 1<<22 {
		return fmt.Errorf("core: opinion range %d too wide", width64)
	}
	width := int(width64)
	if s.opb != nil && width > 256 {
		return fmt.Errorf("core: opinion range %d too wide for the compact byte representation (max 256)", width)
	}
	if cap(s.counts) < width {
		s.counts = make([]int64, width)
		s.degMass = make([]int64, width)
	} else {
		s.counts = s.counts[:width]
		s.degMass = s.degMass[:width]
		clear(s.counts)
		clear(s.degMass)
	}
	s.base = int32(lo)
	s.minIdx, s.maxIdx = 0, width-1
	s.sum, s.degSum, s.steps = 0, 0, 0
	s.support, s.supVer = 0, 0
	s.discordFn = nil
	switch {
	case fits:
		sumParts(s.counts, &part, lo-guess)
	case width <= 256:
		part = [4][256]uint32{}
		s.fillRow(initial, lo, &part)
		sumParts(s.counts, &part, 0)
	default:
		op := s.opinions[:n]
		for v, x := range initial {
			op[v] = int32(x)
			s.counts[x-lo]++
		}
	}
	if d := int64(topo.MinDegree()); topo.DegreeSum() == int64(n)*d {
		for i, c := range s.counts {
			s.degMass[i] = d * c
		}
	} else if s.g != nil {
		off := s.g.Offsets()
		for v, x := range initial {
			s.degMass[x-lo] += off[v+1] - off[v]
		}
	} else {
		for v, x := range initial {
			s.degMass[x-lo] += int64(s.topo.Degree(v))
		}
	}
	for i, c := range s.counts {
		x := int64(lo) + int64(i)
		s.sum += x * c
		s.degSum += x * s.degMass[i]
		if c > 0 {
			s.support++
		}
	}
	// minIdx/maxIdx must point at occupied cells.
	for s.counts[s.minIdx] == 0 {
		s.minIdx++
	}
	for s.counts[s.maxIdx] == 0 {
		s.maxIdx--
	}
	resetCheckInvariants(s)
	return nil
}

// fillRow writes initial into the live opinion row — the compact row
// relative to lo — and counts it into part as fillNarrow does.
func (s *State) fillRow(initial []int, lo int, part *[4][256]uint32) uint {
	if s.opb != nil {
		return fillNarrow(s.opb, initial, lo, lo, part)
	}
	return fillNarrow(s.opinions, initial, 0, lo, part)
}

// fillNarrow writes row[v] = initial[v] − off and counts each
// opinion − lo, taken mod 256, into the zeroed partial histograms part.
// It returns the bitwise OR of every opinion − lo, read as unsigned:
// below 256 exactly when every opinion lies in [lo, lo+255], so that
// the counts are exact. Consecutive vertices count into four
// interleaved histograms, so a run of equal opinions — a dominant
// profile — is four independent increment chains rather than one chain
// through a single memory cell.
func fillNarrow[T uint8 | int32](row []T, initial []int, off, lo int, part *[4][256]uint32) uint {
	row = row[:len(initial)]
	var spread uint
	v := 0
	for ; v+4 <= len(initial); v += 4 {
		x := initial[v : v+4 : v+4]
		d0, d1, d2, d3 := x[0]-lo, x[1]-lo, x[2]-lo, x[3]-lo
		spread |= uint(d0) | uint(d1) | uint(d2) | uint(d3)
		part[0][uint8(d0)]++
		part[1][uint8(d1)]++
		part[2][uint8(d2)]++
		part[3][uint8(d3)]++
		r := row[v : v+4 : v+4]
		r[0], r[1], r[2], r[3] = T(x[0]-off), T(x[1]-off), T(x[2]-off), T(x[3]-off)
	}
	for ; v < len(initial); v++ {
		d := initial[v] - lo
		spread |= uint(d)
		part[0][uint8(d)]++
		row[v] = T(initial[v] - off)
	}
	return spread
}

// sumParts sets counts[i] to the four partial histograms' total at
// bin from+i.
func sumParts(counts []int64, part *[4][256]uint32, from int) {
	for i := range counts {
		j := from + i
		counts[i] = int64(part[0][j]) + int64(part[1][j]) + int64(part[2][j]) + int64(part[3][j])
	}
}

// MustState is NewState that panics on error.
func MustState(g *graph.Graph, initial []int) *State {
	s, err := NewState(g, initial)
	if err != nil {
		panic(err)
	}
	return s
}

// Graph returns the underlying CSR graph, or nil when the state is
// backed by an implicit topology (use Topology then).
func (s *State) Graph() *graph.Graph { return s.g }

// Topology returns the structure backing the state: the CSR graph when
// materialized, the implicit topology otherwise.
func (s *State) Topology() graph.Topology {
	if s.g != nil {
		return s.g
	}
	return s.topo
}

// degree returns d(v) through whichever backend is live, keeping the
// CSR path a direct (devirtualized) call.
func (s *State) degree(v int) int64 {
	if s.g != nil {
		return int64(s.g.Degree(v))
	}
	return int64(s.topo.Degree(v))
}

// degreeSum returns Σ_v d(v) through whichever backend is live.
func (s *State) degreeSum() int64 {
	if s.g != nil {
		return s.g.DegreeSum()
	}
	return s.topo.DegreeSum()
}

// N returns the number of vertices.
func (s *State) N() int {
	if s.opinions != nil {
		return len(s.opinions)
	}
	return len(s.opb)
}

// Opinion returns the current opinion of vertex v.
func (s *State) Opinion(v int) int {
	if s.opb != nil {
		return int(s.base) + int(s.opb[v])
	}
	return int(s.opinions[v])
}

// Opinions copies the current opinion vector into dst (allocating when
// dst is nil or too short) and returns it.
func (s *State) Opinions(dst []int) []int {
	n := s.N()
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	if s.opb != nil {
		for v, x := range s.opb {
			dst[v] = int(s.base) + int(x)
		}
	} else {
		for v, x := range s.opinions {
			dst[v] = int(x)
		}
	}
	return dst
}

// Min returns the smallest opinion currently held.
func (s *State) Min() int { return int(s.base) + s.minIdx }

// Max returns the largest opinion currently held.
func (s *State) Max() int { return int(s.base) + s.maxIdx }

// Range returns Max()-Min(): 0 at consensus, 1 in the final two-opinion
// stage.
func (s *State) Range() int { return s.maxIdx - s.minIdx }

// SupportSize returns the number of distinct opinions currently held.
func (s *State) SupportSize() int { return s.support }

// LargestCount returns the multiplicity of the most common opinion —
// the plurality size, O(window) over the live count cells. Used by the
// blocked kernel's MajorityFrac milestone.
func (s *State) LargestCount() int64 {
	_, c := s.plurality()
	return c
}

// plurality returns the count index of the most common opinion (the
// smallest on a tie) and its multiplicity.
func (s *State) plurality() (idx int, count int64) {
	idx = s.minIdx
	for i := s.minIdx + 1; i <= s.maxIdx; i++ {
		if s.counts[i] > s.counts[idx] {
			idx = i
		}
	}
	return idx, s.counts[idx]
}

// SupportVersion increases whenever the *set* of held opinions changes
// (any count transitions between zero and nonzero). Comparing versions
// detects support changes in O(1), including swaps that preserve the
// support size and extremes.
func (s *State) SupportVersion() uint64 { return s.supVer }

// Count returns the number of vertices currently holding opinion x.
func (s *State) Count(x int) int64 {
	i := int(int32(x) - s.base)
	if i < 0 || i >= len(s.counts) {
		return 0
	}
	return s.counts[i]
}

// DegreeMass returns Σ d(v) over vertices holding opinion x, i.e.
// 2m·π(A_x) in the paper's notation.
func (s *State) DegreeMass(x int) int64 {
	i := int(int32(x) - s.base)
	if i < 0 || i >= len(s.degMass) {
		return 0
	}
	return s.degMass[i]
}

// PiMass returns π(A_x) = DegreeMass(x)/2m.
func (s *State) PiMass(x int) float64 {
	return float64(s.DegreeMass(x)) / float64(s.degreeSum())
}

// Sum returns S_raw(t) = Σ_v X_v(t); S(t) in the paper. Exactly
// conserved in expectation by the edge process (Lemma 3(i)).
func (s *State) Sum() int64 { return s.sum }

// DegSum returns Σ_v d(v)·X_v(t) = 2m·Z(t)/n. Exactly conserved in
// expectation by the vertex process (Lemma 3(ii)).
func (s *State) DegSum() int64 { return s.degSum }

// Average returns the simple average opinion S(t)/n.
func (s *State) Average() float64 {
	return float64(s.sum) / float64(s.N())
}

// WeightedAverage returns the degree-weighted average
// Σ_v π_v X_v = DegSum/2m (the paper's Z(t)/n).
func (s *State) WeightedAverage() float64 {
	return float64(s.degSum) / float64(s.degreeSum())
}

// Steps returns the number of asynchronous steps performed so far
// (every scheduler invocation counts, including no-op steps where the
// chosen vertices agreed — matching the paper's step counting).
func (s *State) Steps() int64 { return s.steps }

// Consensus reports whether all vertices hold the same opinion, and if
// so which one.
func (s *State) Consensus() (opinion int, ok bool) {
	if s.minIdx == s.maxIdx {
		return int(s.base) + s.minIdx, true
	}
	return 0, false
}

// Support appends the currently held opinions in ascending order to
// dst and returns it.
func (s *State) Support(dst []int) []int {
	for i := s.minIdx; i <= s.maxIdx; i++ {
		if s.counts[i] > 0 {
			dst = append(dst, int(s.base)+i)
		}
	}
	return dst
}

// SetOpinion sets vertex v's opinion to x, maintaining every aggregate
// in O(1) amortized (the extreme pointers only ever move inward over a
// run, by the paper's range-contraction property). It panics if x lies
// outside the current [Min,Max] opinion range, since no dynamics in
// this repository may widen the range.
func (s *State) SetOpinion(v int, x int) {
	var old int32
	if s.opb != nil {
		old = int32(s.opb[v]) + s.base
	} else {
		old = s.opinions[v]
	}
	nw := int32(x)
	if nw == old {
		return
	}
	i := int(nw - s.base)
	if i < s.minIdx || i > s.maxIdx {
		panic(fmt.Sprintf("core: SetOpinion(%d,%d) outside current range [%d,%d]",
			v, x, s.Min(), s.Max()))
	}
	j := int(old - s.base)
	d := s.degree(v)
	if s.opb != nil {
		s.opb[v] = uint8(nw - s.base)
	} else {
		s.opinions[v] = nw
	}
	if s.counts[i] == 0 {
		s.support++
		s.supVer++
	}
	s.counts[i]++
	s.degMass[i] += d
	s.counts[j]--
	s.degMass[j] -= d
	if s.counts[j] == 0 {
		s.support--
		s.supVer++
	}
	s.sum += int64(nw) - int64(old)
	s.degSum += d * (int64(nw) - int64(old))
	// Extremes move inward only when an extreme cell empties.
	for s.minIdx < s.maxIdx && s.counts[s.minIdx] == 0 {
		s.minIdx++
	}
	for s.maxIdx > s.minIdx && s.counts[s.maxIdx] == 0 {
		s.maxIdx--
	}
}

// DiscordantEdges returns the number of edges {u,w} with X_u ≠ X_w —
// the discordant-edge count driving the paper's potential analysis and
// the fast engine's skip-sampling. When a fast engine's incremental
// index is live the count is O(1); otherwise (EngineNaive, or the
// hybrid engine's naive stretches) it is recomputed in O(m). Observers
// sampling it every ObserveEvery steps therefore cost O(m·Steps/
// ObserveEvery) extra under naive stepping and nothing measurable under
// fast stepping.
func (s *State) DiscordantEdges() int64 {
	if s.discordFn != nil {
		return s.discordFn()
	}
	var c int64
	if s.g == nil {
		// Implicit topology: walk every neighbour list, counting each
		// edge once via v < w (a multigraph edge counts once per
		// parallel copy, matching its scheduling weight).
		t := s.topo
		n := t.N()
		for v := 0; v < n; v++ {
			xv := s.Opinion(v)
			d := t.Degree(v)
			for i := 0; i < d; i++ {
				if w := t.Neighbor(v, i); v < w && xv != s.Opinion(w) {
					c++
				}
			}
		}
		return c
	}
	if s.opb != nil {
		return discordantCSR(s.opb, s.g.Offsets(), s.g.Arcs())
	}
	return discordantCSR(s.opinions, s.g.Offsets(), s.g.Arcs())
}

// discordantCSR counts the edges {u, w}, u < w, whose endpoints differ
// in row, walking each vertex's CSR adjacency slice: no arc index is
// needed.
func discordantCSR[T uint8 | int32](row []T, off []int64, adj []int32) int64 {
	var c int64
	for u, xu := range row {
		for _, w := range adj[off[u]:off[u+1]] {
			if int32(u) < w && xu != row[w] {
				c++
			}
		}
	}
	return c
}

// countStep increments the step counter; called by the schedulers.
func (s *State) countStep() { s.steps++ }

// addSteps advances the step counter by k ≥ 1 scheduler invocations at
// once; the fast engine uses it to account for skipped idle steps
// (sparse.go) without simulating them.
func (s *State) addSteps(k int64) { s.steps += k }

// CheckInvariants recomputes every aggregate from scratch and returns
// an error describing the first inconsistency, for tests and debugging.
func (s *State) CheckInvariants() error {
	counts := make([]int64, len(s.counts))
	degMass := make([]int64, len(s.degMass))
	var sum, degSum int64
	for v, n := 0, s.N(); v < n; v++ {
		x := s.Opinion(v)
		i := x - int(s.base)
		if i < 0 || i >= len(counts) {
			return fmt.Errorf("core: opinion %d of vertex %d outside window", x, v)
		}
		counts[i]++
		d := s.degree(v)
		degMass[i] += d
		sum += int64(x)
		degSum += d * int64(x)
	}
	support := 0
	for i := range counts {
		if counts[i] != s.counts[i] {
			return fmt.Errorf("core: counts[%d]=%d, recomputed %d", i, s.counts[i], counts[i])
		}
		if degMass[i] != s.degMass[i] {
			return fmt.Errorf("core: degMass[%d]=%d, recomputed %d", i, s.degMass[i], degMass[i])
		}
		if counts[i] > 0 {
			support++
		}
	}
	if support != s.support {
		return fmt.Errorf("core: support=%d, recomputed %d", s.support, support)
	}
	if sum != s.sum {
		return fmt.Errorf("core: sum=%d, recomputed %d", s.sum, sum)
	}
	if degSum != s.degSum {
		return fmt.Errorf("core: degSum=%d, recomputed %d", s.degSum, degSum)
	}
	if s.counts[s.minIdx] == 0 || s.counts[s.maxIdx] == 0 {
		return fmt.Errorf("core: extreme pointer at empty cell (min=%d max=%d)", s.minIdx, s.maxIdx)
	}
	for i := 0; i < s.minIdx; i++ {
		if s.counts[i] != 0 {
			return fmt.Errorf("core: occupied cell %d below minIdx %d", i, s.minIdx)
		}
	}
	for i := s.maxIdx + 1; i < len(s.counts); i++ {
		if s.counts[i] != 0 {
			return fmt.Errorf("core: occupied cell %d above maxIdx %d", i, s.maxIdx)
		}
	}
	return nil
}
