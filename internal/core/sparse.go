package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"div/internal/graph"
	"div/internal/obs"
)

// This file implements the discordance engine behind EngineFast and
// EngineAuto: geometric skip-sampling over an incrementally maintained
// set of the discordant vertices, on any graph.Topology and either
// opinion representation, with memory proportional to the live
// discordance rather than to the arc count. Both entry points use it:
// core.Run's sequential loops (loop below, hybridLoop in hybrid.go) and
// the blocked kernel's hand-off (retireSparse below).
//
// The observation behind it is the paper's own: once opinions are
// locally similar, almost every scheduler invocation draws a pair
// (v, w) with X_v == X_w and changes nothing — on expanders the Θ(n²)
// final stage is dominated by exactly these idle draws. For any
// PairwiseRule the state can only change on a discordant draw, the
// idle draws are exchangeable, and the number of idle draws before the
// next discordant one is Geometric(p), so the engine samples that
// length directly, advances the step counter past the idle steps
// without simulating them, and then draws the active pair from the
// exact conditional law given that the draw is discordant. DESIGN.md §6
// gives the argument in full.
//
// The set. A swap-delete list of the currently discordant vertices —
// vertices with at least one neighbour holding a different opinion —
// each stored with its count of discordant incident arcs:
//
//	lists [][]member  the members, filed by sampler bucket (see below)
//	pos   []int32     pos[v] = slot of v in its bucket's list, or -1
//
// pos is O(n) (4 bytes/vertex), plus Seed's touched bitmap (one bit per
// vertex); the lists are O(D_t), the live discordance. Seeding does not
// rescan pos: it clears only the previous members' entries (see Seed).
// An opinion update at v can only change the counts over
// {v} ∪ N(v), so SetOpinion repairs the set with one O(d(v))
// neighbourhood walk. When the topology is a *graph.Graph and the state
// holds int32 opinions, the walks read the CSR offsets and adjacency
// slices directly; otherwise they go through the Topology interface.
// diff counts arcs with multiplicity, so multigraph families
// (HashedRegular) weight parallel edges exactly as the schedulers draw
// them.
//
// Active mass. The probability that one scheduler invocation is active
// is maintained as an exact integer rational:
//
//	edge process:   p = Σ_v diff(v) / 2m
//	vertex process: p = (1/n)·Σ_v diff(v)/d(v)
//
// On a regular topology the vertex process's p is also Σ diff / 2m, so
// every unit is 1 and no division is needed. Only the vertex process on
// an irregular topology scales 1/d(v) by L = lcm of the distinct
// degrees (num = Σ diff(v)·L/d(v), den = n·L), capped at
// graph.MaxDegreeLCM; on the cap the constructor errors and callers
// stay naive.
//
// Conditional pair draw. Each rejection round reads one member's
// stored count and no neighbour: it draws a member slot and an index j
// below the member's bound, accepts iff j < diff, and only then scans
// v's neighbours once for the j-th discordant one:
//
//	uniform-arc law (edge process; vertex process on a regular
//	topology): members are filed in lists[b] by b = ⌈log2 d(v)⌉, and
//	one draw x < Σ_b |lists[b]|·2^b picks the list b, the slot x>>b and
//	j = x mod 2^b. Every (member, j) pair has the same probability per
//	round, so the accepted arc is uniform over the discordant arcs; a
//	round accepts with probability diff(v)/2^b > diff(v)/2d(v). A
//	regular topology has the single list b = ⌈log2 d⌉.
//	vertex process, irregular topology: one list; a uniform slot, then
//	j < d(v). The accepted arc (v, w) has probability ∝ 1/d(v), the
//	vertex-process conditional, and a round accepts with probability
//	diff(v)/d(v).
//
// Rejection rounds are tallied locally and published to
// sampler_bucket_draws_total when a stepping loop exits, so attempts
// per active step can be read off the counters.
//
// Distribution- not byte-equivalence: the naive kernels realize an
// active step by drawing (v, w) directly; this engine consumes its
// stream through geomSkip and the rejection rounds instead, so its
// trajectories diverge pointwise from the naive ones while keeping the
// exact same law. The equivalence tests therefore compare distributions
// (χ²/KS), not bytes.

var (
	// sparseHandoffsTotal counts blocked-kernel rows that retired to the
	// discordance engine (including EngineFast-at-start retirements).
	sparseHandoffsTotal = obs.Default.Counter("core_sparse_handoffs_total")
	// sparseSetPeak is the high-water mark, in bytes, of the engine's
	// working set (pos, the touched bitmap and the member lists) across
	// all runs.
	sparseSetPeak = obs.Default.Gauge("sparse_set_peak")
	// sparseSessionTimer times each blocked hand-off session (hand-off
	// to exit) into the span_core_sparse_step_nanos histogram, making
	// the tail phase visible on /metrics and in the -metrics footer.
	sparseSessionTimer = obs.Default.Timer("core_sparse_step")
	// bucketDrawsTotal counts the conditional pair sampler's rejection
	// rounds, accepted and rejected, across all runs.
	bucketDrawsTotal = obs.Default.Counter("sampler_bucket_draws_total")
)

// member is one discordant vertex with its discordant-arc count.
type member struct{ v, diff int32 }

// SparseState is the discordance engine's mutable state: the
// swap-delete discordant-vertex set over a State, with the exact
// rational active mass. All opinion updates must go through SetOpinion
// while the set is authoritative.
type SparseState struct {
	s    *State
	topo graph.Topology

	// off and adj alias the CSR arrays when the topology is a
	// *graph.Graph and the state holds int32 opinions; nil selects the
	// Topology interface calls.
	off []int64
	adj []int32

	lists [][]member // members by sampler bucket (see the file comment)
	pos   []int32    // pos[v] = slot of v in its bucket's list, or -1
	// touched marks, one bit per vertex, the vertices whose pos Seed's
	// walk moved off −1; all zero between seedings.
	touched []uint64
	// fixed is the one list every member is filed in when the bucket
	// does not depend on the degree (a regular topology, or the vertex
	// process), and -1 when members are filed by vb[v] = ⌈log2 d(v)⌉
	// (the edge process on an irregular topology; vb is nil otherwise).
	fixed int
	vb    []uint8
	nbuf  []int32 // SetOpinion's neighbour-class scratch, 2·d(v) entries

	num      int64 // active-mass numerator when lcm > 0 (else sumDiff)
	den      int64 // active-mass denominator: 2m, or n·L when lcm > 0
	lcm      int64 // vertex process on an irregular topology: L; else 0
	sumDiff  int64 // Σ_v diff(v) = 2 · #discordant edges (with multiplicity)
	envelope int64 // Σ_b len(lists[b])·2^b, the uniform-arc draw range
	draws    int64 // rejection rounds not yet flushed to bucketDrawsTotal

	countFn func() int64 // O(1) count for State.DiscordantEdges
}

// NewSparseState builds the discordant-vertex set for s under proc. It
// allocates the O(n) position index, filled with −1 once here and kept
// that way between seedings, and an n/64-word touched bitmap. A regular
// topology needs no degree pass; otherwise one O(n) pass files every
// vertex's bucket (edge process) or finds the degree lcm (vertex
// process). Seed then fills the set. It errors when the vertex
// process's degree-lcm scaling would overflow (wildly irregular degree
// sequences); callers fall back to naive stepping.
func NewSparseState(s *State, proc Process) (*SparseState, error) {
	if proc != VertexProcess && proc != EdgeProcess {
		return nil, fmt.Errorf("core: unknown process %v", proc)
	}
	topo := s.Topology()
	n := topo.N()
	dmin := topo.MinDegree()
	if dmin < 1 {
		return nil, fmt.Errorf("core: fast engine requires min degree >= 1")
	}
	sp := &SparseState{
		s:       s,
		topo:    topo,
		pos:     make([]int32, n),
		touched: make([]uint64, (n+63)/64),
		den:     topo.DegreeSum(),
	}
	for v := range sp.pos {
		sp.pos[v] = -1
	}
	sp.bind(s)
	switch {
	case int64(n)*int64(dmin) == topo.DegreeSum():
		// Regular: both processes draw a uniform discordant arc.
		sp.fixed = bits.Len(uint(dmin - 1))
	case proc == EdgeProcess:
		sp.fixed = -1
		sp.vb = make([]uint8, n)
		bmax := uint8(0)
		for v := range sp.vb {
			sp.vb[v] = uint8(bits.Len(uint(sp.degree(v) - 1)))
			bmax = max(bmax, sp.vb[v])
		}
		sp.lists = make([][]member, bmax+1)
	default:
		// L = lcm of the distinct degrees, so every unit L/d(v) is an
		// exact integer. The gcd runs only where the degree changes.
		lcm, prev := int64(1), 0
		for v := 0; v < n; v++ {
			d := sp.degree(v)
			if d == prev {
				continue
			}
			prev = d
			l := lcm / gcd64(lcm, int64(d)) * int64(d)
			if l > graph.MaxDegreeLCM || l < 0 {
				return nil, fmt.Errorf("core: fast engine: vertex-process degree lcm exceeds %d on this degree sequence; use naive stepping", graph.MaxDegreeLCM)
			}
			lcm = l
		}
		sp.lcm = lcm
		sp.den = int64(n) * lcm
	}
	if sp.lists == nil {
		sp.lists = make([][]member, sp.fixed+1)
	}
	sp.countFn = func() int64 { return sp.sumDiff / 2 }
	sp.Seed()
	return sp, nil
}

// gcd64 is Euclid's gcd for positive int64s.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// bind points the set at s, selecting the CSR slice walks when s is a
// materialized graph with int32 opinions.
func (sp *SparseState) bind(s *State) {
	sp.s = s
	sp.off, sp.adj = nil, nil
	if g := s.Graph(); g != nil && s.opb == nil {
		sp.off, sp.adj = g.Offsets(), g.Arcs()
	}
}

// x returns vertex v's opinion in whichever representation is live —
// base-relative bytes and absolute int32s compare identically within a
// representation, which is all the set maintenance needs.
func (sp *SparseState) x(v int) int32 {
	if sp.s.opb != nil {
		return int32(sp.s.opb[v])
	}
	return sp.s.opinions[v]
}

// degree returns d(v), from the CSR offsets when they are bound.
func (sp *SparseState) degree(v int) int {
	if sp.off != nil {
		return int(sp.off[v+1] - sp.off[v])
	}
	return sp.topo.Degree(v)
}

// bucket returns the list v is filed in: ⌈log2 d(v)⌉ for the
// uniform-arc sampler on an irregular topology, the fixed list
// otherwise.
func (sp *SparseState) bucket(v int) int {
	if b := sp.fixed; b >= 0 {
		return b
	}
	return int(sp.vb[v])
}

// countDiscordant returns v's number of discordant incident arcs: the
// from-scratch count CheckSparse holds the set to.
func (sp *SparseState) countDiscordant(v int) int32 {
	c := int32(0)
	if sp.off != nil {
		op := sp.s.opinions
		xv := op[v]
		for _, w := range sp.adj[sp.off[v]:sp.off[v+1]] {
			if op[w] != xv {
				c++
			}
		}
		return c
	}
	xv := sp.x(v)
	for i, d := 0, sp.topo.Degree(v); i < d; i++ {
		if sp.x(sp.topo.Neighbor(v, i)) != xv {
			c++
		}
	}
	return c
}

// Seed rebuilds the set against the wrapped State's current opinions,
// reusing every array, and files the members in ascending vertex order:
// exactly the lists a walk over every vertex builds.
//
// With an opinion xm that dominant picks, it reads the opinion row once
// and otherwise costs O(old members + n/64 + n_off·d̄), n_off being the
// number of vertices off xm and d̄ their mean degree. Between seedings
// every non-member's pos is −1, so clearing the previous members'
// entries restores an all −1 index. Every discordant arc has an
// endpoint off xm, so one walk over those vertices finds them all: each
// counts its own discordant arcs and adds one to the count of each
// neighbour holding xm, accumulated in pos as −1−count, and marks in
// touched every vertex whose count it set. The members are then filed
// from the touched bitmap (insert overwrites their −1−count), which is
// cleared as it is read.
//
// With no dominant opinion the walk visits every vertex, so Seed resets
// each vertex's pos and files it as the ascending walk counts it, in
// O(n·d̄), with no list clear, mark or second filing pass: those cost
// about a tenth more on CSR rr(10⁶, 8) uniform profiles (DESIGN.md §6).
func (sp *SparseState) Seed() {
	pos := sp.pos
	xm, ok := sp.dominant()
	for b, l := range sp.lists {
		if ok {
			for _, m := range l {
				pos[m.v] = -1
			}
		}
		sp.lists[b] = l[:0]
	}
	sp.num, sp.sumDiff, sp.envelope = 0, 0, 0
	switch s := sp.s; {
	case !ok:
		for v := range pos {
			pos[v] = -1
			if c := sp.countDiscordant(v); c > 0 {
				sp.addMass(v, c)
				sp.insert(v, c)
			}
		}
	case s.opb != nil:
		for v, x := range s.opb {
			if int32(x) != xm {
				sp.seedVertex(v, xm)
			}
		}
	default:
		for v, x := range s.opinions {
			if x != xm {
				sp.seedVertex(v, xm)
			}
		}
	}
	for i, word := range sp.touched {
		if word == 0 {
			continue
		}
		sp.touched[i] = 0
		for ; word != 0; word &= word - 1 {
			v := i<<6 | bits.TrailingZeros64(word)
			c := -1 - pos[v]
			sp.addMass(v, c)
			sp.insert(v, c)
		}
	}
	sparseSetPeak.SetMax(sp.MemBytes())
	sparseCheckInvariants(sp)
}

// touch marks v in the touched bitmap.
func (sp *SparseState) touch(v int) { sp.touched[v>>6] |= 1 << (v & 63) }

// seedVertex records the discordant-arc count of v, a vertex off xm,
// in pos, marking v when the count is positive; seedCount adds v's
// arcs to its neighbours on xm.
func (sp *SparseState) seedVertex(v int, xm int32) {
	if c := sp.seedCount(v, xm); c > 0 {
		sp.pos[v] = -1 - c
		sp.touch(v)
	}
}

// seedCount returns v's discordant-arc count, as countDiscordant does,
// and adds one to the count Seed accumulates in pos for each neighbour
// holding xm, marking it.
func (sp *SparseState) seedCount(v int, xm int32) int32 {
	c := int32(0)
	pos := sp.pos
	if sp.off != nil {
		op := sp.s.opinions
		xv := op[v]
		for _, w := range sp.adj[sp.off[v]:sp.off[v+1]] {
			xw := op[w]
			if xw != xv {
				c++
			}
			if xw == xm {
				pos[w]--
				sp.touch(int(w))
			}
		}
		return c
	}
	xv := sp.x(v)
	for i, d := 0, sp.topo.Degree(v); i < d; i++ {
		w := sp.topo.Neighbor(v, i)
		xw := sp.x(w)
		if xw != xv {
			c++
		}
		if xw == xm {
			pos[w]--
			sp.touch(w)
		}
	}
	return c
}

// dominant returns the opinion Seed's walk skips, in the live
// representation, and true, when the plurality holds at least 3/4 of
// the vertices; otherwise false. On CSR rr(10⁶, 8) the skipping walk
// lost to the full walk at a share of 0.7 and won at 3/4: below the
// crossover its scattered pos updates cost more than the walks they
// save (DESIGN.md §6).
func (sp *SparseState) dominant() (int32, bool) {
	s := sp.s
	i, c := s.plurality()
	if 4*c < 3*int64(s.N()) {
		return 0, false
	}
	if s.opb != nil {
		return int32(i), true
	}
	return s.base + int32(i), true
}

// rebind repoints the set at another State over the same topology. The
// blocked kernel's arena (which Scratch also lends to the sequential
// loops) keeps ONE SparseState per process and lends it to whichever
// trial is stepping; a Seed after rebinding rebuilds everything
// opinion-dependent. The caller must not leave a stale discordance hook
// on the previous state (State.ResetTo clears it; detachDiscordance
// does too).
func (sp *SparseState) rebind(s *State) {
	if s.Topology() != sp.topo {
		panic("core: SparseState.rebind across topologies")
	}
	sp.bind(s)
}

// attachDiscordance makes the wrapped State's DiscordantEdges read the
// set's exact O(1) count (Σ diff / 2, each discordant edge contributing
// one arc per endpoint, parallel copies included). Only valid while
// every opinion update goes through sp.SetOpinion.
func (sp *SparseState) attachDiscordance() { sp.s.discordFn = sp.countFn }

// detachDiscordance reverts State.DiscordantEdges to the O(m) recount.
func (sp *SparseState) detachDiscordance() { sp.s.discordFn = nil }

// DiscordantEdges returns the exact number of currently discordant
// edges (counting parallel multigraph copies separately, matching
// State.DiscordantEdges on implicit backends).
func (sp *SparseState) DiscordantEdges() int64 { return sp.sumDiff / 2 }

// ActiveMass returns the probability that one scheduler invocation is
// active as the exact rational num/den.
func (sp *SparseState) ActiveMass() (num, den int64) {
	if sp.lcm == 0 {
		return sp.sumDiff, sp.den
	}
	return sp.num, sp.den
}

// Members returns the number of currently discordant vertices.
func (sp *SparseState) Members() int {
	m := 0
	for _, l := range sp.lists {
		m += len(l)
	}
	return m
}

// MemBytes returns the set's current working-set footprint: the O(n)
// position index and touched bitmap (plus the bucket bytes of the
// irregular edge process) and the O(D) member lists.
func (sp *SparseState) MemBytes() int64 {
	b := 4*int64(len(sp.pos)) + 8*int64(len(sp.touched)) + int64(len(sp.vb)) + 4*int64(cap(sp.nbuf))
	for _, l := range sp.lists {
		b += 8 * int64(cap(l))
	}
	return b
}

// addMass adds delta discordant arcs at v to the mass aggregates; only
// the irregular vertex process divides.
func (sp *SparseState) addMass(v int, delta int32) {
	sp.sumDiff += int64(delta)
	if sp.lcm != 0 {
		sp.addUnits(v, delta)
	}
}

// addUnits adds delta arcs of unit L/d(v) to the vertex-process mass.
func (sp *SparseState) addUnits(v int, delta int32) {
	sp.num += int64(delta) * (sp.lcm / int64(sp.degree(v)))
}

// insert files v with count c > 0 at the end of its bucket's list.
func (sp *SparseState) insert(v int, c int32) {
	b := sp.bucket(v)
	sp.pos[v] = int32(len(sp.lists[b]))
	sp.lists[b] = append(sp.lists[b], member{int32(v), c})
	sp.envelope += 1 << b
}

// drop swap-deletes the member at slot of list b.
func (sp *SparseState) drop(b int, slot int32) {
	l := sp.lists[b]
	last := len(l) - 1
	sp.pos[l[slot].v] = -1
	if int(slot) != last {
		l[slot] = l[last]
		sp.pos[l[slot].v] = slot
	}
	sp.lists[b] = l[:last]
	sp.envelope -= 1 << b
}

// b2i converts a bool to 0 or 1 without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// bump adjusts diff(w) by delta (±1), inserting or swap-deleting w as
// its count crosses zero. The caller adds delta to sumDiff; the
// irregular vertex process's units are added here.
func (sp *SparseState) bump(w int, delta int32) {
	if sp.lcm != 0 {
		sp.addUnits(w, delta)
	}
	slot := sp.pos[w]
	if slot < 0 {
		sp.insert(w, delta)
		return
	}
	b := sp.bucket(w)
	m := &sp.lists[b][slot]
	if m.diff += delta; m.diff == 0 {
		sp.drop(b, slot)
	}
}

// setDiff sets diff(v) to c outright (the updated vertex's own count,
// recomputed during the repair walk), with the same membership and mass
// maintenance as bump.
func (sp *SparseState) setDiff(v int, c int32) {
	slot := sp.pos[v]
	if slot < 0 {
		if c > 0 {
			sp.addMass(v, c)
			sp.insert(v, c)
		}
		return
	}
	b := sp.bucket(v)
	m := &sp.lists[b][slot]
	if c == m.diff {
		return
	}
	sp.addMass(v, c-m.diff)
	if m.diff = c; c == 0 {
		sp.drop(b, slot)
	}
}

// SetOpinion sets X_v = x through the wrapped State and repairs the
// discordant-vertex set in O(d(v)): only v's own count and its
// neighbours' counts can change, each by one arc per incident copy.
func (sp *SparseState) SetOpinion(v, x int) {
	old := sp.s.Opinion(v)
	if x == old {
		return
	}
	sp.s.SetOpinion(v, x)
	nx, ox := sp.x(v), int32(old)
	if sp.s.opb != nil {
		ox -= sp.s.base
	}
	// Classify v's neighbours in one branch-free pass — one holding the
	// old opinion gains a discordant arc, one holding the new opinion
	// loses one, any other is unchanged — then bump each class in its
	// own loop, so a high-degree update mispredicts no per-neighbour
	// branch.
	d := sp.degree(v)
	if cap(sp.nbuf) < 2*d {
		sp.nbuf = make([]int32, 2*d)
	}
	up, down := sp.nbuf[:d], sp.nbuf[d:2*d]
	nu, nd := 0, 0
	if sp.off != nil {
		op := sp.s.opinions
		for _, w := range sp.adj[sp.off[v]:sp.off[v+1]] {
			xw := op[w]
			up[nu], down[nd] = w, w
			nu += b2i(xw == ox)
			nd += b2i(xw == nx)
		}
	} else {
		for i := 0; i < d; i++ {
			w := sp.topo.Neighbor(v, i)
			xw := sp.x(w)
			up[nu], down[nd] = int32(w), int32(w)
			nu += b2i(xw == ox)
			nd += b2i(xw == nx)
		}
	}
	for _, w := range down[:nd] {
		sp.bump(int(w), -1)
	}
	for _, w := range up[:nu] {
		sp.bump(int(w), 1)
	}
	sp.sumDiff += int64(nu - nd)
	sp.setDiff(v, int32(d-nd))
	sparseCheckInvariants(sp)
}

// sampleDiscordant draws the next active ordered pair (v, w) from the
// exact conditional law of the process given that the draw is
// discordant (see the file comment for the law argument). It must only
// be called when ActiveMass() > 0, which guarantees a member with
// diff ≥ 1 and hence termination.
func (sp *SparseState) sampleDiscordant(r *rand.Rand) (v, w int) {
	v, j := sp.drawArc(r)
	return v, sp.nthDiscordant(v, j)
}

// activeStep draws the next active pair and applies rule to it — the
// stepping loops' use of sampleDiscordant. With two adjacent opinions
// left, every discordant neighbour of v holds the other one, so the
// target needs no neighbour scan.
func (sp *SparseState) activeStep(r *rand.Rand, rule PairwiseRule) {
	v, j := sp.drawArc(r)
	s := sp.s
	xv := s.Opinion(v)
	xw := s.Min() + s.Max() - xv
	if s.Range() > 1 {
		xw = s.Opinion(sp.nthDiscordant(v, j))
	}
	sp.SetOpinion(v, rule.Target(xv, xw))
}

// drawArc runs the rejection rounds: it returns an accepted member v
// and an index j < diff(v) naming one of v's discordant arcs, with
// (v, j) distributed as the process's conditional law requires.
func (sp *SparseState) drawArc(r *rand.Rand) (v, j int) {
	if sp.lcm != 0 {
		// Vertex process, irregular topology: a uniform member, j < d(v).
		l := sp.lists[0]
		for {
			sp.draws++
			m := l[r.Int64N(int64(len(l)))]
			if j := r.Int64N(int64(sp.degree(int(m.v)))); j < int64(m.diff) {
				return int(m.v), int(j)
			}
		}
	}
	for {
		sp.draws++
		x := r.Int64N(sp.envelope)
		b := sp.fixed
		if b < 0 {
			b = 0
			for m := int64(len(sp.lists[0])); x >= m; m = int64(len(sp.lists[b])) << b {
				x -= m
				b++
			}
		}
		m := sp.lists[b][x>>b]
		if j := x & (1<<b - 1); j < int64(m.diff) {
			return int(m.v), int(j)
		}
	}
}

// nthDiscordant returns v's j-th discordant neighbour (0-based, in
// neighbour order, parallel arcs counted separately). j must be below
// diff(v).
func (sp *SparseState) nthDiscordant(v, j int) int {
	// The count-down is branch-free, so the scan mispredicts only its
	// exit.
	if sp.off != nil {
		op := sp.s.opinions
		xv := op[v]
		for _, w := range sp.adj[sp.off[v]:sp.off[v+1]] {
			if j -= b2i(op[w] != xv); j < 0 {
				return int(w)
			}
		}
	} else {
		xv := sp.x(v)
		for i, d := 0, sp.topo.Degree(v); i < d; i++ {
			w := sp.topo.Neighbor(v, i)
			if j -= b2i(sp.x(w) != xv); j < 0 {
				return w
			}
		}
	}
	panic(fmt.Sprintf("core: vertex %d has fewer discordant arcs than its stored count", v))
}

// flushDraws publishes the accumulated rejection rounds to the
// process-wide registry. Called once per loop exit so the hot path
// touches only the local counter.
func (sp *SparseState) flushDraws() {
	if sp.draws != 0 {
		bucketDrawsTotal.Add(sp.draws)
		sp.draws = 0
	}
}

// CheckSparse re-derives the discordant-vertex set from scratch and
// returns an error describing the first inconsistency with the
// incrementally maintained one: membership ⇔ diff > 0, per-member arc
// counts and buckets, the position index (exactly −1 for every
// non-member, which Seed relies on), an all-zero touched bitmap, and
// the exact mass aggregates. The divtestinvariants build tag arranges
// for this to run after every opinion update and every seeding
// (fast_invariants_on.go); the fuzz targets and unit tests also call
// it directly.
func (sp *SparseState) CheckSparse() error {
	n := sp.topo.N()
	var num, sumDiff, envelope int64
	members := 0
	for v := 0; v < n; v++ {
		c := sp.countDiscordant(v)
		slot := sp.pos[v]
		if (slot >= 0) != (c > 0) {
			return fmt.Errorf("core: vertex %d listed=%v, want diff=%d", v, slot >= 0, c)
		}
		if c == 0 {
			if slot != -1 {
				return fmt.Errorf("core: non-member %d has pos %d, want -1", v, slot)
			}
			continue
		}
		b := sp.bucket(v)
		if int(slot) >= len(sp.lists[b]) || sp.lists[b][slot].v != int32(v) {
			return fmt.Errorf("core: vertex %d position index broken (bucket=%d pos=%d)", v, b, slot)
		}
		if got := sp.lists[b][slot].diff; got != c {
			return fmt.Errorf("core: vertex %d diff=%d, recomputed %d", v, got, c)
		}
		members++
		sumDiff += int64(c)
		envelope += 1 << b
		if sp.lcm != 0 {
			num += int64(c) * (sp.lcm / int64(sp.degree(v)))
		}
	}
	if got := sp.Members(); got != members {
		return fmt.Errorf("core: sparse set has %d members, want %d", got, members)
	}
	for i, word := range sp.touched {
		if word != 0 {
			return fmt.Errorf("core: touched bitmap word %d is %#x between seedings, want 0", i, word)
		}
	}
	if sumDiff != sp.sumDiff {
		return fmt.Errorf("core: sparse Σdiff=%d, recomputed %d", sp.sumDiff, sumDiff)
	}
	if envelope != sp.envelope {
		return fmt.Errorf("core: sparse envelope %d, recomputed %d", sp.envelope, envelope)
	}
	if sp.lcm != 0 && num != sp.num {
		return fmt.Errorf("core: sparse active mass numerator %d, recomputed %d", sp.num, num)
	}
	wantDen := sp.topo.DegreeSum()
	if sp.lcm != 0 {
		wantDen = int64(n) * sp.lcm
	}
	if sp.den != wantDen {
		return fmt.Errorf("core: sparse denominator %d, want %d", sp.den, wantDen)
	}
	return nil
}

// geomSkip draws the number of idle scheduler invocations before the
// next active one: K ~ Geometric(p) on {0, 1, 2, …} with p = num/den
// and P[K = k] = (1-p)^k·p, truncated at limit (a return of limit means
// "no active draw within the next limit invocations", which has
// probability (1-p)^limit — exactly the tail mass, so truncating and
// re-drawing later is lawful by memorylessness). The draw is float64
// inversion, whose relative error (≲2⁻⁵²) is far below the resolution
// of any statistical test; the conditional pair law stays exact
// integer arithmetic.
func geomSkip(r *rand.Rand, num, den, limit int64) int64 {
	if num >= den {
		return 0
	}
	lq := math.Log1p(-float64(num) / float64(den)) // ln(1-p) < 0
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	k := math.Log(u) / lq
	if k >= float64(limit) {
		return limit
	}
	return int64(k)
}

// emitFastCadence samples the exact discordance mass into the probe
// and flushes the current step batch. Called on the observeEvery
// cadence while the set is authoritative; probe must be non-nil.
func (e *loopEnv) emitFastCadence(sp *SparseState) {
	num, den := sp.ActiveMass()
	e.probe.Discordance(obs.Discordance{
		Step:    e.s.Steps(),
		Edges:   sp.DiscordantEdges(),
		MassNum: num,
		MassDen: den,
	})
	e.flushBatch(obs.RegimeFast)
	e.advanceEmit()
}

// loop is EngineFast's replacement for the naive per-step loop in
// run.go: identical observable behaviour, idle steps skipped in bulk.
func (sp *SparseState) loop(e *loopEnv, rule PairwiseRule) {
	s := e.s
	sp.attachDiscordance()
	prevVersion := s.SupportVersion()
	for !e.res.Aborted && !e.done() && s.Steps() < e.maxSteps {
		// The farthest this iteration may advance: never past MaxSteps,
		// and never past the next observer boundary (idle steps do not
		// change the state, but the naive engine still invokes the
		// observer there, so boundaries must be visited).
		limit := e.maxSteps - s.Steps()
		if e.observer != nil {
			if toBoundary := e.observeEvery - s.Steps()%e.observeEvery; toBoundary < limit {
				limit = toBoundary
			}
		}
		num, den := sp.ActiveMass()
		k := limit // no discordant pair anywhere: every draw is idle
		if num > 0 {
			k = geomSkip(e.r, num, den, limit)
		}
		if k < limit {
			// Next active draw lands inside the window: account for the
			// k skipped idle steps plus the active one, then apply it.
			s.addSteps(k + 1)
			if e.probe != nil {
				e.batch.Skipped += k
				e.batch.Active++
			}
			sp.activeStep(e.r, rule)
			if s.SupportVersion() != prevVersion {
				e.onSupport()
				prevVersion = s.SupportVersion()
			}
		} else {
			// All idle up to the cap: jump straight to it. Memorylessness
			// of the geometric makes the fresh draw next iteration exact.
			s.addSteps(limit)
			if e.probe != nil {
				e.batch.Skipped += limit
			}
		}
		if e.probe != nil && s.Steps() >= e.nextEmit {
			e.emitFastCadence(sp)
		}
		if e.observer != nil && s.Steps()%e.observeEvery == 0 {
			if !e.observer(s) {
				e.res.Aborted = true
			}
		}
	}
	e.flushBatch(obs.RegimeFast)
	sp.detachDiscordance()
	sp.flushDraws()
}

// flushSparseRow emits the row's accumulated sparse-regime step batch
// plus a discordance sample, and realigns the emit boundary — the
// blocked-kernel counterpart of loopEnv.emitFastCadence.
func (b *blockRun) flushSparseRow(row *blockRow, sp *SparseState) {
	if row.probe == nil {
		return
	}
	num, den := sp.ActiveMass()
	row.probe.Discordance(obs.Discordance{
		Step:    row.s.Steps(),
		Edges:   sp.DiscordantEdges(),
		MassNum: num,
		MassDen: den,
	})
	to := row.s.Steps()
	if to != row.batch.FromStep {
		row.batch.ToStep = to
		row.batch.Engine = obs.RegimeSparse
		row.probe.StepBatch(row.batch)
		row.batch = obs.StepBatch{FromStep: to}
	}
	row.nextEmit = (to/b.observeEvery + 1) * b.observeEvery
}

// retireSparse finishes row's trial under skip-sampling, with the same
// loop structure as SparseState.loop: geometric skips bounded by
// MaxSteps only (probe batches flush at the first step past the emit
// boundary, never by clamping the skip — a probe must not change the
// trajectory), exact conditional sampling for active steps, stop checks
// on support changes only. When allowRebound is set (EngineAuto) and
// the exact mass rebounds past the hybrid exit threshold, the row
// returns to blocked stepping and retireSparse reports true; under
// EngineFast the loop runs to the stop condition or the step cap.
func (b *blockRun) retireSparse(row *blockRow, sp *SparseState, allowRebound bool) (rebound bool) {
	s := row.s
	sp.attachDiscordance()
	span := sparseSessionTimer.Start()
	probe := row.probe != nil
	for !row.done {
		if s.Steps() >= b.maxSteps {
			row.done = true
			break
		}
		// The skip limit depends only on MaxSteps, never on the probe
		// cadence: clamping to nextEmit would segment the geometric draw
		// differently with a probe attached, consuming randomness on the
		// probe's behalf and breaking the probe-neutrality contract.
		// Batches are instead emitted at the first opportunity past the
		// boundary.
		limit := b.maxSteps - s.Steps()
		num, den := sp.ActiveMass()
		k := limit // no discordant pair anywhere: every draw is idle
		if num > 0 {
			k = geomSkip(row.r, num, den, limit)
		}
		if k < limit {
			s.addSteps(k + 1)
			if probe {
				row.batch.Skipped += k
				row.batch.Active++
			}
			sp.activeStep(row.r, b.pw)
			b.checkMajority(row)
			if s.SupportVersion() != row.prevVer && b.afterSupport(row) {
				break
			}
			if allowRebound && massAbove(sp, b.exitScale) {
				rebound = true
				break
			}
		} else {
			s.addSteps(limit)
			if probe {
				row.batch.Skipped += limit
			}
		}
		if probe && s.Steps() >= row.nextEmit {
			b.flushSparseRow(row, sp)
		}
	}
	if probe {
		to := s.Steps()
		if to != row.batch.FromStep {
			row.batch.ToStep = to
			row.batch.Engine = obs.RegimeSparse
			row.probe.StepBatch(row.batch)
		}
		row.batch = obs.StepBatch{FromStep: to}
	}
	sp.detachDiscordance()
	sp.flushDraws()
	sparseSetPeak.SetMax(sp.MemBytes())
	span.End()
	return rebound
}
