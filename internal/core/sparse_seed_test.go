package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"div/internal/graph"
	"div/internal/rng"
)

// This file pins SparseState.Seed: the walk over the vertices off the
// dominant opinion must build exactly the set a walk over every vertex
// builds, element for element, and must cost O(n_off·d) neighbour
// lookups rather than O(n·d).

// newTopoState builds a State over topo (CSR when topo is a
// *graph.Graph) holding opinions, in the compact byte representation
// when compact is set and as int32s otherwise.
func newTopoState(t testing.TB, topo graph.Topology, compact bool, opinions []int) *State {
	t.Helper()
	s, err := topoState(topo, compact, opinions)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// topoState is newTopoState returning NewState's error.
func topoState(topo graph.Topology, compact bool, opinions []int) (*State, error) {
	s := &State{topo: topo}
	if g, ok := topo.(*graph.Graph); ok {
		s = &State{g: g}
	}
	if compact {
		s.opb = make([]uint8, topo.N())
	}
	if err := s.ResetTo(opinions); err != nil {
		return nil, err
	}
	return s, nil
}

// seedWant is the set a full enumeration builds: every vertex visited
// in ascending order, its discordant arcs counted through the
// Topology interface, members appended to their bucket's list.
type seedWant struct {
	lists                  [][]member
	pos                    []int32
	sumDiff, num, envelope int64
}

func fullEnumeration(sp *SparseState) seedWant {
	topo := sp.topo
	n := topo.N()
	w := seedWant{lists: make([][]member, len(sp.lists)), pos: make([]int32, n)}
	for v := 0; v < n; v++ {
		w.pos[v] = -1
		xv := sp.s.Opinion(v)
		c := int32(0)
		for i := 0; i < topo.Degree(v); i++ {
			if sp.s.Opinion(topo.Neighbor(v, i)) != xv {
				c++
			}
		}
		if c == 0 {
			continue
		}
		b := sp.bucket(v)
		w.pos[v] = int32(len(w.lists[b]))
		w.lists[b] = append(w.lists[b], member{int32(v), c})
		w.sumDiff += int64(c)
		w.envelope += 1 << b
		if sp.lcm != 0 {
			w.num += int64(c) * (sp.lcm / int64(topo.Degree(v)))
		}
	}
	return w
}

// checkSeeded asserts that sp passes CheckSparse and holds exactly the
// lists, position index and aggregates of a full enumeration; label
// names the seeding in failures.
func checkSeeded(t testing.TB, sp *SparseState, label string) {
	t.Helper()
	if err := sp.CheckSparse(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := fullEnumeration(sp)
	for b := range want.lists {
		got := sp.lists[b]
		if len(got) != len(want.lists[b]) {
			t.Fatalf("%s: list %d has %d members, want %d", label, b, len(got), len(want.lists[b]))
		}
		for i, m := range want.lists[b] {
			if got[i] != m {
				t.Fatalf("%s: list %d slot %d holds %+v, want %+v", label, b, i, got[i], m)
			}
		}
	}
	for v, p := range want.pos {
		if sp.pos[v] != p {
			t.Fatalf("%s: pos[%d] = %d, want %d", label, v, sp.pos[v], p)
		}
	}
	if sp.sumDiff != want.sumDiff || sp.num != want.num || sp.envelope != want.envelope {
		t.Fatalf("%s: sumDiff/num/envelope = %d/%d/%d, want %d/%d/%d", label,
			sp.sumDiff, sp.num, sp.envelope, want.sumDiff, want.num, want.envelope)
	}
}

// seedProfile fills an opinion vector of length len(dst).
type seedProfile struct {
	name string
	fill func(dst []int, r *rand.Rand)
}

// seedProfiles cover both sides of Seed's dominant-opinion rule: a
// dominant opinion at Min, at Max and strictly inside the range, held
// by exactly ⌈3n/4⌉ vertices and by one fewer, a plurality tie,
// uniform profiles, the mod-3 profile (every vertex discordant on a
// torus) and consensus.
var seedProfiles = []seedProfile{
	{"dissenters", func(dst []int, _ *rand.Rand) {
		stride := max(1, len(dst)/max(1, len(dst)/16))
		for v := range dst {
			dst[v] = 1 + b2i(v%stride == 0)
		}
	}},
	{"clustered", func(dst []int, _ *rand.Rand) {
		run := max(1, len(dst)/12)
		for v := range dst {
			dst[v] = min(3, v/run)
		}
	}},
	{"inside", func(dst []int, _ *rand.Rand) {
		for v := range dst {
			dst[v] = 2
			if v%6 == 0 {
				dst[v] = (v / 6) % 5
			}
		}
		dst[len(dst)-1] = 4
	}},
	{"threshold", func(dst []int, r *rand.Rand) { shareProfile(dst, r, (3*len(dst)+3)/4) }},
	{"below-threshold", func(dst []int, r *rand.Rand) { shareProfile(dst, r, (3*len(dst)+3)/4-1) }},
	{"tie", func(dst []int, _ *rand.Rand) {
		for v := range dst {
			dst[v] = b2i(2*v >= len(dst))
		}
	}},
	{"uniform2", func(dst []int, r *rand.Rand) { UniformOpinionsInto(dst, 2, r) }},
	{"uniform5", func(dst []int, r *rand.Rand) { UniformOpinionsInto(dst, 5, r) }},
	{"mod3", func(dst []int, _ *rand.Rand) {
		for v := range dst {
			dst[v] = v % 3
		}
	}},
	{"consensus", func(dst []int, _ *rand.Rand) {
		for v := range dst {
			dst[v] = 4
		}
	}},
}

// shareProfile gives opinion 0 to held uniformly chosen vertices and
// opinion 1 to the rest.
func shareProfile(dst []int, r *rand.Rand, held int) {
	for v := range dst {
		dst[v] = 1
	}
	for _, v := range r.Perm(len(dst))[:held] {
		dst[v] = 0
	}
}

// sparseSession applies ops updates through sp: sampled DIV steps and
// adversarial in-window updates, as FuzzSparseSet does.
func sparseSession(sp *SparseState, r *rand.Rand, ops int) {
	s := sp.s
	for i := 0; i < ops && s.Range() > 0; i++ {
		if num, _ := sp.ActiveMass(); num > 0 && r.IntN(3) == 0 {
			sp.activeStep(r, DIV{})
		} else {
			sp.SetOpinion(r.IntN(s.N()), s.Min()+r.IntN(s.Range()+1))
		}
	}
}

// TestSparseSeedMatchesFullEnumeration pins Seed's output on every
// backend path (CSR slices, the Topology interface with int32 and with
// compact opinions), both processes, and profiles on both sides of the
// dominant-opinion rule: each seeding — at construction, and after a
// rebind that follows a session of updates on the previous state —
// must equal a full enumeration element for element, so no member of
// the previous state survives into the next.
func TestSparseSeedMatchesFullEnumeration(t *testing.T) {
	rr, err := graph.RandomRegularSeeded(64, 4, 0x5eed1, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := graph.NewHashedRegular(64, 4, 0x5eed2)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := graph.NewImplicitTorus(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices below 5 and above 24 wrap around.
	circ, err := graph.NewImplicitCirculant(30, []int{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	k4e := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 0, V: 2},
	})
	for _, tc := range []struct {
		name string
		topo graph.Topology
		// edgeOnly marks a degree sequence whose vertex-process lcm
		// overflows, so only the edge process can seed it.
		edgeOnly bool
	}{
		{"csr-rr", rr, false}, {"csr-star", graph.Star(17), false}, {"csr-k4e", k4e, false},
		{"csr-caterpillar", primeCaterpillar(), true}, {"csr-path", graph.Path(9), false},
		{"hashedregular", hashed, false}, {"torus", torus, false}, {"circulant", circ, false},
	} {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			if tc.edgeOnly && proc == VertexProcess {
				continue
			}
			for _, compact := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/compact=%v", tc.name, proc, compact), func(t *testing.T) {
					r := rng.New(rng.DeriveSeed(0x5eed3, uint64(tc.topo.N())))
					op := make([]int, tc.topo.N())
					var sp *SparseState
					for _, p := range seedProfiles {
						p.fill(op, r)
						s := newTopoState(t, tc.topo, compact, op)
						fresh, err := NewSparseState(s, proc)
						if err != nil {
							t.Fatal(err)
						}
						checkSeeded(t, fresh, p.name+" at construction")
						if sp == nil {
							sp = fresh
						} else {
							sp.rebind(s)
							sp.Seed()
							checkSeeded(t, sp, p.name+" after rebind")
						}
						sparseSession(sp, r, 40)
						sp.Seed()
						checkSeeded(t, sp, p.name+" reseeded after updates")
					}
				})
			}
		}
	}
}

// TestSparseSeedCompactWordScan pins the compact row's word-at-a-time
// scan, which skips every 8-byte word equal to eight copies of the
// dominant byte: on a CSR and an implicit topology with n mod 8 ≠ 0,
// each seeding must equal a full enumeration element for element. The
// profiles put one dissenter in each of a word's eight byte positions
// and in the tail after the last whole word, hold the dominant opinion
// at byte 0 and at byte 255 of a 256-opinion window, and give the
// dominant opinion exactly ⌈3n/4⌉ vertices, so that almost every word
// holds a dissenter.
func TestSparseSeedCompactWordScan(t *testing.T) {
	const n = 8*9 + 6
	rr, err := graph.RandomRegularSeeded(n, 4, 0x5eeda, graph.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := graph.NewHashedRegular(n, 4, 0x5eedb)
	if err != nil {
		t.Fatal(err)
	}
	dissenter := func(at int) seedProfile {
		return seedProfile{fmt.Sprintf("dissenter at %d", at), func(dst []int, _ *rand.Rand) {
			for v := range dst {
				dst[v] = 3
			}
			dst[at] = 4
		}}
	}
	var profiles []seedProfile
	for p := range 8 {
		profiles = append(profiles, dissenter(8*4+p))
	}
	profiles = append(profiles, dissenter(n-1), dissenter(n-3),
		seedProfile{"dominant byte 0", func(dst []int, _ *rand.Rand) {
			for v := range dst {
				dst[v] = -9
			}
			dst[13] = -9 + 255
		}},
		seedProfile{"dominant byte 255", func(dst []int, _ *rand.Rand) {
			for v := range dst {
				dst[v] = -9 + 255
			}
			dst[13], dst[50] = -9, 0
		}},
		seedProfile{"share 3/4", func(dst []int, r *rand.Rand) { shareProfile(dst, r, (3*len(dst)+3)/4) }},
	)
	for _, tc := range []struct {
		name string
		topo graph.Topology
	}{{"csr-rr", rr}, {"hashedregular", hashed}} {
		for _, proc := range []Process{VertexProcess, EdgeProcess} {
			topo := tc.topo
			t.Run(fmt.Sprintf("%s/%v", tc.name, proc), func(t *testing.T) {
				if topo.N()%8 == 0 {
					t.Fatalf("n = %d leaves no tail after the last word", topo.N())
				}
				r := rng.New(rng.DeriveSeed(0x5eedc, uint64(topo.N())))
				op := make([]int, topo.N())
				var sp *SparseState
				for _, p := range profiles {
					p.fill(op, r)
					s := newTopoState(t, topo, true, op)
					fresh, err := NewSparseState(s, proc)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := fresh.dominant(); !ok {
						t.Fatalf("%s: no dominant opinion", p.name)
					}
					checkSeeded(t, fresh, p.name+" at construction")
					if sp == nil {
						sp = fresh
						continue
					}
					sp.rebind(s)
					sp.Seed()
					checkSeeded(t, sp, p.name+" after rebind")
				}
			})
		}
	}
}

// TestCheckSparseCatchesSeedLeaks pins the two between-seedings
// invariants Seed relies on: a non-member's pos left at anything but −1
// (a −1−count that was never filed) and a touched bit left set must
// each fail CheckSparse, so the invariants build and FuzzSparseSet
// catch a seeding that leaks either.
func TestCheckSparseCatchesSeedLeaks(t *testing.T) {
	h, err := graph.NewHashedRegular(64, 4, 0x5eed9)
	if err != nil {
		t.Fatal(err)
	}
	op := make([]int, h.N())
	op[5] = 1
	sp, err := NewSparseState(newTopoState(t, h, false, op), VertexProcess)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.CheckSparse(); err != nil {
		t.Fatal(err)
	}
	v := 63
	for sp.pos[v] >= 0 {
		v--
	}
	sp.pos[v] = -2
	if sp.CheckSparse() == nil {
		t.Errorf("non-member %d with pos -2 passed CheckSparse", v)
	}
	sp.pos[v] = -1
	sp.touch(v)
	if sp.CheckSparse() == nil {
		t.Errorf("touched bit %d left set passed CheckSparse", v)
	}
}

// countingTopology counts the Neighbor calls made on the topology it
// wraps.
type countingTopology struct {
	graph.Topology
	calls int64
}

func (c *countingTopology) Neighbor(v, i int) int {
	c.calls++
	return c.Topology.Neighbor(v, i)
}

// TestSparseSeedNeighborCalls is Seed's cost guard: with a dominant
// opinion it looks up at most n_off·d neighbours, n_off being the
// number of vertices off that opinion, and on a consensus state none —
// so a return to the O(n·d) walk fails here, not only in the
// benchmark.
func TestSparseSeedNeighborCalls(t *testing.T) {
	if invariantChecksEnabled {
		t.Skip("divtestinvariants recounts every arc after each Seed")
	}
	const n, d, dissenters = 10000, 8, 16
	h, err := graph.NewHashedRegular(n, d, 0x5eed4)
	if err != nil {
		t.Fatal(err)
	}
	topo := &countingTopology{Topology: h}
	op := make([]int, n)
	for i := 0; i < dissenters; i++ {
		op[i*(n/dissenters)] = 1
	}
	consensus := make([]int, n)
	for _, proc := range []Process{VertexProcess, EdgeProcess} {
		for _, compact := range []bool{false, true} {
			sp, err := NewSparseState(newTopoState(t, topo, compact, op), proc)
			if err != nil {
				t.Fatal(err)
			}
			topo.calls = 0
			sp.Seed()
			if limit := int64(dissenters * d); topo.calls > limit {
				t.Errorf("%v/compact=%v: Seed with %d dissenters made %d Neighbor calls, want ≤ %d",
					proc, compact, dissenters, topo.calls, limit)
			}
			sp.rebind(newTopoState(t, topo, compact, consensus))
			topo.calls = 0
			sp.Seed()
			if topo.calls != 0 {
				t.Errorf("%v/compact=%v: Seed at consensus made %d Neighbor calls, want 0", proc, compact, topo.calls)
			}
		}
	}
}
