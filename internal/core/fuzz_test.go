package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"div/internal/graph"
)

// FuzzFastEngine throws random small connected graphs and opinion
// vectors at both engines and checks that each run independently
// satisfies every deterministic consequence of the process laws — the
// properties that hold on *every* sample path, regardless of which
// random stream produced it:
//
//   - the run reaches consensus within the (generous) step budget;
//   - the winner lies in [min X(0), max X(0)] (opinions are confined to
//     the initial range because DIV only moves toward observed values);
//   - at consensus S(T) = n·Winner and FinalMin = FinalMax = Winner;
//   - the stopping times are ordered ThreeStep ≤ TwoAdjacentStep ≤
//     Steps (range ≤ 1 implies range ≤ 2);
//   - at every observation the martingale-conserved totals stay inside
//     their a.s. envelopes, n·min₀ ≤ S(t) ≤ n·max₀ and likewise the
//     degree-weighted Z(t) (the conservation Lemma 3 gives equality in
//     expectation; confinement gives these bounds surely), and the
//     state's internal invariants hold (State.CheckInvariants).
//
// Per-path equality of the two engines is *not* asserted — they consume
// randomness differently by design — but both are held to the identical
// pathwise contract; the distributional match is tested separately in
// equivalence_test.go. A final arm drives the fast engine's SparseState
// directly on the same (typically irregular) CSR graph through sampled
// DIV steps and adversarial updates, re-deriving the whole
// discordant-vertex set after each one.
func FuzzFastEngine(f *testing.F) {
	f.Add(uint8(5), uint64(0), []byte{0, 3, 6, 1, 2}, false, uint64(1))
	f.Add(uint8(7), uint64(0x5a5a5a5a), []byte{9, 9, 0}, true, uint64(42))
	f.Add(uint8(0), ^uint64(0), []byte{1}, false, uint64(7))
	f.Add(uint8(9), uint64(1)<<17, []byte{250, 0, 4, 4, 4, 130}, true, uint64(0xbeef))

	f.Fuzz(func(t *testing.T, nRaw uint8, mask uint64, ops []byte, edgeProc bool, seed uint64) {
		n := 3 + int(nRaw%8)
		// Path backbone keeps the graph connected; mask bits sprinkle
		// extra chords (i,j) with j > i+1.
		edges := make([]graph.Edge, 0, n+8)
		for i := 0; i+1 < n; i++ {
			edges = append(edges, graph.Edge{U: i, V: i + 1})
		}
		bit := 0
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if mask&(1<<(bit%64)) != 0 {
					edges = append(edges, graph.Edge{U: i, V: j})
				}
				bit++
			}
		}
		g, err := graph.NewFromEdges(n, edges)
		if err != nil {
			t.Fatalf("graph build: %v", err)
		}
		init := make([]int, n)
		for i := range init {
			if len(ops) > 0 {
				init[i] = int(ops[i%len(ops)] % 7)
			} else {
				init[i] = i % 3
			}
		}
		min0, max0 := init[0], init[0]
		var sum0 int64
		for _, x := range init {
			if x < min0 {
				min0 = x
			}
			if x > max0 {
				max0 = x
			}
			sum0 += int64(x)
		}
		proc := VertexProcess
		if edgeProc {
			proc = EdgeProcess
		}

		for _, engine := range []Engine{EngineNaive, EngineFast} {
			runOnce := func(seed uint64, sc *Scratch) (Result, error) {
				return Run(Config{
					Graph:        g,
					Initial:      init,
					Process:      proc,
					Engine:       engine,
					Seed:         seed,
					MaxSteps:     1 << 22,
					Scratch:      sc,
					ObserveEvery: 3,
					Observer: func(s *State) bool {
						if err := s.CheckInvariants(); err != nil {
							t.Errorf("%v: state invariants: %v", engine, err)
							return false
						}
						if s.Sum() < int64(min0)*int64(n) || s.Sum() > int64(max0)*int64(n) {
							t.Errorf("%v: S(t)=%d escaped [%d,%d]", engine, s.Sum(), int64(min0)*int64(n), int64(max0)*int64(n))
							return false
						}
						ds := g.DegreeSum()
						if s.DegSum() < int64(min0)*ds || s.DegSum() > int64(max0)*ds {
							t.Errorf("%v: Z-mass %d escaped [%d,%d]", engine, s.DegSum(), int64(min0)*ds, int64(max0)*ds)
							return false
						}
						return true
					},
				})
			}
			res, err := runOnce(seed, nil)
			if err != nil {
				t.Fatalf("%v: Run: %v", engine, err)
			}
			if res.Aborted {
				t.Fatalf("%v: aborted by failing observer", engine)
			}
			if !res.Consensus {
				t.Fatalf("%v: no consensus after %d steps (n=%d)", engine, res.Steps, n)
			}
			if res.Winner < min0 || res.Winner > max0 {
				t.Errorf("%v: winner %d outside initial range [%d,%d]", engine, res.Winner, min0, max0)
			}
			if res.FinalMin != res.Winner || res.FinalMax != res.Winner {
				t.Errorf("%v: final band [%d,%d] ≠ winner %d", engine, res.FinalMin, res.FinalMax, res.Winner)
			}
			if res.TwoAdjacentStep < 0 || res.ThreeStep < 0 {
				t.Errorf("%v: consensus reached but stopping times unset (%d, %d)", engine, res.ThreeStep, res.TwoAdjacentStep)
			}
			if res.ThreeStep > res.TwoAdjacentStep || res.TwoAdjacentStep > res.Steps {
				t.Errorf("%v: stopping times out of order: three=%d twoAdj=%d steps=%d",
					engine, res.ThreeStep, res.TwoAdjacentStep, res.Steps)
			}

			// Reused-scratch replay: dirty a Scratch with an unrelated
			// trial, then re-run the same seed through it. Reuse must be
			// invisible — the Result is byte-identical to the fresh run.
			sc := NewScratch(g)
			if _, err := runOnce(seed+1, sc); err != nil {
				t.Fatalf("%v: dirtying run: %v", engine, err)
			}
			res2, err := runOnce(seed, sc)
			if err != nil {
				t.Fatalf("%v: reused run: %v", engine, err)
			}
			if !reflect.DeepEqual(res, res2) {
				t.Errorf("%v: reused-scratch result diverged\nfresh:  %+v\nreused: %+v", engine, res, res2)
			}
		}

		s := MustState(g, init)
		sp, err := NewSparseState(s, proc)
		if err != nil {
			t.Skipf("sparse set: %v", err) // degree-lcm overflow cannot occur at n ≤ 10
		}
		r := rand.New(rand.NewPCG(seed, 0xf05e))
		for i := 0; i < 64 && s.Range() > 0; i++ {
			if num, _ := sp.ActiveMass(); num > 0 && r.IntN(2) == 0 {
				sp.activeStep(r, DIV{})
			} else {
				sp.SetOpinion(r.IntN(n), s.Min()+r.IntN(s.Range()+1))
			}
			if err := sp.CheckSparse(); err != nil {
				t.Fatalf("sparse op %d: %v", i, err)
			}
		}
	})
}

// FuzzResetToReuse resets four warm States — int32 and compact rows on
// an irregular CSR graph and on HashedRegular — through a fuzz-decoded
// sequence of profiles, and holds every reset to NewState on the same
// profile, field by field: the same error, or the same State. Each
// 4-byte entry is (representation and modifiers, width, base shift,
// dominant share):
//
//   - flags bit 0 picks the compact row, bit 1 HashedRegular;
//   - the window is width+1 opinions wide, 256 more with bit 2, and
//     2²² more with bit 3 (always rejected);
//   - the window's base moves by the signed shift from that State's
//     previous base; with bit 4 the window instead ends shift above the
//     int32 maximum, inside it for a shift ≤ 0;
//   - each vertex holds the dominant opinion, in the middle of the
//     window, with probability share/256, and otherwise one drawn
//     uniformly from the window; both ends of the window are held.
//
// The seed corpus covers a one-pass hit, each kind of miss (compact
// minimum one up, minimum one down, a window of 256 then 257) and each
// error, so plain `go test` runs them.
func FuzzResetToReuse(f *testing.F) {
	f.Add([]byte{0, 7, 0, 200, 0, 7, 0, 200, 0, 3, 0, 100})               // same window, then narrower: hits
	f.Add([]byte{1, 7, 0, 200, 1, 7, 1, 200, 0, 7, 1, 200})               // minimum one up: compact miss, int32 hit
	f.Add([]byte{3, 7, 0, 200, 3, 7, 0xff, 200, 2, 9, 0xfe, 0})           // minimum one down: misses
	f.Add([]byte{0, 255, 0, 128, 4, 0, 0, 128, 0, 5, 0, 250})             // 256 then 257, then back under 256
	f.Add([]byte{1, 255, 0, 128, 5, 0, 0, 128, 1, 2, 0, 0})               // compact 257: too wide for bytes
	f.Add([]byte{2, 4, 0, 64, 10, 0, 0, 64, 2, 4, 0, 64})                 // wider than 2²²
	f.Add([]byte{17, 2, 0, 200, 17, 1, 1, 200, 16, 2, 0, 9, 16, 1, 1, 9}) // at, then one past, the int32 maximum
	f.Fuzz(func(t *testing.T, seq []byte) {
		hashed, err := graph.NewHashedRegular(54, 3, 0xf0e5)
		if err != nil {
			t.Fatal(err)
		}
		topos := [2]graph.Topology{primeCaterpillar(), hashed}
		var states [4]*State
		var bases [4]int
		for i := 0; i+4 <= len(seq) && i < 4*64; i += 4 {
			flags, wb, shift, share := seq[i], seq[i+1], int8(seq[i+2]), seq[i+3]
			k := int(flags & 3)
			topo, compact := topos[k>>1], k&1 == 1
			width := 1 + int(wb) + 256*int(flags>>2&1)
			if flags&8 != 0 {
				width += 1 << 22
			}
			bases[k] += int(shift)
			if flags&16 != 0 {
				bases[k] = math.MaxInt32 + int(shift) - width + 1
			}
			op := shareWindowProfile(topo.N(), width, bases[k], share, uint64(i))
			label := fmt.Sprintf("entry %d (flags %#x, window %d at %d)", i/4, flags, width, bases[k])
			fresh, want := topoState(topo, compact, op)
			if states[k] == nil {
				if want == nil {
					states[k] = fresh
				}
				continue
			}
			err := states[k].ResetTo(op)
			if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
				t.Fatalf("%s: reused ResetTo error %v, NewState error %v", label, err, want)
			}
			if err == nil {
				if d := stateDiff(states[k], fresh); d != "" {
					t.Fatalf("%s: reused State differs from NewState in %s", label, d)
				}
			}
		}
	})
}

// shareWindowProfile returns n opinions spanning exactly
// [base, base+w−1]: each vertex holds base+w/2 with probability
// share/256 and otherwise one drawn uniformly from the window.
func shareWindowProfile(n, w, base int, share uint8, seed uint64) []int {
	r := rand.New(rand.NewPCG(seed, 0xf0e6))
	op := make([]int, n)
	for v := range op {
		op[v] = base + w/2
		if r.IntN(256) >= int(share) {
			op[v] = base + r.IntN(w)
		}
	}
	op[0], op[n-1] = base, base+w-1
	return op
}

// stateDiff names the first field in which got differs from want, or
// returns "" when they are equal in every field.
func stateDiff(got, want *State) string {
	switch {
	case got.g != want.g || got.topo != want.topo:
		return "topology"
	case !slices.Equal(got.opinions, want.opinions) || !slices.Equal(got.opb, want.opb):
		return "opinion row"
	case got.base != want.base:
		return fmt.Sprintf("base %d, want %d", got.base, want.base)
	case !slices.Equal(got.counts, want.counts):
		return fmt.Sprintf("counts %v, want %v", got.counts, want.counts)
	case !slices.Equal(got.degMass, want.degMass):
		return fmt.Sprintf("degMass %v, want %v", got.degMass, want.degMass)
	case got.minIdx != want.minIdx || got.maxIdx != want.maxIdx:
		return fmt.Sprintf("minIdx/maxIdx %d/%d, want %d/%d", got.minIdx, got.maxIdx, want.minIdx, want.maxIdx)
	case got.sum != want.sum || got.degSum != want.degSum:
		return fmt.Sprintf("sum/degSum %d/%d, want %d/%d", got.sum, got.degSum, want.sum, want.degSum)
	case got.steps != want.steps || got.support != want.support || got.supVer != want.supVer:
		return fmt.Sprintf("steps/support/supVer %d/%d/%d, want %d/%d/%d",
			got.steps, got.support, got.supVer, want.steps, want.support, want.supVer)
	case got.discordFn != nil:
		return "discordance hook"
	case !reflect.DeepEqual(*got, *want):
		return "a field stateDiff does not name"
	}
	return ""
}
