package graph

import (
	"fmt"
	"sort"
	"testing"
)

// implicitCase pairs an implicit topology with its materializing
// builder so the twin tests can compare them edge for edge.
type implicitCase struct {
	topo Topology
	twin *Graph
}

func implicitCases(t testing.TB) []implicitCase {
	t.Helper()
	mk := func(topo Topology, err error, twin *Graph) implicitCase {
		t.Helper()
		if err != nil {
			t.Fatalf("constructing implicit topology: %v", err)
		}
		return implicitCase{topo: topo, twin: twin.WithName(topo.Name())}
	}
	var cases []implicitCase
	for _, n := range []int{2, 3, 5, 16} {
		c, err := NewImplicitComplete(n)
		cases = append(cases, mk(c, err, Complete(n)))
	}
	for _, n := range []int{3, 4, 7, 24} {
		c, err := NewImplicitCycle(n)
		cases = append(cases, mk(c, err, Cycle(n)))
	}
	for _, n := range []int{2, 3, 8, 25} {
		c, err := NewImplicitPath(n)
		cases = append(cases, mk(c, err, Path(n)))
	}
	for _, rc := range [][2]int{{3, 3}, {3, 5}, {4, 4}, {6, 8}} {
		c, err := NewImplicitTorus(rc[0], rc[1])
		cases = append(cases, mk(c, err, Torus(rc[0], rc[1])))
	}
	for _, d := range []int{1, 2, 3, 5} {
		c, err := NewImplicitHypercube(d)
		cases = append(cases, mk(c, err, Hypercube(d)))
	}
	for _, sc := range []struct {
		n       int
		strides []int
	}{
		{7, []int{1}},
		{12, []int{1, 3}},
		{30, []int{2, 5, 7}},
		{48, []int{1, 2, 3, 4}},
	} {
		c, err := NewImplicitCirculant(sc.n, sc.strides)
		cases = append(cases, mk(c, err, Circulant(sc.n, sc.strides)))
	}
	return cases
}

// checkTopologyTwin asserts the full Topology contract of topo against
// a materialized CSR twin: vertex count, per-vertex degree, sorted
// neighbour enumeration entry for entry, aggregate degree statistics
// (handshake sum), and — when both sides expose the arc hook — the
// vertex-major arc map.
func checkTopologyTwin(t *testing.T, topo Topology, twin *Graph) {
	t.Helper()
	if topo.N() != twin.N() {
		t.Fatalf("N: implicit %d, twin %d", topo.N(), twin.N())
	}
	if topo.DegreeSum() != twin.DegreeSum() {
		t.Errorf("DegreeSum: implicit %d, twin %d", topo.DegreeSum(), twin.DegreeSum())
	}
	if topo.MinDegree() != twin.MinDegree() {
		t.Errorf("MinDegree: implicit %d, twin %d", topo.MinDegree(), twin.MinDegree())
	}
	n := topo.N()
	var handshake int64
	for v := 0; v < n; v++ {
		d := topo.Degree(v)
		if d != twin.Degree(v) {
			t.Fatalf("Degree(%d): implicit %d, twin %d", v, d, twin.Degree(v))
		}
		handshake += int64(d)
		for i := 0; i < d; i++ {
			if got, want := topo.Neighbor(v, i), twin.Neighbor(v, i); got != want {
				t.Fatalf("Neighbor(%d, %d): implicit %d, twin %d", v, i, got, want)
			}
		}
	}
	if handshake != topo.DegreeSum() {
		t.Errorf("handshake sum %d != DegreeSum %d", handshake, topo.DegreeSum())
	}
	if handshake%2 != 0 {
		t.Errorf("handshake sum %d is odd", handshake)
	}
	at, ok := topo.(ArcTopology)
	if !ok {
		return
	}
	for a := int64(0); a < topo.DegreeSum(); a++ {
		v, w := at.Arc(a)
		tv, tw := twin.Arc(a)
		if v != tv || w != tw {
			t.Fatalf("Arc(%d): implicit (%d,%d), twin (%d,%d)", a, v, w, tv, tw)
		}
	}
}

func TestImplicitTopologyTwins(t *testing.T) {
	for _, tc := range implicitCases(t) {
		tc := tc
		t.Run(tc.topo.Name(), func(t *testing.T) {
			checkTopologyTwin(t, tc.topo, tc.twin)
			if tc.topo.Name() != tc.twin.Name() {
				t.Errorf("name mismatch: implicit %q, twin %q", tc.topo.Name(), tc.twin.Name())
			}
		})
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	for _, tc := range implicitCases(t) {
		tc := tc
		t.Run(tc.topo.Name(), func(t *testing.T) {
			g, err := Materialize(tc.topo)
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			if g.N() != tc.twin.N() || g.M() != tc.twin.M() {
				t.Fatalf("materialized n=%d m=%d, twin n=%d m=%d", g.N(), g.M(), tc.twin.N(), tc.twin.M())
			}
			for v := 0; v < g.N(); v++ {
				a := g.Neighbors(v)
				b := tc.twin.Neighbors(v)
				if len(a) != len(b) {
					t.Fatalf("vertex %d: %d vs %d neighbours", v, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("vertex %d neighbour %d: %d vs %d", v, i, a[i], b[i])
					}
				}
			}
		})
	}
	// A *Graph materializes to itself, not a copy.
	g := Torus(3, 4)
	if got, err := Materialize(g); err != nil || got != g {
		t.Fatalf("Materialize(*Graph) = (%p, %v), want identity %p", got, err, g)
	}
}

func TestImplicitConstructorValidation(t *testing.T) {
	bad := []struct {
		name string
		err  error
	}{
		{"complete n=1", errOf(NewImplicitComplete(1))},
		{"cycle n=2", errOf(NewImplicitCycle(2))},
		{"path n=1", errOf(NewImplicitPath(1))},
		{"torus 2x5", errOf(NewImplicitTorus(2, 5))},
		{"hypercube d=0", errOf(NewImplicitHypercube(0))},
		{"hypercube d=26", errOf(NewImplicitHypercube(26))},
		{"circulant no strides", errOf(NewImplicitCirculant(8, nil))},
		{"circulant antipodal", errOf(NewImplicitCirculant(8, []int{4}))},
		{"circulant duplicate", errOf(NewImplicitCirculant(9, []int{2, 2}))},
		{"circulant stride 0", errOf(NewImplicitCirculant(9, []int{0}))},
		{"hashedregular odd n", errOf(NewHashedRegular(7, 3, 1))},
		{"hashedregular n=2", errOf(NewHashedRegular(2, 1, 1))},
		{"hashedregular d=0", errOf(NewHashedRegular(8, 0, 1))},
		{"hashedregular d=n", errOf(NewHashedRegular(8, 8, 1))},
	}
	for _, tc := range bad {
		if tc.err == nil {
			t.Errorf("%s: expected constructor error", tc.name)
		}
	}
}

func errOf[T any](_ T, err error) error { return err }

// TestHashedRegular checks the structural properties the matching
// construction guarantees: every matching is a fixed-point-free
// involution (so the multigraph is symmetric and exactly d-regular),
// and the construction is deterministic in (n, d, seed).
func TestHashedRegular(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		seed uint64
	}{
		{4, 1, 1}, {10, 3, 7}, {64, 4, 42}, {100, 6, 3}, {254, 5, 99},
	} {
		name := fmt.Sprintf("n=%d,d=%d,seed=%d", tc.n, tc.d, tc.seed)
		t.Run(name, func(t *testing.T) {
			h, err := NewHashedRegular(tc.n, tc.d, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			if h.N() != tc.n || h.MinDegree() != tc.d || h.DegreeSum() != int64(tc.n)*int64(tc.d) {
				t.Fatalf("aggregate mismatch: N=%d MinDegree=%d DegreeSum=%d", h.N(), h.MinDegree(), h.DegreeSum())
			}
			for v := 0; v < tc.n; v++ {
				for i := 0; i < tc.d; i++ {
					w := h.Neighbor(v, i)
					if w < 0 || w >= tc.n {
						t.Fatalf("Neighbor(%d,%d) = %d out of range", v, i, w)
					}
					if w == v {
						t.Fatalf("matching %d has fixed point %d", i, v)
					}
					if back := h.Neighbor(w, i); back != v {
						t.Fatalf("matching %d not an involution: %d -> %d -> %d", i, v, w, back)
					}
				}
			}
			// Arc map is consistent with Neighbor.
			for a := int64(0); a < h.DegreeSum(); a++ {
				v, w := h.Arc(a)
				if want := h.Neighbor(v, int(a%int64(tc.d))); w != want {
					t.Fatalf("Arc(%d) head %d, want %d", a, w, want)
				}
			}
			// Determinism: a second instance with the same key agrees.
			h2, _ := NewHashedRegular(tc.n, tc.d, tc.seed)
			hOther, _ := NewHashedRegular(tc.n, tc.d, tc.seed+1)
			same, diff := true, false
			for v := 0; v < tc.n; v++ {
				for i := 0; i < tc.d; i++ {
					if h.Neighbor(v, i) != h2.Neighbor(v, i) {
						same = false
					}
					if h.Neighbor(v, i) != hOther.Neighbor(v, i) {
						diff = true
					}
				}
			}
			if !same {
				t.Error("same (n,d,seed) produced different matchings")
			}
			if !diff && tc.n > 4 {
				t.Error("different seeds produced identical matchings")
			}
		})
	}
}

func TestCSRMemEstimate(t *testing.T) {
	for _, tc := range implicitCases(t) {
		adj, arc := CSRMemEstimate(tc.topo.N(), tc.topo.DegreeSum())
		if adj <= 0 || arc <= 0 {
			t.Fatalf("%s: non-positive estimate adj=%d arc=%d", tc.topo.Name(), adj, arc)
		}
		// The estimate prices exactly the twin's CSR arrays and its
		// ArcIndex (tails + rev).
		actual := 8*int64(tc.twin.N()+1) + 4*int64(len(tc.twin.Arcs()))
		if adj != actual {
			t.Errorf("%s: adjacency estimate %d != actual CSR bytes %d", tc.topo.Name(), adj, actual)
		}
		ix := tc.twin.ArcIndex()
		if want := 4*int64(len(ix.Tails())) + 4*int64(len(ix.Rev())); arc != want {
			t.Errorf("%s: arc-index estimate %d != actual index bytes %d", tc.topo.Name(), arc, want)
		}
	}
}

// FuzzTopologyTwin drives randomized family parameters through the full
// twin contract.
func FuzzTopologyTwin(f *testing.F) {
	f.Add(uint8(0), uint8(12), uint8(3))
	f.Add(uint8(1), uint8(9), uint8(0))
	f.Add(uint8(2), uint8(17), uint8(0))
	f.Add(uint8(3), uint8(4), uint8(5))
	f.Add(uint8(4), uint8(4), uint8(0))
	f.Add(uint8(5), uint8(20), uint8(7))
	f.Fuzz(func(t *testing.T, fam, p1, p2 uint8) {
		var topo Topology
		var twin *Graph
		switch fam % 6 {
		case 0:
			n := 2 + int(p1)%30
			c, err := NewImplicitComplete(n)
			if err != nil {
				t.Fatal(err)
			}
			topo, twin = c, Complete(n)
		case 1:
			n := 3 + int(p1)%30
			c, err := NewImplicitCycle(n)
			if err != nil {
				t.Fatal(err)
			}
			topo, twin = c, Cycle(n)
		case 2:
			n := 2 + int(p1)%30
			c, err := NewImplicitPath(n)
			if err != nil {
				t.Fatal(err)
			}
			topo, twin = c, Path(n)
		case 3:
			r, c := 3+int(p1)%6, 3+int(p2)%6
			tt, err := NewImplicitTorus(r, c)
			if err != nil {
				t.Fatal(err)
			}
			topo, twin = tt, Torus(r, c)
		case 4:
			d := 1 + int(p1)%6
			c, err := NewImplicitHypercube(d)
			if err != nil {
				t.Fatal(err)
			}
			topo, twin = c, Hypercube(d)
		case 5:
			n := 7 + int(p1)%40
			smax := (n - 1) / 2
			seen := map[int]bool{}
			var strides []int
			for _, s := range []int{1 + int(p2)%smax, 1 + int(p1/3)%smax, 1 + int(p2/5)%smax} {
				if !seen[s] {
					seen[s] = true
					strides = append(strides, s)
				}
			}
			sort.Ints(strides)
			c, err := NewImplicitCirculant(n, strides)
			if err != nil {
				t.Fatal(err)
			}
			topo, twin = c, Circulant(n, strides)
		}
		checkTopologyTwin(t, topo, twin.WithName(topo.Name()))
	})
}
