package graph

import (
	"bytes"
	"fmt"
	"testing"
)

func TestNewFromEdgesBasic(t *testing.T) {
	g, err := NewFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("got n=%d m=%d, want 4,4", g.N(), g.M())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewFromEdgesRejectsSelfLoop(t *testing.T) {
	if _, err := NewFromEdges(3, []Edge{{1, 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestNewFromEdgesRejectsDuplicate(t *testing.T) {
	if _, err := NewFromEdges(3, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if _, err := NewFromEdges(3, []Edge{{0, 1}, {0, 1}}); err == nil {
		t.Fatal("repeated edge accepted")
	}
}

func TestNewFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := NewFromEdges(3, []Edge{{0, 3}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := NewFromEdges(3, []Edge{{-1, 0}}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if _, err := NewFromEdges(-1, nil); err == nil {
		t.Fatal("negative vertex count accepted")
	}
}

func TestHasEdge(t *testing.T) {
	g := MustFromEdges(5, []Edge{{0, 2}, {2, 4}, {1, 3}})
	tests := []struct {
		u, v int
		want bool
	}{
		{0, 2, true}, {2, 0, true}, {2, 4, true}, {1, 3, true},
		{0, 1, false}, {3, 4, false}, {0, 0, false}, {-1, 2, false}, {0, 9, false},
	}
	for _, tc := range tests {
		if got := g.HasEdge(tc.u, tc.v); got != tc.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {1, 2}, {0, 3}, {2, 3}}
	g := MustFromEdges(4, in)
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("Edges returned %d edges, want %d", len(out), len(in))
	}
	for _, e := range out {
		if e.U >= e.V {
			t.Errorf("edge %v not normalized U<V", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v not present", e)
		}
	}
}

func TestEdgeAtAndArcTails(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	tails := g.ArcIndex()
	if len(tails) != int(g.DegreeSum()) {
		t.Fatalf("ArcIndex length %d, want %d", len(tails), g.DegreeSum())
	}
	for arc := 0; arc < len(tails); arc++ {
		tail, head := g.EdgeAt(arc)
		if int(tails[arc]) != tail {
			t.Errorf("arc %d: ArcIndex says %d, EdgeAt says %d", arc, tails[arc], tail)
		}
		if !g.HasEdge(tail, head) {
			t.Errorf("arc %d: (%d,%d) is not an edge", arc, tail, head)
		}
	}
	// Every directed arc appears exactly once.
	seen := map[[2]int]int{}
	for arc := 0; arc < len(tails); arc++ {
		tail, head := g.EdgeAt(arc)
		seen[[2]int{tail, head}]++
	}
	for k, c := range seen {
		if c != 1 {
			t.Errorf("arc %v enumerated %d times", k, c)
		}
	}
	if len(seen) != int(g.DegreeSum()) {
		t.Errorf("enumerated %d distinct arcs, want %d", len(seen), g.DegreeSum())
	}
}

func TestDegreeExtremes(t *testing.T) {
	g := Star(6)
	if g.MinDegree() != 1 || g.MaxDegree() != 5 {
		t.Errorf("star degrees min=%d max=%d, want 1,5", g.MinDegree(), g.MaxDegree())
	}
	if g.IsRegular() {
		t.Error("star reported regular")
	}
	if !Cycle(5).IsRegular() {
		t.Error("cycle reported irregular")
	}
}

// TestMinDegreeCached pins the minimum degree BuildCSR stores against a
// scan of the degrees, on every construction path: builders, the
// random-regular assembler, an isolated vertex, the empty graph, a
// WithName copy and a graph read back from an edge list, and with the
// unique minimum at the first, second and last vertex.
func TestMinDegreeCached(t *testing.T) {
	rr, err := RandomRegularSeeded(1000, 6, 3, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, Lollipop(5, 4)); err != nil {
		t.Fatal(err)
	}
	read, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*Graph{
		"star": Star(6), "lollipop": Lollipop(5, 4), "binarytree": BinaryTree(10), "rr": rr,
		"isolated": MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		"empty":    MustFromEdges(0, nil), "named": Barbell(4, 2).WithName("b"), "read": read,
	}
	// K_4 on the other vertices plus one pendant edge at p: p alone has
	// degree 1.
	for _, p := range []int{0, 1, 4} {
		var edges []Edge
		for u := 0; u < 5; u++ {
			for v := u + 1; v < 5; v++ {
				if u != p && v != p {
					edges = append(edges, Edge{U: u, V: v})
				}
			}
		}
		edges = append(edges, Edge{U: p, V: (p + 1) % 5})
		graphs[fmt.Sprintf("pendant-at-%d", p)] = MustFromEdges(5, edges)
	}
	for name, g := range graphs {
		want := 0
		for v := 0; v < g.N(); v++ {
			if d := g.Degree(v); v == 0 || d < want {
				want = d
			}
		}
		if got := g.MinDegree(); got != want {
			t.Errorf("%s: MinDegree() = %d, scan %d", name, got, want)
		}
	}
}

func TestStationary(t *testing.T) {
	g := Star(4) // centre degree 3, leaves degree 1, 2m = 6
	pi := g.Stationary()
	if pi[0] != 0.5 {
		t.Errorf("pi[centre] = %v, want 0.5", pi[0])
	}
	var sum float64
	for _, p := range pi {
		sum += p
	}
	if diff := sum - 1; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("stationary sums to %v", sum)
	}
}

func TestWithNameDoesNotMutate(t *testing.T) {
	g := Complete(4)
	h := g.WithName("other")
	if g.Name() == "other" {
		t.Error("WithName mutated receiver")
	}
	if h.Name() != "other" {
		t.Error("WithName did not set name")
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Error("WithName changed topology")
	}
}

func TestNeighborAccessor(t *testing.T) {
	g := MustFromEdges(4, []Edge{{2, 0}, {2, 3}, {2, 1}})
	// Neighbours are sorted.
	want := []int{0, 1, 3}
	for i, w := range want {
		if got := g.Neighbor(2, i); got != w {
			t.Errorf("Neighbor(2,%d) = %d, want %d", i, got, w)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 2}})
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph failed validation: %v", err)
	}
	// Corrupt a neighbour entry to break symmetry.
	g.adj[0] = 2 // vertex 0's only neighbour becomes 2, but 2 lists only 1
	if err := g.Validate(); err == nil {
		t.Error("corrupted graph passed validation")
	}
}

func arcIndexGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	rr, err := RandomRegularSeeded(14, 4, 0xa1, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{
		"path":     Path(9),
		"cycle":    Cycle(12),
		"complete": Complete(8),
		"star":     Star(11),
		"regular":  rr,
	}
}

// TestArcIndexStructure checks the arc index against the CSR layout:
// arc a of Neighbors order runs from vertex v to its neighbour, and
// Arc agrees with the index.
func TestArcIndexStructure(t *testing.T) {
	for name, g := range arcIndexGraphs(t) {
		tails, adj := g.ArcIndex(), g.Arcs()
		if len(tails) != len(adj) {
			t.Fatalf("%s: index size %d, want %d", name, len(tails), len(adj))
		}
		for v := 0; v < g.N(); v++ {
			base := g.Offsets()[v]
			for i, w := range g.Neighbors(v) {
				a := base + int64(i)
				if tails[a] != int32(v) || adj[a] != w {
					t.Fatalf("%s: arc %d is (%d→%d), want (%d→%d)", name, a, tails[a], adj[a], v, w)
				}
				if u, x := g.Arc(a); u != v || x != int(w) {
					t.Fatalf("%s: Arc(%d) = (%d→%d), want (%d→%d)", name, a, u, x, v, w)
				}
			}
		}
	}
	if (&Graph{}).ArcIndex() != nil {
		t.Error("zero Graph has a non-empty arc index")
	}
}

// TestArcIndexShared: the index is built once per graph and shared by
// WithName copies.
func TestArcIndexShared(t *testing.T) {
	g := Cycle(10)
	ix := g.ArcIndex()
	if &g.ArcIndex()[0] != &ix[0] {
		t.Error("second ArcIndex call rebuilt the index")
	}
	if &g.WithName("renamed").ArcIndex()[0] != &ix[0] {
		t.Error("WithName copy does not share the arc index")
	}
}

// TestIsComplete: the arc-count criterion 2m = n(n-1) holds exactly for
// complete graphs (a simple graph meeting it must have every degree at
// its maximum).
func TestIsComplete(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		if !Complete(n).IsComplete() {
			t.Errorf("Complete(%d).IsComplete() = false", n)
		}
	}
	for name, g := range map[string]*Graph{
		"path":  Path(5),
		"star":  Star(6),
		"cycle": Cycle(3) /* K_3 as cycle */} {
		want := name == "cycle"
		if got := g.IsComplete(); got != want {
			t.Errorf("%s.IsComplete() = %v, want %v", name, got, want)
		}
	}
}
