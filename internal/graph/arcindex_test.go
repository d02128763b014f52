package graph

import (
	"testing"

	"div/internal/rng"
)

func arcIndexGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	rr, err := RandomRegular(14, 4, rng.New(0xa1))
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

// TestArcIndexStructure checks tails and rev against the CSR layout:
// tails follow the offset table, rev is an involution that swaps tail
// and head, and FirstArc agrees with Neighbors order.
func TestArcIndexStructure(t *testing.T) {
	for name, g := range arcIndexGraphs(t) {
		ix := g.ArcIndex()
		tails, rev, adj := ix.Tails(), ix.Rev(), g.Arcs()
		if len(tails) != len(adj) || len(rev) != len(adj) {
			t.Fatalf("%s: index sizes tails=%d rev=%d, want %d", name, len(tails), len(rev), len(adj))
		}
		for v := 0; v < g.N(); v++ {
			base := ix.FirstArc(v)
			nb := g.Neighbors(v)
			for i, w := range nb {
				a := base + int64(i)
				if tails[a] != int32(v) || adj[a] != w {
					t.Fatalf("%s: arc %d is (%d→%d), want (%d→%d)", name, a, tails[a], adj[a], v, w)
				}
			}
		}
		for a := range adj {
			r := rev[a]
			if rev[r] != int32(a) {
				t.Fatalf("%s: rev not an involution at arc %d", name, a)
			}
			if tails[r] != adj[a] || adj[r] != tails[a] {
				t.Fatalf("%s: rev[%d]=%d is (%d→%d), want (%d→%d)",
					name, a, r, tails[r], adj[r], adj[a], tails[a])
			}
		}
	}
}

// TestArcIndexShared: the index is built once per graph and shared by
// WithName copies, and ArcTails is a read-only view of its storage.
func TestArcIndexShared(t *testing.T) {
	g := Cycle(10)
	ix := g.ArcIndex()
	if g.ArcIndex() != ix {
		t.Error("second ArcIndex call rebuilt the index")
	}
	if g.WithName("renamed").ArcIndex() != ix {
		t.Error("WithName copy does not share the arc index")
	}
	tails := g.ArcTails()
	if &tails[0] != &ix.Tails()[0] {
		t.Error("ArcTails does not alias the shared index storage")
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

// TestArcIndexRowBuildMatchesSerial pins the striped rev build
// (binary-search pairing, used above arcIndexParallelMinArcs on
// multicore hosts) to the serial cursor pass, across families and row
// partitions — including partitions that split a vertex's arcs from
// its reverse partners'.
func TestArcIndexRowBuildMatchesSerial(t *testing.T) {
	gs := arcIndexGraphs(t)
	gnp, err := GnpSeeded(300, 0.05, 9, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	gs["gnp"] = gnp
	for name, g := range gs {
		want := g.ArcIndex()
		for _, grain := range []int{1, 3, 1 << 20} {
			got := &ArcIndex{g: g, tails: make([]int32, len(g.adj)), rev: make([]int32, len(g.adj))}
			for lo := 0; lo < g.N(); lo += grain {
				hi := lo + grain
				if hi > g.N() {
					hi = g.N()
				}
				buildArcIndexRows(g, got, lo, hi)
			}
			for a := range want.rev {
				if got.rev[a] != want.rev[a] || got.tails[a] != want.tails[a] {
					t.Fatalf("%s grain=%d: arc %d rev/tails (%d,%d) want (%d,%d)",
						name, grain, a, got.rev[a], got.tails[a], want.rev[a], want.tails[a])
				}
			}
		}
	}
}
