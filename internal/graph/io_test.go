package graph

import (
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	graphs := []*Graph{
		Complete(5),
		Path(7),
		Star(4),
		MustFromEdges(3, nil),
	}
	for _, g := range graphs {
		var b strings.Builder
		if err := WriteEdgeList(&b, g); err != nil {
			t.Fatalf("%v: write: %v", g, err)
		}
		got, err := ReadEdgeList(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%v: read: %v", g, err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Errorf("%v: round trip changed shape to n=%d m=%d", g, got.N(), got.M())
		}
		if got.Name() != g.Name() {
			t.Errorf("%v: round trip changed name to %q", g, got.Name())
		}
		for _, e := range g.Edges() {
			if !got.HasEdge(e.U, e.V) {
				t.Errorf("%v: round trip lost edge %v", g, e)
			}
		}
	}
}

func TestEdgeListRoundTripRandom(t *testing.T) {
	g, err := GnpSeeded(60, 0.1, 11, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteEdgeList(&b, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != g.M() {
		t.Fatalf("edge count changed: %d -> %d", g.M(), got.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"missing edges", "3 2\n0 1\n"},
		{"extra edges", "3 1\n0 1\n1 2\n"},
		{"three fields", "2 1\n0 1 9\n"},
		{"self loop", "2 1\n1 1\n"},
		{"out of range", "2 1\n0 5\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.input)); err == nil {
				t.Errorf("input %q accepted", tc.input)
			}
		})
	}
}

func TestReadEdgeListSkipsCommentsAndBlanks(t *testing.T) {
	input := "# a comment\n\n# name test\n3 2\n\n0 1\n# mid comment\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 || g.Name() != "test" {
		t.Errorf("parsed n=%d m=%d name=%q", g.N(), g.M(), g.Name())
	}
}
