package graph

import (
	"math"
	"testing"
)

func TestGnpEdgeCount(t *testing.T) {
	const n, p = 400, 0.05
	g, err := GnpSeeded(n, p, 1, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mean := p * float64(n) * float64(n-1) / 2
	sd := math.Sqrt(mean * (1 - p))
	if d := math.Abs(float64(g.M()) - mean); d > 6*sd {
		t.Errorf("G(%d,%g) has %d edges, want %.0f ± %.0f", n, p, g.M(), mean, 6*sd)
	}
}

func TestGnpEdgeProbabilityPerPair(t *testing.T) {
	// Each fixed pair should appear with probability ≈ p across seeds.
	const n, p, samples = 12, 0.3, 4000
	count := 0
	for i := 0; i < samples; i++ {
		g, err := GnpSeeded(n, p, uint64(i), BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if g.HasEdge(3, 7) {
			count++
		}
	}
	z := (float64(count) - p*samples) / math.Sqrt(samples*p*(1-p))
	if math.Abs(z) > 5 {
		t.Errorf("pair (3,7) present in %d/%d samples (z=%.1f)", count, samples, z)
	}
}

func TestGnpExtremes(t *testing.T) {
	g0, err := GnpSeeded(10, 0, 3, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if g0.M() != 0 {
		t.Errorf("G(10,0) has %d edges", g0.M())
	}
	g1, err := GnpSeeded(10, 1, 3, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if g1.M() != 45 {
		t.Errorf("G(10,1) has %d edges, want 45", g1.M())
	}
	if _, err := GnpSeeded(10, 1.5, 3, BuildOpts{}); err == nil {
		t.Error("Gnp accepted p > 1")
	}
	if _, err := GnpSeeded(10, -0.1, 3, BuildOpts{}); err == nil {
		t.Error("Gnp accepted p < 0")
	}
}

func TestRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{10, 3}, {50, 4}, {100, 7}, {64, 16}, {8, 2}} {
		g, err := RandomRegularSeeded(tc.n, tc.d, 4, BuildOpts{})
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("RandomRegular(%d,%d) invalid: %v", tc.n, tc.d, err)
		}
		for v := 0; v < tc.n; v++ {
			if g.Degree(v) != tc.d {
				t.Fatalf("RandomRegular(%d,%d) degree(%d)=%d", tc.n, tc.d, v, g.Degree(v))
			}
		}
	}
}

func TestRandomRegularErrors(t *testing.T) {
	if _, err := RandomRegularSeeded(5, 3, 5, BuildOpts{}); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := RandomRegularSeeded(4, 4, 5, BuildOpts{}); err == nil {
		t.Error("d >= n accepted")
	}
	if _, err := RandomRegularSeeded(4, -1, 5, BuildOpts{}); err == nil {
		t.Error("negative d accepted")
	}
	g, err := RandomRegularSeeded(5, 0, 5, BuildOpts{})
	if err != nil || g.M() != 0 {
		t.Errorf("RandomRegular(5,0) = %v, %v", g, err)
	}
}

func TestRandomRegularConnectedWhp(t *testing.T) {
	// Random 3-regular graphs are connected w.h.p.; at n=100 a
	// disconnected sample over 20 draws would be extraordinary.
	connected := 0
	for i := 0; i < 20; i++ {
		g, err := RandomRegularSeeded(100, 3, uint64(6+i), BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if IsConnected(g) {
			connected++
		}
	}
	if connected < 18 {
		t.Errorf("only %d/20 random 3-regular graphs connected", connected)
	}
}

func TestWattsStrogatz(t *testing.T) {
	g, err := WattsStrogatzSeeded(200, 6, 0.1, 7, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 600 {
		t.Errorf("WS(200,6) has %d edges, want 600", g.M())
	}
	// beta = 0 is the pure ring lattice.
	ring, err := WattsStrogatzSeeded(50, 4, 0, 7, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !ring.IsRegular() || ring.Degree(0) != 4 {
		t.Error("WS(beta=0) is not the 4-regular ring lattice")
	}
	if !g.IsRegular() {
		// With rewiring, degrees deviate — only the far endpoint moves.
		t.Log("rewired WS irregular as expected")
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	if _, err := WattsStrogatzSeeded(10, 3, 0.1, 8, BuildOpts{}); err == nil {
		t.Error("odd d accepted")
	}
	if _, err := WattsStrogatzSeeded(10, 4, 1.5, 8, BuildOpts{}); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbertSeeded(300, 3, 9, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Error("BA graph disconnected")
	}
	// m0 clique edges + m per subsequent vertex.
	wantM := 3*4/2 + (300-4)*3
	if g.M() != wantM {
		t.Errorf("BA(300,3) has %d edges, want %d", g.M(), wantM)
	}
	// Preferential attachment produces a hub: max degree far above m.
	if g.MaxDegree() < 10 {
		t.Errorf("BA max degree %d suspiciously small", g.MaxDegree())
	}
	if _, err := BarabasiAlbertSeeded(3, 5, 9, BuildOpts{}); err == nil {
		t.Error("BA with m >= n accepted")
	}
}

func TestConnectedGnp(t *testing.T) {
	g, err := ConnectedGnpSeeded(100, 0.08, 10, 50, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Error("ConnectedGnp returned disconnected graph")
	}
	// Hopeless density must error out rather than loop forever.
	if _, err := ConnectedGnpSeeded(100, 0.001, 10, 3, BuildOpts{}); err == nil {
		t.Error("ConnectedGnp at hopeless density succeeded")
	}
}

func TestRandomBuildersDeterministic(t *testing.T) {
	g1, err := RandomRegularSeeded(60, 4, 42, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RandomRegularSeeded(60, 4, 42, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("same-seed graphs differ in size")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("same-seed graphs differ at edge %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}
