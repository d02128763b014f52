package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p           float64
		want        float64
		beyondCount int
	}{
		{50, 50, 50},
		{90, 90, 10},
		{99, 99, 1},
		{99.9, 100, 0},
		{100, 100, 0},
	} {
		v, beyond := nearestRank(s, c.p)
		if v != c.want || beyond != c.beyondCount {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.beyondCount)
		}
	}
}

func TestRateAtNominal(t *testing.T) {
	u := unitStat{trials: 8, steps: 4000, cpu: 200 * time.Millisecond, gauge: gaugeNominal}
	if got := rateAtNominal(float64(u.trials), u); math.Abs(got-40) > 1e-9 {
		t.Errorf("at the nominal gauge: %v trials/s, want 40", got)
	}
	// A host that runs the gauge 1.5× slower ran the unit slower too:
	// the scaled rate is 1.5× the raw one.
	u.gauge = gaugeNominal * 3 / 2
	if got := rateAtNominal(float64(u.steps), u); math.Abs(got-30000) > 1e-6 {
		t.Errorf("at 1.5× the nominal gauge: %v steps/s, want 30000", got)
	}
	u.cpu = 0
	if got := rateAtNominal(1, u); got != 0 {
		t.Errorf("no CPU time: %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{5, 50, 3},          // too few for any rung: the median
		{19, 50, 10},        // p50 has 9 beyond: still the median fallback
		{20, 50, 10},        // p50 has exactly 10 beyond
		{99, 50, 50},        // p90 has 9 beyond
		{100, 90, 90},       // p90 has exactly 10 beyond
		{1000, 99, 990},     // p99 has 10 beyond
		{10000, 99.9, 9990}, // p99.9 has 10 beyond
	} {
		pct, v := tailPercentile(series(c.n))
		if pct != c.wantPct || v != c.wantVal {
			t.Errorf("n=%d: tail p%v = %v, want p%v = %v", c.n, pct, v, c.wantPct, c.wantVal)
		}
	}
	if pct, v := tailPercentile(nil); pct != 50 || v != 0 {
		t.Errorf("empty: p%v = %v, want p50 = 0", pct, v)
	}
}

func TestFailedFrac(t *testing.T) {
	if got := failedFrac(0, 0); got != 0 {
		t.Errorf("failedFrac(0,0) = %v, want 0", got)
	}
	if got := failedFrac(8, 2); got != 0.25 {
		t.Errorf("failedFrac(8,2) = %v, want 0.25", got)
	}
	var tl tally
	tl.trial(nil)
	tl.trial(errTest)
	tl.lost(6, errTest) // a block of six trials lost to one error
	if tl.attempted != 8 || tl.failed != 7 {
		t.Fatalf("tally attempted=%d failed=%d, want 8 and 7", tl.attempted, tl.failed)
	}
	if got := failedFrac(tl.attempted, tl.failed); got != 7.0/8 {
		t.Errorf("failed_frac = %v, want 7/8", got)
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := covered(ivs, 0, 100); got != 35 {
		t.Errorf("union = %d, want 35", got)
	}
	if got := covered(ivs, 8, 25); got != 12 {
		t.Errorf("clipped union = %d, want 12", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Errorf("empty union = %d", got)
	}
}

func TestBinomialUpper(t *testing.T) {
	// With p = 0 nothing may exceed zero.
	if got := binomialUpper(100, 0, 1e-6); got != 0 {
		t.Errorf("p=0 bound = %d", got)
	}
	// n=10, p=1/2: P[X > 9] = 2^-10 ≈ 9.8e-4 ≤ 1e-3 < P[X > 8].
	if got := binomialUpper(10, 0.5, 1e-3); got != 9 {
		t.Errorf("n=10 p=0.5 alpha=1e-3 bound = %d, want 9", got)
	}
	// The bound is the smallest m whose upper tail is ≤ alpha.
	n, p, alpha := 200, 6.4e-5, 1e-6
	m := binomialUpper(n, p, alpha)
	tail := func(m int) float64 {
		var s float64
		for k := m + 1; k <= n; k++ {
			lg, _ := math.Lgamma(float64(n + 1))
			la, _ := math.Lgamma(float64(k + 1))
			lb, _ := math.Lgamma(float64(n - k + 1))
			s += math.Exp(lg - la - lb + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
		}
		return s
	}
	if tail(m) > alpha || (m > 0 && tail(m-1) <= alpha) {
		t.Errorf("bound %d: P[X>m] = %g, P[X>m-1] = %g around alpha %g", m, tail(m), tail(m-1), alpha)
	}
}
