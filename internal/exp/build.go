package exp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"div/internal/graph"
	"div/internal/obs"
	"div/internal/rng"
)

// The build section: construction benchmarks for the seeded graph
// builders (graph.BuildCSR and the *Seeded families) against the seed
// commit's []Edge + NewFromEdges path, which is replicated verbatim
// below — frozen, so the recorded speedup keeps meaning as the live
// builders evolve. Each point measures the frozen baseline and the
// seeded build (the speedup numerator the acceptance gate tracks,
// bracketed by an RSS sampler after releasing the heap, like the bign
// arms).

// BenchBuildPoint is one family × n construction measurement.
type BenchBuildPoint struct {
	// Family is "gnp" or "randomRegular"; Param is p or d.
	Family string  `json:"family"`
	N      int     `json:"n"`
	Param  float64 `json:"param"`
	// Edges is the seeded build's undirected edge count (the baseline's
	// differs slightly: the seed→graph mapping changed, the law did not).
	Edges int64 `json:"edges"`
	// BaselineSeconds is the frozen seed path ([]Edge append sampling +
	// per-vertex sort.Slice assembly); 0 when skipped (the map-dedup
	// random-regular baseline is prohibitive above n = 10⁶).
	BaselineSeconds float64 `json:"baseline_seconds"`
	// SerialSeconds is the seeded build; the speedup gate compares it
	// against the baseline on the same core.
	SerialSeconds     float64 `json:"serial_seconds"`
	SerialEdgesPerSec float64 `json:"serial_edges_per_sec"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline"`
	// Per-phase breakdown of the seeded build (graph.BuildStats).
	SampleNanos  int64 `json:"sample_nanos"`
	CountNanos   int64 `json:"count_nanos"`
	OffsetsNanos int64 `json:"offsets_nanos"`
	ScatterNanos int64 `json:"scatter_nanos"`
	SortNanos    int64 `json:"sort_nanos"`
	// PeakRSSBytes brackets the seeded build with the heap released
	// first and nothing else live; CSRBytes is the final artifact size.
	// Their ratio bounds the build's transient memory overhead — the
	// n = 10⁷ G(n,p) acceptance bound is ≤ 2×.
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
	CSRBytes     int64   `json:"csr_bytes"`
	RSSOverCSR   float64 `json:"rss_over_csr"`
}

// BenchBuild is the build section of BENCH_engine.json.
type BenchBuild struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	Points     []BenchBuildPoint `json:"points"`
}

// buildBaselineGnp replays the seed commit's G(n,p) path — Batagelj–
// Brandes skipping from one PCG stream appending to []Edge, then the
// original NewFromEdges assembly (count, offsets, scatter, per-vertex
// sort.Slice) — against local slices, since only the wall time is
// wanted. Do not "modernize" this: it is the frozen comparator.
func buildBaselineGnp(n int, p float64, seed uint64) int64 {
	r := rng.New(seed)
	var edges []graph.Edge
	v, w := 1, -1
	lq := logOneMinusBaseline(p)
	for v < n {
		w += 1 + baselineGeometricSkip(r, lq)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			edges = append(edges, graph.Edge{U: w, V: v})
		}
	}
	baselineAssemble(n, edges)
	return int64(len(edges))
}

// buildBaselineRegular replays the seed commit's RandomRegular path:
// configuration-model pairing with a map-keyed dedup into []Edge, then
// the sort.Slice assembly.
func buildBaselineRegular(n, d int, seed uint64) bool {
	r := rng.New(seed)
	for attempt := 0; attempt < 1000; attempt++ {
		edges, ok := baselineTryPairing(n, d, r)
		if !ok {
			continue
		}
		baselineAssemble(n, edges)
		return true
	}
	return false
}

func logOneMinusBaseline(p float64) float64 { return math.Log1p(-p) }

// baselineGeometricSkip is the seed's geometric skip (no overflow
// clamp needed at benchmark parameters).
func baselineGeometricSkip(r *rand.Rand, lq float64) int {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Log(u) / lq)
}

func baselineTryPairing(n, d int, r *rand.Rand) ([]graph.Edge, bool) {
	stubs := make([]int32, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	rng.Shuffle(r, stubs)
	adj := make(map[int64]bool, n*d/2)
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	edges := make([]graph.Edge, 0, n*d/2)
	for len(stubs) > 0 {
		u := stubs[len(stubs)-1]
		stubs = stubs[:len(stubs)-1]
		paired := false
		for try := 0; try < 4*len(stubs)+16 && len(stubs) > 0; try++ {
			j := r.IntN(len(stubs))
			v := stubs[j]
			if v == u || adj[key(u, v)] {
				continue
			}
			stubs[j] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			adj[key(u, v)] = true
			edges = append(edges, graph.Edge{U: int(u), V: int(v)})
			paired = true
			break
		}
		if !paired {
			return nil, false
		}
	}
	return edges, true
}

// baselineAssemble is the seed NewFromEdges body (validation elided:
// generated edges are valid by construction) against local slices.
func baselineAssemble(n int, edges []graph.Edge) {
	deg := make([]int64, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, 2*len(edges))
	fill := make([]int64, n)
	copy(fill, offsets[:n])
	for _, e := range edges {
		adj[fill[e.U]] = int32(e.V)
		fill[e.U]++
		adj[fill[e.V]] = int32(e.U)
		fill[e.V]++
	}
	for v := 0; v < n; v++ {
		nb := adj[offsets[v]:offsets[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		for i := 1; i < len(nb); i++ {
			if nb[i] == nb[i-1] {
				panic(fmt.Sprintf("baseline: duplicate edge (%d,%d)", v, nb[i]))
			}
		}
	}
}

// benchBuildFamily abstracts a point's two builders.
type benchBuildFamily struct {
	name     string
	param    float64
	seeded   func(n int, seed uint64, opts graph.BuildOpts) (*graph.Graph, error)
	baseline func(n int, seed uint64) // nil = skip
}

func benchBuildFamilies(n int) []benchBuildFamily {
	p := 16.0 / float64(n)
	const d = 8
	fams := []benchBuildFamily{
		{
			name:  "gnp",
			param: p,
			seeded: func(n int, seed uint64, opts graph.BuildOpts) (*graph.Graph, error) {
				return graph.GnpSeeded(n, p, seed, opts)
			},
			baseline: func(n int, seed uint64) { buildBaselineGnp(n, p, seed) },
		},
		{
			name:  "randomRegular",
			param: d,
			seeded: func(n int, seed uint64, opts graph.BuildOpts) (*graph.Graph, error) {
				return graph.RandomRegularSeeded(n, d, seed, opts)
			},
			baseline: func(n int, seed uint64) { buildBaselineRegular(n, d, seed) },
		},
	}
	// The map-dedup random-regular baseline is prohibitive above 10⁶
	// (the map alone outweighs every other structure combined).
	if n > 1_000_000 {
		fams[1].baseline = nil
	}
	return fams
}

// benchBuildPoint measures one family × n point. The gated arms
// (baseline and serial) run twice at n ≤ 10⁶ and keep the minimum —
// min-of-N is the standard shared-hardware noise filter, and the
// speedup gate rides on this ratio.
func benchBuildPoint(fam benchBuildFamily, n int, seed uint64) (BenchBuildPoint, error) {
	pt := BenchBuildPoint{Family: fam.name, N: n, Param: fam.param}
	reps := 2
	if n > 1_000_000 {
		reps = 1
	}

	if fam.baseline != nil {
		for rep := 0; rep < reps; rep++ {
			debug.FreeOSMemory()
			start := time.Now()
			fam.baseline(n, seed)
			if sec := time.Since(start).Seconds(); rep == 0 || sec < pt.BaselineSeconds {
				pt.BaselineSeconds = sec
			}
		}
	}

	// The seeded arm is the RSS bracket: heap released first, nothing
	// else live, so the peak is the build's own transient (CSR + memo +
	// cursors), not comparison bookkeeping.
	var serial *graph.Graph
	var err error
	for rep := 0; rep < reps; rep++ {
		serial = nil
		debug.FreeOSMemory()
		var stats graph.BuildStats
		tracker := obs.TrackPeakRSS(5 * time.Millisecond)
		start := time.Now()
		serial, err = fam.seeded(n, seed, graph.BuildOpts{Stats: &stats})
		sec := time.Since(start).Seconds()
		rss := tracker.Stop()
		if err != nil {
			return pt, fmt.Errorf("bench build %s n=%d serial: %w", fam.name, n, err)
		}
		if rep == 0 || sec < pt.SerialSeconds {
			pt.SerialSeconds = sec
			pt.SampleNanos = stats.SampleNanos
			pt.CountNanos = stats.CountNanos
			pt.OffsetsNanos = stats.OffsetsNanos
			pt.ScatterNanos = stats.ScatterNanos
			pt.SortNanos = stats.SortNanos
		}
		if rss > pt.PeakRSSBytes {
			pt.PeakRSSBytes = rss
		}
	}
	pt.Edges = int64(serial.M())
	pt.SerialEdgesPerSec = float64(pt.Edges) / pt.SerialSeconds
	if pt.BaselineSeconds > 0 {
		pt.SpeedupVsBaseline = pt.BaselineSeconds / pt.SerialSeconds
	}
	pt.CSRBytes = 8*int64(len(serial.Offsets())) + 4*int64(len(serial.Arcs()))
	if pt.CSRBytes > 0 {
		pt.RSSOverCSR = float64(pt.PeakRSSBytes) / float64(pt.CSRBytes)
	}
	return pt, nil
}

// BenchBuildRun measures the build section: gnp and randomRegular at
// n = 10⁵ (quick), plus 10⁶ and 10⁷ with -full. Sizes ascend so a
// point's RSS bracket cannot inherit a larger predecessor's pages.
func BenchBuildRun(p Params) (*BenchBuild, error) {
	p = p.withDefaults()
	sizes := []int{100_000}
	if !p.Quick {
		sizes = append(sizes, 1_000_000, 10_000_000)
	}
	sec := &BenchBuild{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	seed := rng.DeriveSeed(p.Seed, 0xb01d)
	for _, n := range sizes {
		for _, fam := range benchBuildFamilies(n) {
			pt, err := benchBuildPoint(fam, n, seed)
			if err != nil {
				return nil, err
			}
			sec.Points = append(sec.Points, pt)
		}
	}
	return sec, nil
}
