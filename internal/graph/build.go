package graph

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"div/internal/obs"
	"div/internal/sched"
)

// This file is the direct-to-CSR assembler: graphs are built straight
// into their final offsets/adj slabs with no intermediate []Edge, in
// four phases —
//
//	count    enumerate every edge once, accumulating degrees
//	offsets  exclusive prefix sum of the degrees
//	scatter  enumerate the same edges again, writing both arc cells
//	sort     per-vertex neighbour sort + duplicate detection
//
// Each phase runs striped over row ranges on the work-stealing pool
// (sched.Distribute), with the calling goroutine participating, so a
// cold graph-cache build saturates the pool instead of serializing on
// one goroutine. The count and scatter passes replay the same
// enumeration, which is what lets a generated family (G(n,p)) avoid
// ever materializing 16 bytes/edge of edge list — peak memory is the
// final CSR plus one int64 cursor per vertex, plus whatever the source
// keeps to make its replay cheap (gnpSource memoizes 4 bytes/edge
// between the passes rather than re-running the skip chain).
//
// Determinism: an EdgeSource's emissions are a pure function of the
// row range, and the scatter pass's nondeterministic within-row arc
// order is canonicalized by the sort phase, so the built graph is
// byte-identical at every worker count and every stripe size. Errors
// are selected by row order (smallest stripe index, first error
// within it), never by which worker tripped first.
//
// Telemetry on obs.Default:
//
//	span_graph_build_sample_nanos   a builder's serial sampling phase
//	                                (pairing, attachment, rewiring);
//	                                G(n,p) samples inside the count pass
//	span_graph_build_count_nanos    count pass wall time
//	span_graph_build_offsets_nanos  prefix-sum wall time
//	span_graph_build_scatter_nanos  scatter pass wall time
//	span_graph_build_sort_nanos     sort + dup-check wall time
//	graph_build_workers             worker hint of the latest build
//	graph_build_stripes_total       row stripes processed across passes

var (
	buildSampleTimer  = obs.Default.Timer("graph_build_sample")
	buildCountTimer   = obs.Default.Timer("graph_build_count")
	buildOffsetsTimer = obs.Default.Timer("graph_build_offsets")
	buildScatterTimer = obs.Default.Timer("graph_build_scatter")
	buildSortTimer    = obs.Default.Timer("graph_build_sort")
	buildWorkersGauge = obs.Default.Gauge("graph_build_workers")
	buildStripesTotal = obs.Default.Counter("graph_build_stripes_total")
)

// EdgeSource enumerates the undirected edges of a graph, partitioned
// into rows. EmitRows must call emit(v, w) exactly once per edge {v,w}
// owned by a row in [lo, hi), with both endpoints already validated
// (in range, no self-loop) — emit goes straight into degree counters
// and arc slabs with no bounds checks of its own. The enumeration must
// be a pure function of the row range: BuildCSR calls EmitRows twice
// per range (count, then scatter), possibly from different goroutines
// per call, and disjoint ranges concurrently.
type EdgeSource interface {
	// Rows returns the number of rows the edge set is partitioned into
	// (the vertex count for generated families, the edge count for an
	// edge list).
	Rows() int
	// EmitRows emits every edge owned by rows [lo, hi). A non-nil error
	// aborts the build; the error from the earliest row range wins.
	EmitRows(lo, hi int, emit func(v, w int32)) error
}

// BuildStats reports per-phase wall time for one build. Nanos fields
// accumulate, so one BuildStats can total several builds (retries in
// ConnectedGnp, attempts in RandomRegular).
type BuildStats struct {
	// SampleNanos covers a builder's serial sampling work outside the
	// assembler: configuration-model pairing, preferential attachment,
	// Watts–Strogatz rewiring. Zero for G(n,p), whose sampling runs
	// inside the count pass (the scatter pass replays a memo).
	SampleNanos  int64
	CountNanos   int64
	OffsetsNanos int64
	ScatterNanos int64
	SortNanos    int64
	// Workers is the normalized worker hint of the last build; Stripes
	// counts row stripes processed across all passes.
	Workers int
	Stripes int64
}

// TotalNanos returns the summed wall time of all phases.
func (s *BuildStats) TotalNanos() int64 {
	return s.SampleNanos + s.CountNanos + s.OffsetsNanos + s.ScatterNanos + s.SortNanos
}

// BuildOpts tunes the assembler. The zero value builds serially on the
// calling goroutine, which is also the NewFromEdges configuration.
type BuildOpts struct {
	// Workers is the parallelism hint: > 1 runs the build's phases
	// striped over sched.Shared(Workers) (the calling goroutine
	// participates). ≤ 1 builds serially. The built graph is identical
	// either way.
	Workers int
	// Grain overrides the rows-per-stripe granularity (0 = automatic).
	// Like Workers it never affects the built graph, only scheduling.
	Grain int
	// Pool overrides the pool used when Workers > 1 (nil = shared).
	Pool *sched.Pool
	// Stats, when non-nil, accumulates per-phase timings.
	Stats *BuildStats
}

func (o BuildOpts) pool() *sched.Pool {
	if o.Workers <= 1 {
		return nil
	}
	if o.Pool != nil {
		return o.Pool
	}
	return sched.Shared(o.Workers)
}

func (o BuildOpts) workers() int {
	if o.Workers <= 1 {
		return 1
	}
	return o.Workers
}

// grainFor resolves the stripe granularity for a row count. It is a
// pure function of (rows, o.Grain) — never of Workers — so stripe
// boundaries, and with them error selection, are identical at every
// width.
func (o BuildOpts) grainFor(rows int) int {
	if o.Grain > 0 {
		return o.Grain
	}
	g := rows / 256
	if g < 2048 {
		g = 2048
	}
	return g
}

// observeSample records a builder's serial sampling phase.
func (o BuildOpts) observeSample(d time.Duration) {
	buildSampleTimer.Observe(d)
	if o.Stats != nil {
		o.Stats.SampleNanos += d.Nanoseconds()
	}
}

// EdgeList returns the EdgeSource view of an explicit edge list: row i
// owns edges[i], validated against vertex count n on emission with
// NewFromEdges's error reporting.
func EdgeList(n int, edges []Edge) EdgeSource {
	return edgeListSource{n: n, edges: edges}
}

type edgeListSource struct {
	n     int
	edges []Edge
}

func (s edgeListSource) Rows() int { return len(s.edges) }

func (s edgeListSource) EmitRows(lo, hi int, emit func(v, w int32)) error {
	for i := lo; i < hi; i++ {
		e := s.edges[i]
		if e.U < 0 || e.U >= s.n || e.V < 0 || e.V >= s.n {
			return fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, s.n)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop at %d", i, e.U)
		}
		emit(int32(e.U), int32(e.V))
	}
	return nil
}

// serialRowsSource is an optional EdgeSource fast path taken only by
// the serial (pool-less) build: the source runs the count and scatter
// inner loops natively over its rows, eliminating the per-edge closure
// dispatch that a func(v, w) emit costs twice per edge. Parallel
// builds always go through EmitRows (their accumulation is atomic);
// the built graph is identical either way, which
// TestBuildIdentityAcrossWorkersAndStripes pins.
type serialRowsSource interface {
	// CountRowsSerial must increment counts[v+1] and counts[w+1] once
	// per owned edge {v, w} of rows [lo, hi) — the same +1 convention
	// as the count pass's in-place prefix sum. Counters are int32 (a
	// simple graph's degree is below the int32 vertex bound) so the
	// pass's random-access working set is half the offsets array's.
	CountRowsSerial(lo, hi int, counts []int32) error
	// ScatterRowsSerial must, for each owned edge {v, w} of rows
	// [lo, hi), write both arc cells through the fill cursors:
	// adj[fill[v]] = w, adj[fill[w]] = v, post-incrementing each cursor.
	// The count pass vetted the rows, so this pass cannot fail.
	ScatterRowsSerial(lo, hi int, fill []int64, adj []int32)
	// SortedRowsSerial reports whether the serial scatter leaves every
	// adjacency already sorted ascending — true when rows emit their
	// neighbour draws in ascending order and every edge is owned by its
	// larger endpoint (then vertex x receives its smaller neighbours,
	// ascending, from its own row before rows x+1, x+2, … append
	// theirs). When true the sort phase degrades to a strict-ascending
	// verify that doubles as the duplicate check.
	SortedRowsSerial() bool
}

// stripedErrs collects one error per stripe; First returns the error
// of the earliest stripe, which is deterministic regardless of which
// worker processed what.
type stripedErrs struct {
	errs []error
}

func newStripedErrs(rows, grain int) *stripedErrs {
	if rows <= 0 {
		return &stripedErrs{}
	}
	return &stripedErrs{errs: make([]error, (rows+grain-1)/grain)}
}

func (se *stripedErrs) set(lo, grain int, err error) { se.errs[lo/grain] = err }

func (se *stripedErrs) first() error {
	for _, err := range se.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runStripes executes fn over row stripes of the given grain, on the
// pool when non-nil (caller participating) or inline otherwise, and
// returns the wall time. Stripe boundaries depend only on (rows,
// grain).
func runStripes(p *sched.Pool, rows, grain int, stats *BuildStats, fn func(lo, hi int)) time.Duration {
	start := time.Now()
	stripes := 0
	if rows > 0 {
		stripes = (rows + grain - 1) / grain
	}
	if p == nil {
		for lo := 0; lo < rows; lo += grain {
			hi := lo + grain
			if hi > rows {
				hi = rows
			}
			fn(lo, hi)
		}
	} else {
		sched.Distribute(p, rows, grain, sched.Tag{Exp: "graph_build"}, fn)
	}
	buildStripesTotal.Add(int64(stripes))
	if stats != nil {
		stats.Stripes += int64(stripes)
	}
	return time.Since(start)
}

// BuildCSR assembles a Graph with n vertices directly into CSR form
// from the edges src enumerates. The result carries no name; builders
// label it with WithName. See the file comment for the phase plan and
// the determinism argument.
func BuildCSR(n int, src EdgeSource, opts BuildOpts) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	p := opts.pool()
	stats := opts.Stats
	if stats != nil {
		stats.Workers = opts.workers()
	}
	buildWorkersGauge.Set(int64(opts.workers()))

	rows := src.Rows()
	rowGrain := opts.grainFor(rows)
	vtxGrain := opts.grainFor(n)

	// Count pass: offsets[v+1] accumulates deg(v). The parallel variant
	// uses atomic adds — stripes owned by different workers share head
	// vertices freely.
	offsets := make([]int64, n+1)
	countErrs := newStripedErrs(rows, rowGrain)
	fastSrc, fastOK := src.(serialRowsSource)
	fast := p == nil && fastOK
	var counts32 []int32
	if fast {
		counts32 = make([]int32, n+1)
	}
	var countEmit func(v, w int32)
	if p == nil {
		countEmit = func(v, w int32) {
			offsets[v+1]++
			offsets[w+1]++
		}
	} else {
		countEmit = func(v, w int32) {
			atomic.AddInt64(&offsets[v+1], 1)
			atomic.AddInt64(&offsets[w+1], 1)
		}
	}
	d := runStripes(p, rows, rowGrain, stats, func(lo, hi int) {
		var err error
		if fast {
			err = fastSrc.CountRowsSerial(lo, hi, counts32)
		} else {
			err = src.EmitRows(lo, hi, countEmit)
		}
		if err != nil {
			countErrs.set(lo, rowGrain, err)
		}
	})
	buildCountTimer.Observe(d)
	if stats != nil {
		stats.CountNanos += d.Nanoseconds()
	}
	if err := countErrs.first(); err != nil {
		return nil, err
	}

	// Offsets phase: exclusive prefix sum in place, blocked so wide
	// machines scan stripes concurrently (stripe totals, serial scan of
	// the totals, then stripe-local running sums).
	start := time.Now()
	if fast {
		var run int64
		for v := 0; v < n; v++ {
			run += int64(counts32[v+1])
			offsets[v+1] = run
		}
		counts32 = nil
	} else if p == nil || n < 2*vtxGrain {
		var run int64
		for v := 0; v < n; v++ {
			run += offsets[v+1]
			offsets[v+1] = run
		}
	} else {
		stripes := (n + vtxGrain - 1) / vtxGrain
		sums := make([]int64, stripes)
		runStripes(p, n, vtxGrain, nil, func(lo, hi int) {
			var s int64
			for v := lo; v < hi; v++ {
				s += offsets[v+1]
			}
			sums[lo/vtxGrain] = s
		})
		var base int64
		for i, s := range sums {
			sums[i] = base
			base += s
		}
		runStripes(p, n, vtxGrain, nil, func(lo, hi int) {
			run := sums[lo/vtxGrain]
			for v := lo; v < hi; v++ {
				run += offsets[v+1]
				offsets[v+1] = run
			}
		})
	}
	total := offsets[n]
	fill := make([]int64, n)
	copy(fill, offsets[:n])
	d = time.Since(start)
	buildOffsetsTimer.Observe(d)
	if stats != nil {
		stats.OffsetsNanos += d.Nanoseconds()
	}

	// Scatter pass: replay the enumeration, writing both directed arcs
	// through per-vertex fill cursors. Under parallelism the cursors
	// advance atomically, so within-row arc order depends on scheduling
	// — the sort phase canonicalizes it.
	adj := make([]int32, total)
	var scatterEmit func(v, w int32)
	if p == nil {
		scatterEmit = func(v, w int32) {
			a := fill[v]
			fill[v] = a + 1
			adj[a] = w
			b := fill[w]
			fill[w] = b + 1
			adj[b] = v
		}
	} else {
		scatterEmit = func(v, w int32) {
			adj[atomic.AddInt64(&fill[v], 1)-1] = w
			adj[atomic.AddInt64(&fill[w], 1)-1] = v
		}
	}
	d = runStripes(p, rows, rowGrain, stats, func(lo, hi int) {
		if fast {
			fastSrc.ScatterRowsSerial(lo, hi, fill, adj)
			return
		}
		// The count pass vetted every row, so a second error here would
		// mean the source violated its replay contract; emission-count
		// mismatches surface as a cursor overrun panic rather than a
		// silent bad graph.
		_ = src.EmitRows(lo, hi, scatterEmit)
	})
	buildScatterTimer.Observe(d)
	if stats != nil {
		stats.ScatterNanos += d.Nanoseconds()
	}

	// Sort phase: per-vertex neighbour sort + duplicate detection,
	// striped over vertices. A fast source whose serial scatter is
	// already sorted only needs the strict-ascending verify (equality =
	// duplicate, inversion = broken SortedRowsSerial contract).
	sortErrs := newStripedErrs(n, vtxGrain)
	presorted := fast && fastSrc.SortedRowsSerial()
	d = runStripes(p, n, vtxGrain, stats, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nb := adj[offsets[v]:offsets[v+1]]
			if !presorted {
				slices.Sort(nb)
			}
			for i := 1; i < len(nb); i++ {
				if nb[i] <= nb[i-1] {
					sortErrs.set(lo, vtxGrain, fmt.Errorf("graph: duplicate edge (%d,%d)", v, nb[i]))
					return
				}
			}
		}
	})
	buildSortTimer.Observe(d)
	if stats != nil {
		stats.SortNanos += d.Nanoseconds()
	}
	if err := sortErrs.first(); err != nil {
		return nil, err
	}

	return &Graph{offsets: offsets, adj: adj, minDeg: minDegree(offsets), arc: new(arcCell)}, nil
}
