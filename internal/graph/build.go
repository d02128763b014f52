package graph

import (
	"fmt"
	"slices"
	"time"

	"div/internal/obs"
)

// This file is the direct-to-CSR assembler: graphs are built straight
// into their final offsets/adj slabs with no intermediate []Edge, in
// four serial phases —
//
//	count    enumerate every edge once, tallying degrees
//	offsets  exclusive prefix sum of the degrees
//	scatter  enumerate the same edges again, writing both arc cells
//	sort     per-vertex neighbour sort + duplicate detection
//
// The count and scatter passes replay the same enumeration, which is
// what lets a generated family (G(n,p)) avoid ever materializing 16
// bytes/edge of edge list — peak memory is the final CSR plus one int64
// cursor per vertex, plus whatever the source keeps to make its replay
// cheap (gnpSource memoizes 4 bytes/edge between the passes rather
// than re-running the skip chain).
//
// The build runs on the calling goroutine. A striped build on the
// work-stealing pool ran 1.1–1.6× slower than this path at width 2 on
// every random-regular and G(n,p) size measured (n = 2¹⁴ to 10⁷), and
// 0.28–0.68× its speed on one CPU, so it was deleted. A serial pass
// reports the first error in row order, and the sort phase the first
// duplicate in vertex order.
//
// Telemetry on obs.Default:
//
//	span_graph_build_sample_nanos   a builder's sampling phase
//	                                (pairing, attachment, rewiring);
//	                                G(n,p) samples inside the count pass
//	span_graph_build_count_nanos    count pass wall time
//	span_graph_build_offsets_nanos  prefix-sum wall time
//	span_graph_build_scatter_nanos  scatter pass wall time
//	span_graph_build_sort_nanos     sort + dup-check wall time

var (
	buildSampleTimer  = obs.Default.Timer("graph_build_sample")
	buildCountTimer   = obs.Default.Timer("graph_build_count")
	buildOffsetsTimer = obs.Default.Timer("graph_build_offsets")
	buildScatterTimer = obs.Default.Timer("graph_build_scatter")
	buildSortTimer    = obs.Default.Timer("graph_build_sort")
)

// EdgeSource is what BuildCSR assembles: the undirected edges of a
// graph, enumerated twice, once to tally degrees and once to write
// arcs. Both passes must visit the same edges.
type EdgeSource interface {
	// CountEdges must increment counts[v+1] and counts[w+1] once per
	// edge {v, w} (the +1 convention lets BuildCSR prefix-sum in
	// place), having validated both endpoints (in range, no
	// self-loop): ScatterEdges writes straight into the arc slab with
	// no bounds checks of its own. A non-nil error aborts the build.
	CountEdges(counts []int32) error
	// ScatterEdges must, for each edge {v, w}, write both arc cells
	// through the fill cursors: adj[fill[v]] = w, adj[fill[w]] = v,
	// post-incrementing each cursor. CountEdges vetted the edges, so
	// this pass cannot fail.
	ScatterEdges(fill []int64, adj []int32)
	// Presorted reports whether ScatterEdges leaves every adjacency
	// already sorted ascending — true when each vertex emits its
	// neighbour draws in ascending order and every edge is owned by
	// its larger endpoint (then vertex x receives its smaller
	// neighbours, ascending, from its own row before rows x+1, x+2, …
	// append theirs). When true the sort phase degrades to a
	// strict-ascending verify that doubles as the duplicate check.
	Presorted() bool
}

// edgeFunc is an EdgeSource written as one enumeration: it calls
// emit(v, w) once per edge {v, w}, validating endpoints as CountEdges
// requires, and emits the same edges on every call. BuildCSR runs it
// twice, counting then scattering.
type edgeFunc func(emit func(v, w int32)) error

func (f edgeFunc) CountEdges(counts []int32) error {
	return f(func(v, w int32) {
		counts[v+1]++
		counts[w+1]++
	})
}

// ScatterEdges drops the enumeration's error: the count pass vetted
// every edge. A source that breaks the replay contract by emitting
// more edges the second time overruns a fill cursor and panics rather
// than build a silently corrupt graph.
func (f edgeFunc) ScatterEdges(fill []int64, adj []int32) {
	_ = f(func(v, w int32) {
		a := fill[v]
		fill[v] = a + 1
		adj[a] = w
		b := fill[w]
		fill[w] = b + 1
		adj[b] = v
	})
}

func (edgeFunc) Presorted() bool { return false }

// BuildStats reports per-phase wall time for one build. Nanos fields
// accumulate, so one BuildStats can total several builds (retries in
// ConnectedGnp, attempts in RandomRegular).
type BuildStats struct {
	// SampleNanos covers a builder's sampling work outside the
	// assembler: configuration-model pairing, preferential attachment,
	// Watts–Strogatz rewiring. Zero for G(n,p), whose sampling runs
	// inside the count pass (the scatter pass replays a memo).
	SampleNanos  int64
	CountNanos   int64
	OffsetsNanos int64
	ScatterNanos int64
	SortNanos    int64
}

// TotalNanos returns the summed wall time of all phases.
func (s *BuildStats) TotalNanos() int64 {
	return s.SampleNanos + s.CountNanos + s.OffsetsNanos + s.ScatterNanos + s.SortNanos
}

// BuildOpts configures the assembler. The zero value is what
// NewFromEdges uses.
type BuildOpts struct {
	// Workers is ignored: every build runs serially on the calling
	// goroutine. The field remains because existing callers set it.
	Workers int
	// Stats, when non-nil, accumulates per-phase timings.
	Stats *BuildStats
}

// observeSample records a builder's sampling phase.
func (o BuildOpts) observeSample(d time.Duration) {
	buildSampleTimer.Observe(d)
	if o.Stats != nil {
		o.Stats.SampleNanos += d.Nanoseconds()
	}
}

// observePhase records the wall time since start on a phase timer and
// adds it to *nanos.
func observePhase(t *obs.Timer, nanos *int64, start time.Time) {
	d := time.Since(start)
	t.Observe(d)
	*nanos += d.Nanoseconds()
}

// EdgeList returns the EdgeSource view of an explicit edge list,
// validated against vertex count n with NewFromEdges's error reporting.
func EdgeList(n int, edges []Edge) EdgeSource {
	return edgeFunc(func(emit func(v, w int32)) error {
		for i, e := range edges {
			if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
				return fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, n)
			}
			if e.U == e.V {
				return fmt.Errorf("graph: edge %d is a self-loop at %d", i, e.U)
			}
			emit(int32(e.U), int32(e.V))
		}
		return nil
	})
}

// BuildCSR assembles a Graph with n vertices directly into CSR form
// from the edges src enumerates. The result carries no name; builders
// label it with WithName. See the file comment for the phase plan.
func BuildCSR(n int, src EdgeSource, opts BuildOpts) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	stats := opts.Stats
	if stats == nil {
		stats = new(BuildStats)
	}

	// Count pass: counts[v+1] tallies deg(v). Counters are int32 (a
	// simple graph's degree is below the int32 vertex bound), so the
	// pass's random-access working set is half the offsets array's.
	start := time.Now()
	counts := make([]int32, n+1)
	err := src.CountEdges(counts)
	observePhase(buildCountTimer, &stats.CountNanos, start)
	if err != nil {
		return nil, err
	}

	start = time.Now()
	offsets := make([]int64, n+1)
	var run int64
	for v := 0; v < n; v++ {
		run += int64(counts[v+1])
		offsets[v+1] = run
	}
	fill := make([]int64, n)
	copy(fill, offsets[:n])
	observePhase(buildOffsetsTimer, &stats.OffsetsNanos, start)

	start = time.Now()
	adj := make([]int32, offsets[n])
	src.ScatterEdges(fill, adj)
	observePhase(buildScatterTimer, &stats.ScatterNanos, start)

	start = time.Now()
	err = sortAdjacency(offsets, adj, src.Presorted())
	observePhase(buildSortTimer, &stats.SortNanos, start)
	if err != nil {
		return nil, err
	}
	return newGraph(offsets, adj), nil
}

// sortAdjacency sorts every neighbour list and reports the first
// duplicate in vertex order. A presorted adjacency only needs the
// strict-ascending verify (equality = duplicate, inversion = broken
// Presorted contract).
func sortAdjacency(offsets []int64, adj []int32, presorted bool) error {
	for v := 0; v+1 < len(offsets); v++ {
		nb := adj[offsets[v]:offsets[v+1]]
		if !presorted {
			slices.Sort(nb)
		}
		for i := 1; i < len(nb); i++ {
			if nb[i] <= nb[i-1] {
				return fmt.Errorf("graph: duplicate edge (%d,%d)", v, nb[i])
			}
		}
	}
	return nil
}
