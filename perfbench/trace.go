package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Its name is
// "<layer>.<call>"; the layer "bench" marks the benchmark's own phase
// spans, which attribute time to no program layer. Times are
// nanoseconds since the tracer's epoch.
type Span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is an
// untraced run: every method is a no-op and begin returns 0.
type Tracer struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(run string) *Tracer {
	return &Tracer{run: run, epoch: time.Now()}
}

// record appends a span timed by the caller and returns its id.
func (t *Tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{Run: t.run, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// begin opens a span; end closes it.
func (t *Tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.record(name, parent, now, now)
}

func (t *Tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
}

// timed runs fn inside a span and returns its wall time.
func (t *Tracer) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	return d, err
}

func (t *Tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of it covered by the union of its children. Children that run
// concurrently (spans on different pool workers) are counted once.
func selfTimes(spans []Span) map[int]int64 {
	kids := make(map[int][]interval)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// layerSelf sums self time by layer, leaving out the benchmark's own
// phase spans.
func layerSelf(spans []Span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		if l := s.layer(); l != "bench" {
			out[l] += self[s.ID]
		}
	}
	return out
}

// unattributedFrac is the share of the root span's wall time that no
// layer span covers. Spans named in skip (a deliberately untraced
// phase) are removed from the wall time instead of counted as covered.
func unattributedFrac(spans []Span, root int, skip ...string) float64 {
	var lo, hi int64
	var layers, skipped []interval
	for _, s := range spans {
		switch {
		case s.ID == root:
			lo, hi = s.Start, s.End
		case slices.Contains(skip, s.Name):
			skipped = append(skipped, interval{s.Start, s.End})
		case s.layer() != "bench":
			layers = append(layers, interval{s.Start, s.End})
		}
	}
	wall := hi - lo - covered(skipped, lo, hi)
	if wall <= 0 {
		return 0
	}
	attributed := covered(append(layers, skipped...), lo, hi) - covered(skipped, lo, hi)
	return 1 - float64(attributed)/float64(wall)
}

// writeSpans dumps the provenance header and every span as JSON lines.
func writeSpans(path string, prov provenance, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"provenance": prov})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans dump %s: %w", path, err)
	}
	return nil
}
