package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var errTest = errors.New("forged failure")

// tree is a hand-built trace: a 100 ns run with a 40 ns set-up holding a
// 30 ns build, and a 50 ns measure phase whose sweep has two concurrent
// 20 ns steps that overlap by 10 ns.
func tree() []Span {
	return []Span{
		{ID: 1, Parent: 0, Name: "bench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "bench.setup", Start: 0, End: 40},
		{ID: 3, Parent: 2, Name: "graph.build", Start: 5, End: 35},
		{ID: 4, Parent: 1, Name: "bench.measure", Start: 45, End: 95},
		{ID: 5, Parent: 4, Name: "exp.sweep", Start: 50, End: 90},
		{ID: 6, Parent: 5, Name: "core.step", Start: 55, End: 75},
		{ID: 7, Parent: 5, Name: "core.step", Start: 65, End: 85},
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(tree())
	want := map[int]int64{
		1: 100 - 40 - 50,
		2: 40 - 30,
		3: 30,
		4: 50 - 40,
		5: 40 - 30, // children cover [55,85): the overlap counts once
		6: 20,
		7: 20,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(tree())
	if _, ok := layers["bench"]; ok {
		t.Errorf("bench phase spans attributed to a layer: %v", layers)
	}
	if layers["graph"] != 30 || layers["exp"] != 10 || layers["core"] != 40 {
		t.Errorf("layer self = %v, want graph 30, exp 10, core 40", layers)
	}
}

func TestUnattributedFrac(t *testing.T) {
	// Layer spans cover [5,35) and [50,90): 70 of 100 ns.
	if got := unattributedFrac(tree(), 1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.3", got)
	}
	// Skipping the untraced [45,95) phase removes it from the wall:
	// 30 covered of 50 remaining.
	spans := tree()
	spans[3].Name = "bench.reference"
	if got := unattributedFrac(spans, 1, "bench.reference"); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("unattributed with skipped phase = %v, want 0.4", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	id := tr.begin("graph.build", 0)
	tr.end(id)
	tr.record("core.step", id, time.Now(), time.Now())
	if d, err := tr.timed("spectral.lambda", 0, func() error { return errTest }); d < 0 || !errors.Is(err, errTest) {
		t.Errorf("timed on nil tracer = %v, %v", d, err)
	}
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded spans")
	}
}

func TestTracerNestingAndDump(t *testing.T) {
	tr := newTracer("run-1")
	root := tr.begin("bench.run", 0)
	if _, err := tr.timed("graph.build", root, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Run != "run-1" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].End < spans[1].Start {
		t.Errorf("child outlives parent: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "out", "spans.jsonl")
	if err := writeSpans(path, provenance{Workload: "w"}, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var lines int
	for sc.Scan() {
		lines++
		if lines == 1 {
			continue
		}
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Run != "run-1" {
			t.Errorf("line %d: %v %+v", lines, err, s)
		}
	}
	if lines != 3 {
		t.Errorf("dump has %d lines, want header + 2 spans", lines)
	}
}
