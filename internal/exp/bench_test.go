package exp

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// sampleBenchReport is a hand-built report exercising every field the
// JSON schema promises, without running the (slow) benchmark matrix.
func sampleBenchReport() *BenchReport {
	return &BenchReport{
		Quick: true,
		Note:  "test",
		Baseline: BenchBaseline{
			N: e2BaselineN, TrialsPerSec: e2BaselineTrialsPerSec, NsPerStep: e2BaselineNsPerStep, Note: "baseline",
		},
		E2: BenchE2{
			N: 800, K: 8, Trials: 10, Steps: 123456,
			TrialsPerSecFresh: 100, TrialsPerSecReused: 120, NsPerStepReused: 50,
			BlockTrialsPerSec: map[int]float64{1: 110, 8: 130},
			BestBlock:         8, BestBlockTrialsPerSec: 130, BestBlockNsPerStep: 45,
		},
		Scaling: &BenchScaling{
			CPUsOnline: 1,
			Widths: []BenchWidthPoint{
				{Width: 1, GOMAXPROCS: 1, Seconds: 2.0, SpeedupVsWidth1: 1.0,
					PoolUtilization: 0.95, Tasks: 100, Steals: 2, Injects: 40, Parks: 7,
					CacheHits: 3, CacheMisses: 5},
				{Width: 2, GOMAXPROCS: 2, Seconds: 1.9, SpeedupVsWidth1: 2.0 / 1.9,
					PoolUtilization: 0.5, Tasks: 100, Steals: 9, Injects: 40, Parks: 15,
					CacheHits: 8, CacheMisses: 0},
			},
			Blocked: []BenchBlockRow{
				{Graph: "rr(n=32768,d=8)", Process: "vertex", Block: 1, Trials: 6, Steps: 786432,
					Seconds: 0.02, NsPerStep: 25, TrialsPerSec: 300, SpeedupVsBlock1: 1.0},
				{Graph: "rr(n=32768,d=8)", Process: "vertex", Block: 8, Trials: 6, Steps: 786432,
					Seconds: 0.015, NsPerStep: 19, TrialsPerSec: 400, SpeedupVsBlock1: 4.0 / 3.0},
			},
			BlockedWins: []string{"rr(n=32768,d=8)/vertex"},
			Note:        "test",
		},
		Rows: []BenchRow{
			{Graph: "complete(n=256)", Process: "vertex", Engine: "fast", Trials: 6, Steps: 1000,
				NsPerStepReused: 40, TrialsPerSecFresh: 90, TrialsPerSecReused: 110,
				AllocsPerStep: 0, AllocsPerTrialReused: 2},
		},
	}
}

// TestBenchReportJSONSchema pins the wire format of BENCH_engine.json:
// every key downstream tooling reads must be present under its exact
// name, and every numeric value must be finite (NaN/Inf silently
// become invalid JSON or nulls depending on the encoder).
func TestBenchReportJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleBenchReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	for _, key := range []string{"quick", "note", "baseline_pre_pipeline", "e2_point", "scaling", "rows"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("top-level key %q missing", key)
		}
	}
	e2, ok := doc["e2_point"].(map[string]any)
	if !ok {
		t.Fatalf("e2_point is %T, want object", doc["e2_point"])
	}
	for _, key := range []string{"n", "k", "trials", "steps", "trials_per_sec_fresh", "trials_per_sec_reused", "ns_per_step_reused", "speedup_vs_baseline", "block_trials_per_sec", "best_block", "best_block_trials_per_sec", "best_block_ns_per_step"} {
		if _, ok := e2[key]; !ok {
			t.Errorf("e2_point key %q missing", key)
		}
	}
	scaling, ok := doc["scaling"].(map[string]any)
	if !ok {
		t.Fatalf("scaling is %T, want object", doc["scaling"])
	}
	for _, key := range []string{"cpus_online", "widths", "blocked", "blocked_wins", "note"} {
		if _, ok := scaling[key]; !ok {
			t.Errorf("scaling key %q missing", key)
		}
	}
	widths, ok := scaling["widths"].([]any)
	if !ok || len(widths) == 0 {
		t.Fatalf("scaling.widths = %#v, want non-empty array", scaling["widths"])
	}
	for _, key := range []string{"width", "gomaxprocs", "seconds", "speedup_vs_width1", "pool_utilization", "sched_tasks", "sched_steals", "sched_injects", "sched_parks", "graph_cache_hits", "graph_cache_misses"} {
		if _, ok := widths[0].(map[string]any)[key]; !ok {
			t.Errorf("scaling.widths key %q missing", key)
		}
	}
	blockedRows, ok := scaling["blocked"].([]any)
	if !ok || len(blockedRows) == 0 {
		t.Fatalf("scaling.blocked = %#v, want non-empty array", scaling["blocked"])
	}
	for _, key := range []string{"graph", "process", "block", "trials", "steps", "seconds", "ns_per_step", "trials_per_sec", "speedup_vs_block1"} {
		if _, ok := blockedRows[0].(map[string]any)[key]; !ok {
			t.Errorf("scaling.blocked key %q missing", key)
		}
	}

	rows, ok := doc["rows"].([]any)
	if !ok || len(rows) != 1 {
		t.Fatalf("rows = %#v, want 1-element array", doc["rows"])
	}
	row := rows[0].(map[string]any)
	for _, key := range []string{"graph", "process", "engine", "trials", "steps", "ns_per_step_reused", "trials_per_sec_fresh", "trials_per_sec_reused", "allocs_per_step", "allocs_per_trial_reused"} {
		if _, ok := row[key]; !ok {
			t.Errorf("row key %q missing", key)
		}
	}
	var assertFinite func(path string, v any)
	assertFinite = func(path string, v any) {
		switch x := v.(type) {
		case float64:
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("%s is not finite: %v", path, x)
			}
		case map[string]any:
			for k, vv := range x {
				assertFinite(path+"."+k, vv)
			}
		case []any:
			for i, vv := range x {
				assertFinite(path+"["+itoa(i)+"]", vv)
			}
		}
	}
	assertFinite("$", map[string]any(doc))
}

// TestBenchReportJSONRoundTrip checks the document decodes back into
// the same struct (no lossy field tags) and that a NaN anywhere makes
// WriteJSON fail loudly rather than emit a broken document.
func TestBenchReportJSONRoundTrip(t *testing.T) {
	in := sampleBenchReport()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out BenchReport
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	// BenchE2 holds a map (block -> trials/sec), so compare with DeepEqual.
	if !reflect.DeepEqual(out.E2, in.E2) || out.Baseline != in.Baseline {
		t.Errorf("round trip changed E2/Baseline: %+v vs %+v", out, in)
	}
	if len(out.Rows) != len(in.Rows) || out.Rows[0] != in.Rows[0] {
		t.Errorf("round trip changed Rows: %+v", out.Rows)
	}
	if !reflect.DeepEqual(out.Scaling, in.Scaling) {
		t.Errorf("round trip changed Scaling: %+v vs %+v", out.Scaling, in.Scaling)
	}

	bad := sampleBenchReport()
	bad.E2.SpeedupVsBaseline = math.NaN()
	if err := bad.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Error("WriteJSON accepted NaN; downstream JSON consumers would break")
	}
}

// TestBenchFamiliesMonotoneSizes checks the benchmark workload scales
// with -full: every family's graph is at least as large at publication
// sizes as at quick sizes.
func TestBenchFamiliesMonotoneSizes(t *testing.T) {
	quick, err := benchFamilies(Params{Quick: true}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	full, err := benchFamilies(Params{Quick: false}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(quick) != len(full) {
		t.Fatalf("family count differs: %d quick vs %d full", len(quick), len(full))
	}
	for i := range quick {
		if quick[i].g.N() > full[i].g.N() {
			t.Errorf("family %d: quick n=%d exceeds full n=%d", i, quick[i].g.N(), full[i].g.N())
		}
	}
}
