package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"div/internal/exp"
)

// TestBenchJSONMergeKeepsSections: -bench-json merges the engine matrix
// into an existing report. Its bign and build sections, which only
// -bench-bign and -bench-build measure, come through unchanged, and so
// does its scaling section unless the run measured a new one.
func TestBenchJSONMergeKeepsSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	old := exp.BenchReport{
		Note:    "old",
		BigN:    &exp.BenchBigN{RSSRatio: 0.1},
		Build:   &exp.BenchBuild{},
		Scaling: &exp.BenchScaling{CPUsOnline: 3},
		Rows:    []exp.BenchRow{{Graph: "old"}},
	}
	data, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	read := func() exp.BenchReport {
		t.Helper()
		var rep exp.BenchReport
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	fresh := &exp.BenchReport{Note: "new", Rows: []exp.BenchRow{{Graph: "new"}}}
	if err := writeMerged(path, func(rep *exp.BenchReport, existed bool) {
		if !existed {
			t.Error("existing report not read")
		}
		adoptEngineReport(rep, fresh)
	}); err != nil {
		t.Fatal(err)
	}
	got := read()
	if got.Note != "new" || len(got.Rows) != 1 || got.Rows[0].Graph != "new" {
		t.Errorf("engine sections not replaced: note %q rows %+v", got.Note, got.Rows)
	}
	if got.BigN == nil || got.BigN.RSSRatio != 0.1 || got.Build == nil {
		t.Errorf("bign/build sections lost: %+v %+v", got.BigN, got.Build)
	}
	if got.Scaling == nil || got.Scaling.CPUsOnline != 3 {
		t.Errorf("scaling section lost without a width sweep: %+v", got.Scaling)
	}

	fresh.Scaling = &exp.BenchScaling{CPUsOnline: 2}
	if err := writeMerged(path, func(rep *exp.BenchReport, _ bool) { adoptEngineReport(rep, fresh) }); err != nil {
		t.Fatal(err)
	}
	if got := read(); got.Scaling == nil || got.Scaling.CPUsOnline != 2 || got.BigN == nil {
		t.Errorf("a new width sweep must replace scaling and keep bign: %+v %+v", got.Scaling, got.BigN)
	}
}
