package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeed is deliberately not a seed the benchmark was tuned on, so
// every workload shape is rechecked on an unseen seed.
const smokeSeed = 0xC0FFEE

// tinyWorkloads are the benchmark's three shapes at test scale.
func tinyWorkloads() map[string]func() workload {
	return map[string]func() workload{
		"reduce-rr": func() workload {
			return &reduceRR{sh: reduceShape{n: 256, d: 4, k: 4, block: 4, perSweep: 16, width: 2}, seed: smokeSeed}
		},
		"endgame-rr": func() workload {
			return newEndgame(endgameShape{n: 4096, d: 4, dissenters: 8, rounds: endgameRounds}, smokeSeed)
		},
		"endgame-implicit": func() workload {
			return newEndgame(endgameShape{n: 4096, d: 4, dissenters: 8, rounds: endgameRounds, implicit: true}, smokeSeed)
		},
	}
}

func TestWorkloadShapesSmoke(t *testing.T) {
	for name, mk := range tinyWorkloads() {
		var untraced *report
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: smokeSeed, seconds: 0.3, traced: traced, setups: 2}
			rep, err := measure(mk(), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if rep.attempted() == 0 || rep.failed() != 0 || !rep.correct() {
				t.Errorf("%s traced=%v: attempted %d failed %d laws %+v errs %v",
					name, traced, rep.attempted(), rep.failed(), rep.laws, append(rep.ref.errs, rep.meas.errs...))
			}
			if len(rep.setups) != 2 {
				t.Errorf("%s: %d set-ups, want 2", name, len(rep.setups))
			}
			for _, m := range rep.endToEnd() {
				if !(m.value > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.name, m.value)
				}
			}
			if !traced {
				if len(rep.spans) != 0 {
					t.Errorf("%s: untraced run recorded %d spans", name, len(rep.spans))
				}
				untraced = rep
				continue
			}
			// The same seed steps the same leading trials whether or not
			// the run is traced; a slow machine may run fewer than
			// fingerprintTrials of them in the budget.
			n := min(fingerprintTrials, rep.attempted(), untraced.attempted())
			if got, want := rep.leadingSteps(n), untraced.leadingSteps(n); got != want || got <= 0 {
				t.Errorf("%s: steps of the first %d trials traced %d, untraced %d", name, n, got, want)
			}
			if rep.ref.attempted == 0 || len(rep.spans) == 0 {
				t.Errorf("%s: traced run has %d reference trials and %d spans", name, rep.ref.attempted, len(rep.spans))
			}
			layer := map[string]float64{}
			for _, m := range rep.perLayer() {
				layer[m.name] = m.value
			}
			if layer["core.steps_total"] <= 0 || layer["core.step_s"] <= 0 {
				t.Errorf("%s: steps_total %v, step_s %v", name, layer["core.steps_total"], layer["core.step_s"])
			}
			if f := layer["trace.unattributed_frac"]; f < 0 || f > 0.5 {
				t.Errorf("%s: unattributed_frac %v", name, f)
			}
			if layer["trace.absent_counters"] != 0 {
				t.Errorf("%s: counters absent: %v", name, rep.absent)
			}
			if name == "reduce-rr" && (layer["exp.sweep_s"] <= 0 || layer["spectral.lambda_s"] <= 0 || layer["sched.tasks"] <= 0) {
				t.Errorf("reduce-rr: sweep %v lambda %v tasks %v", layer["exp.sweep_s"], layer["spectral.lambda_s"], layer["sched.tasks"])
			}
			if name == "endgame-implicit" && (layer["core.sparse_handoffs"] <= 0 || layer["graph.csr_mb"] != 0) {
				t.Errorf("endgame-implicit: handoffs %v csr %v", layer["core.sparse_handoffs"], layer["graph.csr_mb"])
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and units
// in step with the declared benchmark.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("declared workload: %v", err)
		}
	}
	rep := &report{setups: []setupStats{{}}, counters: map[string]int64{}}
	same := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		units := map[string]string{}
		for _, m := range got {
			units[m.name] = m.unit
		}
		if len(units) != len(want) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json declares %d", kind, len(units), len(want))
		}
		for _, d := range want {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s %s: program unit %q (present %v), declared %q", kind, d.Name, u, ok, d.Unit)
			}
		}
	}
	same("end_to_end", rep.endToEnd(), decl.EndToEnd)
	same("per_layer", rep.perLayer(), decl.PerLayer)
}

func TestRunResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	for _, args := range [][]string{
		{"--workload", "reduce-rr", "--trace", "2"},
		{"--workload", "reduce-rr", "--seconds", "0"},
		{"--workload", "reduce-rr", "extra"},
	} {
		out.Reset()
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}

	// A full report prints its JSON result as the last line.
	rep, err := measure(tinyWorkloads()["endgame-implicit"](), options{workload: "endgame-implicit", seed: smokeSeed, seconds: 0.2, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	rep.print(&out, options{workload: "endgame-implicit", seed: smokeSeed, seconds: 0.2})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted != rep.attempted() || res.Failed != 0 || len(res.Metrics) != len(rep.endToEnd()) {
		t.Errorf("result line %+v", res)
	}
	if m := res.Metrics["setup_s"]; m.Unit != "s" || !(m.Value > 0) {
		t.Errorf("setup_s = %+v", m)
	}
}
