package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// driveProbe feeds one event of every kind through p.
func driveProbe(p Probe) {
	p.StepBatch(StepBatch{FromStep: 0, ToStep: 100, Engine: RegimeBlock, Active: 60, Idle: 40})
	p.EngineSwitch(EngineSwitch{Step: 100, From: RegimeBlock, To: RegimeSparse, Reason: SwitchWindow, MassNum: 3, MassDen: 80})
	p.Discordance(Discordance{Step: 150, Edges: 12, MassNum: 3, MassDen: 80})
	p.Stage(Stage{Step: 180, Support: 2, Min: 1, Max: 2, TwoAdjacent: true})
	p.Done(Done{Step: 200, Winner: 2, Consensus: true})
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	driveProbe(tw.Probe(3, 0xfeed))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if tw.Events() != 5 {
		t.Fatalf("Events() = %d, want 5", tw.Events())
	}

	events, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("decoded %d events, want 5", len(events))
	}
	wantKinds := []string{KindStepBatch, KindSwitch, KindDiscordance, KindStage, KindDone}
	for i, ev := range events {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %q, want %q", i, ev.Kind, wantKinds[i])
		}
		if ev.Trial != 3 || ev.Seed != 0xfeed {
			t.Errorf("event %d context = (%d, %#x), want (3, 0xfeed)", i, ev.Trial, ev.Seed)
		}
	}
	if b := events[0].StepBatch; b == nil || b.Active != 60 || b.Idle != 40 || b.ToStep != 100 {
		t.Errorf("batch payload = %+v", events[0].StepBatch)
	}
	if sw := events[1].Switch; sw == nil || sw.Reason != SwitchWindow || sw.To != RegimeSparse {
		t.Errorf("switch payload = %+v", events[1].Switch)
	}
	if d := events[3].Stage; d == nil || !d.TwoAdjacent {
		t.Errorf("stage payload = %+v", events[3].Stage)
	}

	// write → read → write round-trips bytes: integer JSON encoding is
	// canonical, so re-serializing the decoded events reproduces the
	// original trace exactly.
	var buf2 bytes.Buffer
	tw2 := NewTraceWriter(&buf2)
	for _, ev := range events {
		tw2.Write(ev)
	}
	if err := tw2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("re-encoded trace differs:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, line string }{
		{"unknown kind", `{"ev":"bogus","trial":0,"seed":0}`},
		{"missing payload", `{"ev":"batch","trial":0,"seed":0}`},
		{"not json", `nope`},
	} {
		if _, err := ReadTrace(strings.NewReader(tc.line + "\n")); err == nil {
			t.Errorf("%s: ReadTrace accepted %q", tc.name, tc.line)
		}
	}
}

// recordingProbe counts events per kind.
type recordingProbe struct {
	batches, switches, discords, stages, dones int
}

func (p *recordingProbe) StepBatch(StepBatch)       { p.batches++ }
func (p *recordingProbe) EngineSwitch(EngineSwitch) { p.switches++ }
func (p *recordingProbe) Discordance(Discordance)   { p.discords++ }
func (p *recordingProbe) Stage(Stage)               { p.stages++ }
func (p *recordingProbe) Done(Done)                 { p.dones++ }

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no live probes should be nil")
	}
	var solo recordingProbe
	if got := Multi(nil, &solo); got != Probe(&solo) {
		t.Fatal("Multi with one live probe should return it directly")
	}
	var a, b recordingProbe
	m := Multi(&a, nil, &b)
	driveProbe(m)
	for i, p := range []*recordingProbe{&a, &b} {
		if !reflect.DeepEqual(*p, recordingProbe{1, 1, 1, 1, 1}) {
			t.Errorf("probe %d saw %+v, want one event of each kind", i, *p)
		}
	}
}

func TestProbeMakers(t *testing.T) {
	if ConstMaker(nil) != nil {
		t.Fatal("ConstMaker(nil) should be nil")
	}
	if MultiMaker() != nil || MultiMaker(nil, nil) != nil {
		t.Fatal("MultiMaker of no live makers should be nil")
	}
	var solo recordingProbe
	sole := ConstMaker(&solo)
	if got := MultiMaker(nil, sole)(1, 2); got != Probe(&solo) {
		t.Fatalf("single-maker MultiMaker returned %v", got)
	}

	var a recordingProbe
	var gotTrial int
	var gotSeed uint64
	maker := MultiMaker(ConstMaker(&a), func(trial int, seed uint64) Probe {
		gotTrial, gotSeed = trial, seed
		return nil // a maker may decline; Multi must drop the nil
	})
	p := maker(7, 0xabc)
	if gotTrial != 7 || gotSeed != 0xabc {
		t.Fatalf("maker context = (%d, %#x)", gotTrial, gotSeed)
	}
	driveProbe(p)
	if a.batches != 1 || a.dones != 1 {
		t.Fatalf("constant probe saw %+v", a)
	}
}

func TestMetricsProbe(t *testing.T) {
	reg := NewRegistry()
	p := MetricsProbe(reg)
	p.StepBatch(StepBatch{FromStep: 0, ToStep: 100, Engine: RegimeSparse, Active: 10, Skipped: 90})
	p.EngineSwitch(EngineSwitch{Step: 100, From: RegimeSparse, To: RegimeBlock, Reason: SwitchRebound})
	p.Discordance(Discordance{Step: 100, Edges: 17})
	p.Done(Done{Step: 100, Winner: 1, Consensus: true})

	for name, want := range map[string]int64{
		"div_steps_total":                     100,
		"div_steps_active_total":              10,
		"div_steps_skipped_total":             90,
		"div_steps_sparse_regime_total":       100,
		"div_engine_switches_total":           1,
		"div_engine_switches_to_block_total":  1,
		"div_engine_switches_to_sparse_total": 0,
		"div_runs_total":                      1,
		"div_runs_consensus_total":            1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("div_discordant_edges_last").Value(); got != 17 {
		t.Errorf("div_discordant_edges_last = %d", got)
	}
	if got := reg.Histogram("div_run_steps").Count(); got != 1 {
		t.Errorf("div_run_steps count = %d", got)
	}
}

// TestReadTraceOldRegimes: traces written by core.Run's former
// sequential fast and hybrid loops label batches "fast" and step-0
// entries with the switch reason "probe". Those labels are no longer
// emitted, but such traces must still decode, field for field.
func TestReadTraceOldRegimes(t *testing.T) {
	old := `{"ev":"switch","trial":0,"seed":7,"switch":{"step":0,"from":"naive","to":"fast","reason":"probe","mass_num":3,"mass_den":80}}
{"ev":"batch","trial":0,"seed":7,"batch":{"from":0,"to":100,"engine":"fast","active":10,"skipped":90}}
{"ev":"switch","trial":0,"seed":7,"switch":{"step":100,"from":"fast","to":"naive","reason":"window","window_draws":4096,"window_active":12,"mass_num":1,"mass_den":80}}
`
	events, err := ReadTrace(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	want := EngineSwitch{Step: 0, From: "naive", To: "fast", Reason: "probe", MassNum: 3, MassDen: 80}
	if sw := events[0].Switch; sw == nil || *sw != want {
		t.Errorf("switch = %+v, want %+v", events[0].Switch, want)
	}
	if b := events[1].StepBatch; b == nil || b.Engine != "fast" || b.Skipped != 90 {
		t.Errorf("batch = %+v", events[1].StepBatch)
	}
	if sw := events[2].Switch; sw == nil || sw.WindowDraws != 4096 || sw.WindowActive != 12 {
		t.Errorf("switch = %+v", events[2].Switch)
	}
}
