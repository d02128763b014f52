package main

import (
	"os"
	"strings"
	"testing"

	"div/internal/obs"
)

// TestRunEngineImplicitCompact pins the CLI contract for combining
// -engine with -implicit/-compact: fast and auto route through the
// blocked kernel's sparse endgame hand-off (these used to run naive
// silently, then error), and the one genuinely unsupported combination
// — the fast engine on an implicit complete graph — surfaces the core
// error instead of degrading.
func TestRunEngineImplicitCompact(t *testing.T) {
	base := func(spec, eng string, implicit, compact bool) error {
		return run(spec, 3, 0, "vertex", "div", eng, 7, 2,
			false, false, 2_000_000, 0, implicit, compact, "", false,
			obs.Provenance{}, nil)
	}
	cases := []struct {
		name              string
		spec              string
		eng               string
		implicit, compact bool
		wantErr           string
	}{
		{"fast on implicit circulant", "circulant:600,1+2", "fast", true, false, ""},
		{"fast on implicit compact", "circulant:600,1+2", "fast", true, true, ""},
		{"fast on compact csr", "cycle:600", "fast", false, true, ""},
		{"auto on implicit hashedregular", "hashedregular:512,4", "auto", true, false, ""},
		{"fast on implicit complete", "complete:64", "fast", true, false, "sparse"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := base(tc.spec, tc.eng, tc.implicit, tc.compact)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("run() failed: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run() error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunBlockedSeriesAndStages: blocked runs (-block, and -implicit
// and -compact, which imply it) print the first trial's series
// sparklines and support-stage trace, through BlockConfig's observer
// and TraceSupport, under every engine.
func TestRunBlockedSeriesAndStages(t *testing.T) {
	cases := []struct {
		name, spec, eng   string
		block             int
		implicit, compact bool
	}{
		{"block csr auto", "cycle:300", "auto", 4, false, false},
		{"implicit hashedregular auto", "hashedregular:2000,8", "auto", 0, true, false},
		{"implicit compact fast", "circulant:600,1+2", "fast", 0, true, true},
		{"compact csr naive", "cycle:200", "naive", 0, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return run(tc.spec, 3, 0, "vertex", "div", tc.eng, 7, 3,
					true, true, 0, tc.block, tc.implicit, tc.compact, "", false,
					obs.Provenance{}, nil)
			})
			for _, want := range []string{"range trajectory", "discordant-edge trajectory", "step          0: support [1 2 3]"} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		})
	}
}

// captureStdout runs f with os.Stdout redirected to a temporary file
// and returns what f printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatalf("run() failed: %v", err)
	}
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
