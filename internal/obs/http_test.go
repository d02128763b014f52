package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func serveTestMux(t *testing.T) (*httptest.Server, *Registry, *Progress) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("tasks_total").Add(10)
	reg.Gauge("depth").Set(2)
	reg.Histogram("lat").Observe(50)
	prov := CollectProvenance("divtest", 42, "auto")
	prog := NewProgress(3)
	prog.Start("E1")
	prog.Start("E2")
	prog.Done("E1")
	srv := httptest.NewServer(NewServeMux(reg, &prov, prog))
	t.Cleanup(srv.Close)
	return srv, reg, prog
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

func TestServeMetricsEndpoint(t *testing.T) {
	srv, _, _ := serveTestMux(t)
	resp, body := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("content type %q, want %q", ct, PromContentType)
	}
	for _, want := range []string{
		"# TYPE tasks_total counter\ntasks_total 10\n",
		"# TYPE depth gauge\ndepth 2\n",
		`lat_bucket{le="63"} 1`,
		`lat_bucket{le="+Inf"} 1`,
		"lat_sum 50",
		"lat_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServeProgressEndpoint(t *testing.T) {
	srv, _, prog := serveTestMux(t)
	_, body := get(t, srv.URL+"/progress")
	var ps ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &ps); err != nil {
		t.Fatalf("progress not JSON: %v\n%s", err, body)
	}
	if ps.Total != 3 || ps.Done != 1 {
		t.Fatalf("progress = %+v, want total 3 done 1", ps)
	}
	if len(ps.Running) != 1 || ps.Running[0] != "E2" {
		t.Fatalf("running = %v, want [E2]", ps.Running)
	}
	prog.Done("E2")
	_, body = get(t, srv.URL+"/progress")
	var after ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if after.Done != 2 || len(after.Running) != 0 {
		t.Fatalf("after Done: %+v", after)
	}
}

func TestServeSnapshotEndpoint(t *testing.T) {
	srv, _, _ := serveTestMux(t)
	_, body := get(t, srv.URL+"/snapshot.json")
	var state struct {
		Provenance *Provenance       `json:"provenance"`
		Progress   *ProgressSnapshot `json:"progress"`
		Metrics    Snapshot          `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &state); err != nil {
		t.Fatalf("snapshot not JSON: %v\n%s", err, body)
	}
	if state.Provenance == nil || state.Provenance.Command != "divtest" || state.Provenance.Seed != 42 {
		t.Fatalf("provenance = %+v", state.Provenance)
	}
	if state.Progress == nil || state.Progress.Total != 3 {
		t.Fatalf("progress = %+v", state.Progress)
	}
	if state.Metrics.CounterValue("tasks_total") != 10 {
		t.Fatalf("metrics counters = %+v", state.Metrics.Counters)
	}
}

func TestServeMuxNilProvenanceAndProgress(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(NewServeMux(reg, nil, nil))
	defer srv.Close()
	resp, body := get(t, srv.URL+"/progress")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ps ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &ps); err != nil || ps.Total != 0 {
		t.Fatalf("nil-progress body %q (err %v)", body, err)
	}
	if _, body = get(t, srv.URL+"/snapshot.json"); strings.Contains(body, `"provenance"`) {
		t.Fatalf("nil provenance should be omitted:\n%s", body)
	}
}

func TestCollectProvenance(t *testing.T) {
	p := CollectProvenance("divbench", 7, "fast")
	if p.Command != "divbench" || p.Seed != 7 || p.Engine != "fast" {
		t.Fatalf("identity fields: %+v", p)
	}
	if p.GoVersion == "" || p.GOOS == "" || p.GOARCH == "" || p.GOMAXPROCS < 1 || p.NumCPU < 1 {
		t.Fatalf("runtime fields missing: %+v", p)
	}
	if p.GitSHA == "" {
		t.Fatal("GitSHA must never be empty (unknown when unstamped)")
	}
	if p.Time == "" {
		t.Fatal("Time must be stamped")
	}
	ft := p.ForTrace()
	if ft.Args != nil || ft.Time != "" {
		t.Fatalf("ForTrace must clear Args and Time: %+v", ft)
	}
	if ft.Command != p.Command || ft.Seed != p.Seed {
		t.Fatal("ForTrace must keep the identity fields")
	}
}

// TestCollectProvenanceGitFallback: a binary without a VCS stamp (a
// test binary, or go run) records the HEAD that git reports for its
// working directory, and "unknown" outside a checkout.
func TestCollectProvenanceGitFallback(t *testing.T) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		t.Skipf("not in a git checkout: %v", err)
	}
	head := strings.TrimSpace(string(out))
	if got := CollectProvenance("divtest", 1, "auto").GitSHA; got != head {
		t.Errorf("GitSHA = %q, want HEAD %q", got, head)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	if got := gitHead(); got != "unknown" {
		t.Errorf("gitHead outside a checkout = %q, want unknown", got)
	}
}
