package obs

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Provenance is the run manifest: everything needed to attribute a
// benchmark report or trace to the code, configuration, and machine
// that produced it. It is embedded in BENCH_engine.json, served at
// /snapshot.json, and written (time- and argv-stripped, so seeded
// traces stay byte-identical across reruns) as the first line of
// JSONL traces.
type Provenance struct {
	// Command is the producing binary ("divbench", "divsim", "divd").
	Command string `json:"command"`
	// Args is the raw command line (flags included), absent in trace
	// headers where it would break byte-identity across reruns that
	// differ only in output paths.
	Args []string `json:"args,omitempty"`
	// Seed is the master seed of the run; Engine the stepping-engine
	// selection string as given ("auto", "naive", "fast").
	Seed   uint64 `json:"seed"`
	Engine string `json:"engine,omitempty"`

	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Host       string `json:"host,omitempty"`

	// GitSHA is the VCS revision stamped into the binary by the go
	// toolchain; binaries built without VCS metadata (go run, test
	// binaries) ask git for the checked-out HEAD instead, and record
	// "unknown" outside a git checkout. GitDirty marks uncommitted
	// changes at build time (stamped binaries only).
	GitSHA   string `json:"git_sha"`
	GitDirty bool   `json:"git_dirty,omitempty"`

	// Time is the RFC3339 wall-clock start of the run, absent in trace
	// headers.
	Time string `json:"time,omitempty"`

	// PeakRSSBytes is the process resident-set high-water mark and
	// TotalAllocBytes the cumulative heap allocation, both captured by
	// WithMemStats at the end of the run. Absent in trace headers —
	// memory footprints vary between reruns of the same seed.
	PeakRSSBytes    int64 `json:"peak_rss_bytes,omitempty"`
	TotalAllocBytes int64 `json:"total_alloc_bytes,omitempty"`
}

// CollectProvenance gathers the manifest for the current process.
func CollectProvenance(command string, seed uint64, engine string) Provenance {
	p := Provenance{
		Command:    command,
		Args:       os.Args[1:],
		Seed:       seed,
		Engine:     engine,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitSHA:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if host, err := os.Hostname(); err == nil {
		p.Host = host
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitSHA = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value == "true"
			}
		}
	}
	if p.GitSHA == "unknown" {
		p.GitSHA = gitHead()
	}
	return p
}

// gitHead asks git for the commit checked out in the working
// directory, or returns "unknown" when there is none (no repository,
// no git).
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// ForTrace returns a copy with the fields that legitimately vary
// between reruns of the same seeded configuration (wall-clock time,
// argv — which carries output file paths) cleared, so a trace header
// never breaks the byte-identity guarantee of seeded traces.
func (p Provenance) ForTrace() Provenance {
	p.Args = nil
	p.Time = ""
	p.PeakRSSBytes = 0
	p.TotalAllocBytes = 0
	return p
}

// WithMemStats returns a copy with the end-of-run memory footprint
// filled in: the kernel's resident-set high-water mark (when /proc is
// available) and Go's cumulative heap allocation. Call it just before
// serializing a report manifest.
func (p Provenance) WithMemStats() Provenance {
	if peak, ok := ReadPeakRSS(); ok {
		p.PeakRSSBytes = peak
	}
	p.TotalAllocBytes = HeapTotalAlloc()
	return p
}
