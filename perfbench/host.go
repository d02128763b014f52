package main

import (
	"bufio"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"div/internal/obs"
)

// calibIters sizes the calibration loop: 38–45 ms on a 2.1 GHz Xeon vCPU.
const calibIters = 1 << 24

var calibSink uint64

// calibrate times a fixed xorshift loop that calls no program code,
// three times, and returns the median in milliseconds. A slow reading
// flags a slow or contended host, not a slow program.
func calibrate() float64 {
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15) + uint64(i)
		for j := 0; j < calibIters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink ^= x
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct {
	total, steal uint64
	ok           bool
}

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealFrac is the share of CPU time the hypervisor stole between two
// readings.
func stealFrac(a, b cpuTimes) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB is the process resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, _ := obs.ReadPeakRSS()
	return float64(b) / (1 << 20)
}

// provenance identifies the code, toolchain and host behind one run:
// the repository's run manifest (git SHA, Go version, GOMAXPROCS,
// num_cpu — what nproc reports — and the seed) plus the workload and the
// host readings taken around the run.
type provenance struct {
	obs.Provenance
	Workload      string  `json:"workload"`
	Seconds       float64 `json:"seconds"`
	Trace         bool    `json:"trace"`
	HostCalibMS   float64 `json:"host_calib_ms"`
	HostStealFrac float64 `json:"host_steal_frac"`
}

func newProvenance(workload string, seed uint64, seconds float64, traced bool) provenance {
	p := provenance{Provenance: obs.CollectProvenance("perfbench", seed, "auto"),
		Workload: workload, Seconds: seconds, Trace: traced}
	if p.GitSHA == "unknown" {
		p.GitSHA = gitHead()
	}
	return p
}

// gitHead asks git for the checked-out commit; binaries built outside
// a repository, or by go run, carry no VCS stamp of their own.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
