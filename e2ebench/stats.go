package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0 (a layer the workload never reaches).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime returns the process's user+sys CPU time and peak RSS in MiB.
func cpuTime() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Maxrss is KiB on Linux
}

// stealShare returns the hypervisor's steal time as a share of all CPU
// time between two /proc/stat snapshots: CPU the machine's other tenants
// took from this one, which slows the run without any change to the code.
func stealShare(a, b [2]uint64) float64 {
	return ratio(float64(b[1]-a[1]), float64(b[0]-a[0]))
}

// cpuJiffies returns the machine's total and steal jiffies from
// /proc/stat, zeros where it is unavailable.
func cpuJiffies() [2]uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var out [2]uint64
	if len(fields) < 9 || fields[0] != "cpu" {
		return out
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return [2]uint64{}
		}
		out[0] += v
		if i == 7 {
			out[1] = v
		}
	}
	return out
}

// goSample is a snapshot of the runtime/metrics the go.* layer reports.
type goSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	heapLive   uint64
	sched      *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/sched/latencies:seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		heapLive:   s[3].Value.Uint64(),
		sched:      s[4].Value.Float64Histogram(),
	}
}

// schedP99 returns the 99th percentile of the scheduler latencies
// recorded between two samples, in milliseconds (bucket upper bound).
func schedP99(a, b goSample) float64 {
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i]
		if i < len(a.sched.Counts) {
			counts[i] -= a.sched.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			hi := b.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.sched.Buckets[i]
			}
			return hi * 1e3
		}
	}
	return 0
}

// machineStamp identifies the hardware, runtime and code a result was
// measured on.
type machineStamp struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stamp() machineStamp {
	return machineStamp{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the VCS revision stamped into the binary, or — when the
// benchmark is built from a plain source tree without version control —
// a digest of every Go source and go.mod under the repository root the
// benchmark runs from, which identifies the measured code just as
// exactly.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, .bench_build
		case d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod"):
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
