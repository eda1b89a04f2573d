package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the provenance every result carries.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"`
	Seed       int64  `json:"seed"`
}

func collectHost(dataDir string, seed int64) hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		Kernel:     kernel(),
		DataFS:     fsType(dataDir),
		Seed:       seed,
	}
}

// gitRev names the source revision: BENCH_GIT_REV, which run.sh sets
// from the checkout's own .git, or "unknown" for a source export.
func gitRev() string {
	if r := os.Getenv("BENCH_GIT_REV"); r != "" {
		return r
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// fsType returns the filesystem type of the mount holding dir, from the
// longest matching mount point in /proc/self/mounts.
func fsType(dir string) string {
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), fields[2]
		}
	}
	return typ
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSyscr reads the syscr (read syscalls) counter of /proc/self/io.
func procSyscr() int64 {
	return procField("/proc/self/io", "syscr:")
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	return float64(procField("/proc/self/status", "VmHWM:")) / 1024
}

// rssMB is the process's current resident set (VmRSS) in MiB.
func rssMB() float64 {
	return float64(procField("/proc/self/status", "VmRSS:")) / 1024
}

func procField(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key) {
			continue
		}
		fields := strings.Fields(line[len(key):])
		if len(fields) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(fields[0], 10, 64)
		return v
	}
	return 0
}

// runtimeSample is a point-in-time read of the Go runtime counters the
// ledger differences.
type runtimeSample struct {
	allocObjects uint64
	allocBytes   uint64
	gcCPU        float64
	totalCPU     float64
	schedLat     *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		schedLat:     s[4].Value.Float64Histogram(),
	}
}

// schedWaitP99 is the 99th percentile of goroutine scheduling latency
// observed between two runtime samples, taken at the upper edge of the
// bucket holding the rank (the runtime exports buckets only).
func schedWaitP99(before, after *metrics.Float64Histogram) time.Duration {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	delta := make([]uint64, len(after.Counts))
	var total uint64
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, n := range delta {
		cum += n
		if cum >= rank {
			up := after.Buckets[i+1]
			if up > 1e6 { // +Inf bucket: report its lower edge
				up = after.Buckets[i]
			}
			return time.Duration(up * 1e9)
		}
	}
	return 0
}
