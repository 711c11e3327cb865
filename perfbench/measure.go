package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minTail is how many samples a percentile needs beyond it before the
// benchmark reports it.
const minTail = 10

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// samplesFor reports how many samples a q-quantile needs so that at
// least minTail lie beyond it.
func samplesFor(q float64) int { return int(math.Ceil(minTail / (1 - q))) }

// median returns the middle value of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencies collects per-op latencies from concurrent callers.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/1e6)
	l.mu.Unlock()
}

func (l *latencies) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

// reportLatency sets the latency percentiles with the sample count.
// A percentile is reported only with at least minTail samples beyond
// it; the median is required, smoke runs report what they have.
func reportLatency(rep *report, l *latencies, smoke bool) {
	xs := append([]float64(nil), l.ms...)
	sort.Float64s(xs)
	rep.Samples = len(xs)
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		switch {
		case len(xs) >= samplesFor(p.q) || (smoke && len(xs) > 0):
			rep.set(p.name, percentile(xs, p.q), "ms")
		case p.q == 0.5:
			rep.errorf("%s needs %d samples, the run has %d", p.name, samplesFor(p.q), len(xs))
		}
	}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times on Linux.
const clockTicks = 100

// procCPUMS reads a process's user+system CPU time, in milliseconds,
// from /proc/<pid>/stat.
func procCPUMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	// Fields after the command name start at field 3 (state); utime
	// and stime are fields 14 and 15.
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return (ut + st) * 1000 / clockTicks, nil
}

// procRSSMB reads a process's resident set (VmRSS), in MiB, from
// /proc/<pid>/status.
func procRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fs := strings.Fields(sc.Text()); len(fs) >= 2 && fs[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(fs[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// selfCPUMS returns this process's user+system CPU time in
// milliseconds, at microsecond resolution.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := ru.Utime.Sec*1e6 + int64(ru.Utime.Usec) + ru.Stime.Sec*1e6 + int64(ru.Stime.Usec)
	return float64(us) / 1000
}

// selfRSSMB returns this process's resident set in MiB.
func selfRSSMB() float64 {
	rss, _ := procRSSMB(os.Getpid())
	return rss
}
