package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// facts describe the machine and source a result came from. Two results
// are comparable only when every field but Commit matches.
type facts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machineFacts() facts {
	return facts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// sameMachine reports whether two results' facts allow comparing them, and
// names the first fact that differs.
func sameMachine(a, b facts) (bool, string) {
	switch {
	case a.NumCPU != b.NumCPU:
		return false, "num_cpu"
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return false, "gomaxprocs"
	case a.CPUModel != b.CPUModel:
		return false, "cpu_model"
	case a.GoVersion != b.GoVersion:
		return false, "go_version"
	}
	return true, ""
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// children lists the pids whose parent is this process (the net daemons).
func children() []int {
	self := os.Getpid()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var pids []int
	for _, path := range stats {
		f := statFields(path)
		if len(f) > 1 && f[1] == strconv.Itoa(self) {
			if pid, err := strconv.Atoi(filepath.Base(filepath.Dir(path))); err == nil {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// statFields returns /proc/<pid>/stat after the command name: field 0 is
// the state, 1 the parent pid, 11 and 12 user and system clock ticks.
func statFields(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(string(data[i+1:]))
}

// clkTck is USER_HZ, the unit of /proc stat CPU fields on Linux.
const clkTck = 100

// childCPU sums user plus system CPU time of the given processes.
func childCPU(pids []int) time.Duration {
	var ticks int64
	for _, pid := range pids {
		f := statFields("/proc/" + strconv.Itoa(pid) + "/stat")
		if len(f) < 13 {
			continue
		}
		u, _ := strconv.ParseInt(f[11], 10, 64)
		s, _ := strconv.ParseInt(f[12], 10, 64)
		ticks += u + s
	}
	return time.Duration(ticks) * time.Second / clkTck
}

// rssBytes reads the resident set (VmRSS) of a process, in bytes.
func rssBytes(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024
		}
	}
	return 0
}

// rssSampler tracks the resident set of this process plus some children
// over a timed window: it samples every rssEvery and keeps the peak of
// each rssSlice.
type rssSampler struct {
	pids  []string
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

const (
	rssEvery = 10 * time.Millisecond
	rssSlice = time.Second
)

func startRSS(children []int) *rssSampler {
	s := &rssSampler{pids: []string{"self"}, stop: make(chan struct{}), done: make(chan struct{})}
	for _, pid := range children {
		s.pids = append(s.pids, strconv.Itoa(pid))
	}
	go s.loop()
	return s
}

func (s *rssSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	sliceEnd := time.Now().Add(rssSlice)
	peak := 0.0
	for {
		select {
		case <-s.stop:
			if peak > 0 {
				s.peaks = append(s.peaks, peak)
			}
			return
		case now := <-tick.C:
			total := 0.0
			for _, pid := range s.pids {
				total += rssBytes(pid)
			}
			peak = max(peak, total)
			if now.After(sliceEnd) {
				s.peaks = append(s.peaks, peak)
				peak, sliceEnd = 0, now.Add(rssSlice)
			}
		}
	}
}

// finish stops sampling and returns the median per-slice peak in MiB: the
// resident set the window typically reaches, which unlike the single
// highest sample does not hinge on one chance overlap of two jobs with a
// garbage collection.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.peaks) / (1 << 20)
}

// goStats samples the Go runtime's allocation and GC CPU counters.
type goStats struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}
