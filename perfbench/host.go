package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// host identifies the machine a result was measured on. Results from
// different hosts are not comparable; `perfbench compare` refuses them.
type host struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func thisHost() host {
	return host{
		Commit:     commit(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// sameMachine reports whether two results were measured on the same kind
// of host (the commit may differ: that is what a comparison compares).
func (h host) sameMachine(o host) bool {
	return h.CPU == o.CPU && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

// commit names the source revision: git's HEAD, or "unknown" outside a
// git checkout.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the host's aggregate CPU counters from /proc/stat and
// returns the ticks stolen by the hypervisor and the total (ok is false
// where /proc/stat is unavailable).
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter reports the share of the host's CPU time its hypervisor
// stole over a window: the context a run's wall-clock figures need.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{steal: s, total: t, ok: ok}
}

// note records the window's steal share in the run's notes.
func (m stealMeter) note(rep *report) {
	s, t, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return
	}
	rep.notes["host_steal"] = fmt.Sprintf("%.1f%% of host CPU time stolen by the hypervisor during the window", 100*float64(s-m.steal)/float64(t-m.total))
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// runtimeWindow measures the Go runtime's allocation and GC cost over a
// window of ops, and samples the live heap for its peak.
type runtimeWindow struct {
	ms0           runtime.MemStats
	gc0, total0   float64
	stop          chan struct{}
	wg            sync.WaitGroup
	heapPeakBytes uint64 // written by the sampler, read after it exits
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPUClasses() (gc, total float64) {
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{stop: make(chan struct{})}
	runtime.ReadMemStats(&w.ms0)
	w.gc0, w.total0 = readCPUClasses()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			w.heapPeakBytes = max(w.heapPeakBytes, sample[0].Value.Uint64())
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish stops the sampler and reports per-op allocation, the GC's share
// of CPU over the window, and the heap peak.
func (w *runtimeWindow) finish(ops int, layers map[string]float64) {
	close(w.stop)
	w.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, total := readCPUClasses()
	n := float64(max(ops, 1))
	layers["runtime.alloc_mib_per_op"] = float64(ms.TotalAlloc-w.ms0.TotalAlloc) / (1 << 20) / n
	layers["runtime.allocs_per_op"] = float64(ms.Mallocs-w.ms0.Mallocs) / n
	// The runtime updates its CPU-class estimates at each GC cycle; a
	// window without a cycle spent nothing on GC.
	layers["runtime.gc_cpu_fraction"] = 0
	if total > w.total0 {
		layers["runtime.gc_cpu_fraction"] = (gc - w.gc0) / (total - w.total0)
	}
	layers["runtime.heap_peak_mib"] = float64(w.heapPeakBytes) / (1 << 20)
}
