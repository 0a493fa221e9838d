package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Host facts printed with every run. Each reader returns 0 when the
// kernel interface is missing, so the benchmark still runs (and says
// "unknown") where /proc or /sys is not mounted.

// llcBytes is the size of the highest-level CPU cache of cpu0.
func llcBytes() int64 {
	var best, level int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		l, err1 := readInt(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || l < level {
			continue
		}
		if b := parseSize(strings.TrimSpace(string(sz))); b > 0 {
			level, best = l, b
		}
	}
	return best
}

func readInt(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

// parseSize reads sysfs cache sizes such as "32K" or "300M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

// procField returns a "Name: <n> kB" field of a /proc status-style
// file in bytes.
func procField(path, name string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+":") {
			continue
		}
		fs := strings.Fields(strings.TrimPrefix(line, name+":"))
		if len(fs) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(fs[0], 10, 64)
		return v << 10
	}
	return 0
}

// peakRSS is the process's resident high-water mark (VmHWM); without
// /proc it falls back to the memory the Go runtime obtained from the OS.
func peakRSS() int64 {
	if v := procField("/proc/self/status", "VmHWM"); v > 0 {
		return v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// currentRSS is the process's resident set now, from /proc/self/statm
// (0 when unavailable).
func currentRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fs := strings.Fields(string(b))
	if len(fs) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fs[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rssSampler polls the resident set every few milliseconds and keeps
// the largest value since its last reset: the peak of one operation,
// where VmHWM only holds the peak of the whole process.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v := currentRSS(); v > s.peak.Load() {
					s.peak.Store(v)
				}
			}
		}
	}()
	return s
}

// reset returns the peak since the last reset and starts a new one
// from the current resident set.
func (s *rssSampler) reset() int64 {
	return s.peak.Swap(currentRSS())
}

// close stops the sampler and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

func mib(b int64) string {
	if b <= 0 {
		return "unknown"
	}
	return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
}

// printEnv writes the host and run description that precedes results.
func printEnv(workload string, seed int64, seconds int, trace bool) {
	fmt.Printf("env nproc=%d GOMAXPROCS=%d llc=%s ram=%s go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), mib(llcBytes()),
		mib(procField("/proc/meminfo", "MemTotal")), runtime.Version())
	fmt.Printf("env workload=%s seed=%d seconds=%d trace=%v\n", workload, seed, seconds, trace)
}
