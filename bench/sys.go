package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded with every result so a number can be traced to
// the conditions that produced it.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	// Connections is the number of concurrent load sources: 1 goroutine
	// for the in-process workloads, TCP connections for socket.
	Connections int `json:"connections"`
}

func newEnvironment(root string, seed int64, seconds int) environment {
	return environment{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commitOf(root),
		Seed:        seed,
		Seconds:     seconds,
		Connections: 1,
	}
}

// commitOf names the commit under test, or "unknown" outside a git
// checkout (the driver's checkout is not one).
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// findRoot walks up from the working directory to the checkout root,
// which is the directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// peakRSSMB returns a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSeconds returns a process's user+system CPU time from
// /proc/<pid>/stat, at the kernel's 100 Hz tick resolution.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from after the closing parenthesis (field 3 is the state).
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad times in /proc/%d/stat", pid)
	}
	const userHz = 100
	return (utime + stime) / userHz, nil
}

// goCounters is the Go runtime's view of the harness process, sampled
// around a measured phase.
type goCounters struct {
	gcCycles   uint32
	gcPauseNs  uint64
	mallocs    uint64
	allocBytes uint64
	heapBytes  uint64
}

func readGoCounters() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goCounters{m.NumGC, m.PauseTotalNs, m.Mallocs, m.TotalAlloc, m.HeapAlloc}
}
