package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo is what every run records beside its numbers.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHostInfo(root string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file, "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// commit names the tree being measured, read from .git without running
// git. The driver's checkouts are not git repositories, so "unknown" is an
// expected answer, not an error.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(id, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return ref // a packed ref: name the branch instead
		}
		id = strings.TrimSpace(string(b))
	}
	return id[:min(12, len(id))]
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM")) // "123456 kB"
	if len(fields) == 0 {
		return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[0], err)
	}
	return kb / 1024, nil
}

// leakedGoroutines waits (up to two seconds) for goroutines started since
// base to exit and returns how many are still running: servers, workers and
// clients must all stop through their Close/context paths.
func leakedGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
