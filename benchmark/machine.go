package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the machine and settings a result came from, so
// numbers from different boxes (or a noisy neighbour) are recognisable.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Workers    int     `json:"netsim_workers"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
}

func newFingerprint(seed int64, dur time.Duration) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		Commit:     gitCommit(),
		Seed:       seed,
		Seconds:    dur.Seconds(),
		Workers:    runtime.GOMAXPROCS(0), // Workers(0), the default, resolves to this
		LoadStart:  loadAvg1(),
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s commit=%s seed=%d seconds=%g netsim.workers=%d load1=%.2f..%.2f",
		f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Kernel, f.Commit, f.Seed, f.Seconds, f.Workers, f.LoadStart, f.LoadEnd)
}

// readFile returns the file's contents, or "" when it cannot be read
// (the /proc readers below degrade to zero values off Linux).
func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg1() float64 {
	f := strings.Fields(readFile("/proc/loadavg"))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // malformed /proc reads as 0, like an unreadable one
	return v
}

// gitCommit is the short HEAD of the checkout, or "unknown" where the
// benchmark runs from an exported tree.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// rssMB is VmRSS of the process, in MB (Linux /proc only).
func rssMB(pid int) float64 {
	for _, line := range strings.Split(readFile(fmt.Sprintf("/proc/%d/status", pid)), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64) // malformed reads as 0 and fails the never-zero check
				return kb / 1024
			}
		}
	}
	return 0
}

// procCPU is the user+system CPU time the process has used so far, from
// /proc/<pid>/stat at the kernel's 100 Hz tick.
func procCPU(pid int) time.Duration {
	s := readFile(fmt.Sprintf("/proc/%d/stat", pid))
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64) // utime; malformed reads as 0
	st, _ := strconv.ParseInt(f[12], 10, 64) // stime
	return time.Duration(ut+st) * (time.Second / 100)
}

// selfCPU is this process's user+system CPU time from getrusage.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
