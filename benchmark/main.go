// Command benchmark is the repository's wall-clock benchmark: four
// workloads (fabric_light, pipeline_heavy, stateful_reconfig, ctl_storm)
// run against the system at its defaults, end-to-end metrics with
// tracing off, and a separate traced run with layer probes. README.md
// in this directory describes the workloads and every metric;
// BENCHMARK.json at the repository root is the machine-readable list.
//
//	bash benchmark/run.sh                                  # all workloads, both runs
//	bash benchmark/run.sh --workload ctl_storm --trace 0   # one run, JSON result on the last line
//	bash benchmark/run.sh --selfcheck                      # is the benchmark steady on this box?
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// workloadNames is the order workloads run in.
var workloadNames = []string{"fabric_light", "pipeline_heavy", "stateful_reconfig", "ctl_storm"}

var dpWorkloads = map[string]*dpWorkload{
	"fabric_light":      fabricLight,
	"pipeline_heavy":    pipelineHeavy,
	"stateful_reconfig": statefulReconfig,
}

// opTimeout is the wall-clock limit on one control op or change.
const opTimeout = 10 * time.Second

// options are the benchmark's command-line settings, and the fixed
// sizes of a run that only the test makes smaller.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	out       string
	flexnetd  string
	selfcheck bool

	dur    time.Duration // the timed window: --seconds
	warmup time.Duration // simulated warm-up of a data-plane workload
	setups int           // set-ups per run; setup_s is their median
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, each in its own child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for flow tuples, arrivals and the op mix")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed window, in seconds")
	flag.IntVar(&o.trace, "trace", -1, "0: timed run, end-to-end metrics; 1: traced run and layer probes, per-layer metrics (default: both)")
	flag.StringVar(&o.out, "out", "", "directory for results.json and trace-<workload>.json (default: a temporary directory)")
	flag.StringVar(&o.flexnetd, "flexnetd", "", "path of a built flexnetd binary (default: build ./cmd/flexnetd)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the set twice and at a held-out seed, and fail if the benchmark disagrees with itself")
	flag.Parse()
	if flag.NArg() != 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments; see -h")
		os.Exit(2)
	}
	o.dur, o.warmup, o.setups = time.Duration(o.seconds)*time.Second, 100*time.Millisecond, 3
	if o.out == "" {
		dir, err := os.MkdirTemp("", "flexnet-benchmark-")
		if err != nil {
			fatal(err)
		}
		o.out = dir
	} else if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	var err error
	if o.out, err = filepath.Abs(o.out); err != nil {
		fatal(err)
	}
	switch {
	case o.selfcheck:
		err = selfcheck(o)
	case o.workload != "" && !strings.Contains(o.workload, ",") && o.trace >= 0:
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one workload once, in this process, and prints its result.
// It exits non-zero when a correctness check fails.
func runOne(o options) error {
	fp := newFingerprint(o.seed, o.dur)
	rep := newReport(o.workload, o.trace == 1, fp)
	// The whole-run watchdog: a run that hangs is killed (with whatever
	// it spawned) instead of stalling the pipeline.
	limit := 3*o.dur + 60*time.Second
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	stop := armWatchdog(limit, o.workload+": whole run")
	defer stop()

	var err error
	if w, ok := dpWorkloads[o.workload]; ok {
		err = runDataPlane(w, o, rep)
	} else if o.workload == "ctl_storm" {
		err = runCtlStorm(o, rep)
	} else {
		return fmt.Errorf("unknown workload %q (have: %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		rep.failf("%v", err)
	}
	rep.Machine.LoadEnd = loadAvg1()
	rep.check()
	if werr := writeJSON(filepath.Join(o.out, resultFile(o.workload, o.trace)), rep); werr != nil {
		rep.failf("%v", werr)
	}
	rep.print()
	if len(rep.Errors) != 0 || rep.Failed != 0 {
		os.Exit(1)
	}
	return nil
}

func resultFile(workload string, trace int) string {
	return fmt.Sprintf("result-%s-trace%d.json", workload, trace)
}

// Watchdogs. A fired watchdog reports what hung, runs the registered
// clean-ups (killing the daemon) and exits non-zero; nothing in the
// benchmark can hang the pipeline that runs it.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

// onExit registers fn to run if a watchdog fires.
func onExit(fn func()) {
	cleanupMu.Lock()
	cleanups = append(cleanups, fn)
	cleanupMu.Unlock()
}

// armWatchdog starts a timer for one op or run; the returned function
// disarms it.
func armWatchdog(d time.Duration, what string) (stop func()) {
	t := time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "benchmark: WATCHDOG: %s still running after %v; marking it failed and exiting\n", what, d)
		cleanupMu.Lock()
		for _, fn := range cleanups {
			fn()
		}
		cleanupMu.Unlock()
		os.Exit(3)
	})
	return func() { t.Stop() }
}
