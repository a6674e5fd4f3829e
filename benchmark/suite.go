package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selected returns the workloads named by --workload (a name or a
// comma-separated list), all four by default.
func selected(o options) ([]string, error) {
	if o.workload == "" {
		return workloadNames, nil
	}
	var out []string
	for _, w := range strings.Split(o.workload, ",") {
		if _, dp := dpWorkloads[w]; !dp && w != "ctl_storm" {
			return nil, fmt.Errorf("unknown workload %q (have: %s)", w, strings.Join(workloadNames, ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

// runChild runs one workload once in a child process of its own, so that
// peak RSS, allocation counts and collector state never leak from one
// workload into the next, and returns the result file the child wrote.
// The child's output passes through. A child that fails its checks
// still returns its report, with the error.
func runChild(o options, workload string, trace int, seed int64) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	limit := 3*o.dur + 90*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds),
		"--trace", fmt.Sprint(trace), "--out", o.out, "--flexnetd", o.flexnetd)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(filepath.Join(o.out, resultFile(workload, trace)))
	if err != nil {
		return nil, fmt.Errorf("%s trace=%d: no result (%v): %w", workload, trace, runErr, err)
	}
	rep := &report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s trace=%d: %w", workload, trace, err)
	}
	if runErr != nil {
		return rep, fmt.Errorf("%s trace=%d seed=%d: %w", workload, trace, seed, runErr)
	}
	return rep, nil
}

// runAll runs every selected workload, timed and traced (or only the one
// --trace names), each run in its own child, and writes results.json.
func runAll(o options) error {
	names, err := selected(o)
	if err != nil {
		return err
	}
	if o.flexnetd, err = flexnetdBinary(o); err != nil {
		return err
	}
	traces := []int{0, 1}
	if o.trace >= 0 {
		traces = []int{o.trace}
	}
	var runs []*report
	var failed []string
	for _, w := range names {
		digest := ""
		for _, t := range traces {
			rep, err := runChild(o, w, t, o.seed)
			if err != nil {
				failed = append(failed, err.Error())
			}
			if rep == nil {
				continue
			}
			runs = append(runs, rep)
			if digest != "" && rep.Digest != digest {
				failed = append(failed, fmt.Sprintf("%s: sim_digest differs between the timed and the traced run: %s vs %s", w, digest, rep.Digest))
			}
			digest = rep.Digest
		}
	}
	if err := writeJSON(filepath.Join(o.out, "results.json"), map[string]any{
		"machine": newFingerprint(o.seed, o.dur), "runs": runs, "failures": failed,
	}); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", filepath.Join(o.out, "results.json"))
	if len(failed) != 0 {
		return fmt.Errorf("%d failure(s):\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// selfcheck asks whether the benchmark agrees with itself on this box:
// two sets of three timed runs per workload must have medians within
// each end-to-end metric's own bound, and one full run (timed and
// traced) at the next seed, which no one tuned against, must pass every
// check and report every metric.
func selfcheck(o options) error {
	names, err := selected(o)
	if err != nil {
		return err
	}
	if o.flexnetd, err = flexnetdBinary(o); err != nil {
		return err
	}
	var failed []string
	medians := [2]map[string]float64{{}, {}}
	for set := range medians {
		for _, w := range names {
			vals := map[string][]float64{}
			for run := 0; run < 3; run++ {
				rep, err := runChild(o, w, 0, o.seed)
				if err != nil {
					return fmt.Errorf("selfcheck set %d: %w", set+1, err)
				}
				for _, d := range endToEnd {
					vals[d.Name] = append(vals[d.Name], rep.Values[d.Name])
				}
			}
			for name, v := range vals {
				medians[set][w+" "+name] = median(v)
			}
		}
	}
	fmt.Println("selfcheck: workload metric set1 set2 difference bound")
	for _, w := range names {
		for _, d := range endToEnd {
			a, b := medians[0][w+" "+d.Name], medians[1][w+" "+d.Name]
			diff := math.Abs(a-b) / a
			verdict := "ok"
			if diff > d.Bound {
				verdict = "DISAGREES"
				failed = append(failed, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.1f%% > bound %.0f%%", w, d.Name, a, b, 100*diff, 100*d.Bound))
			}
			fmt.Printf("selfcheck: %s %s %.6g %.6g %.1f%% %.0f%% %s\n", w, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	for _, w := range names {
		for _, t := range []int{0, 1} {
			if _, err := runChild(o, w, t, o.seed+1); err != nil {
				failed = append(failed, "held-out seed: "+err.Error())
			}
		}
	}
	if len(failed) != 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(failed, "\n  "))
	}
	fmt.Println("selfcheck: ok")
	return nil
}
