package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"flexnet"
	"flexnet/internal/flexbpf"
)

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestManifestMatchesTables keeps BENCHMARK.json and the benchmark's own
// metric tables in step: same names, units, directions and bounds, in
// the same order, and the same workloads.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	strip := func(in []metricDef) []metricDef {
		out := make([]metricDef, len(in))
		for i, d := range in {
			d.group = ""
			out[i] = d
		}
		return out
	}
	if !reflect.DeepEqual(m.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs from the endToEnd table:\n json %+v\n code %+v", m.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(m.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", m.Paths)
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
}

// smallOptions is a run small enough for a test: a third of a second of
// timed window, a short warm-up, one set-up.
func smallOptions(t *testing.T, workload string, trace int, flexnetd string) options {
	return options{
		workload: workload, seed: 1, trace: trace, out: t.TempDir(), flexnetd: flexnetd,
		dur: 300 * time.Millisecond, warmup: 10 * time.Millisecond, setups: 1,
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload, timed and
// traced, at a very short duration and checks the benchmark's contract
// with itself: every end-to-end and per-layer name is reported exactly
// once with a finite value, nothing failed, and the trace file parses
// with every span's parent present. A later change that breaks the
// benchmark's use of a public function fails here, not in the pipeline.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	flexnetd := filepath.Join(t.TempDir(), "flexnetd")
	if out, err := exec.Command("go", "build", "-o", flexnetd, "flexnet/cmd/flexnetd").CombinedOutput(); err != nil {
		t.Fatalf("build flexnetd: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, trace := range []int{0, 1} {
			o := smallOptions(t, w, trace, flexnetd)
			rep := newReport(w, trace == 1, newFingerprint(o.seed, o.dur))
			var err error
			if dp, ok := dpWorkloads[w]; ok {
				err = runDataPlane(dp, o, rep)
			} else {
				err = runCtlStorm(o, rep)
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			rep.check()
			rep.print()
			if len(rep.Errors) != 0 || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%d: attempted %d, failed %d, errors %v", w, trace, rep.Attempted, rep.Failed, rep.Errors)
			}
			want := endToEnd
			if trace == 1 {
				want = perLayer
			}
			if len(rep.Values) != len(want) {
				t.Errorf("%s trace=%d: %d metrics reported, want %d", w, trace, len(rep.Values), len(want))
			}
			for _, d := range want {
				v, ok := rep.Values[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%d: metric %s missing or not finite (%v)", w, trace, d.Name, v)
				}
			}
			if trace == 1 {
				checkTrace(t, filepath.Join(o.out, "trace-"+w+".json"))
			}
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tr.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range tr.Spans {
		if s.Parent < -1 || s.Parent >= len(tr.Spans) || s.Parent == i {
			t.Fatalf("%s: span %d (%s) has parent %d of %d spans", path, i, s.Name, s.Parent, len(tr.Spans))
		}
		if s.End < s.Start {
			t.Fatalf("%s: span %d (%s) never ended", path, i, s.Name)
		}
		if s.Parent >= 0 {
			if p := tr.Spans[s.Parent]; s.Start < p.Start || s.End > p.End {
				t.Fatalf("%s: span %d (%s) is not inside its parent %s", path, i, s.Name, p.Name)
			}
		}
	}
}

// TestBrokenCheckIsCaught puts a program that drops one flow's packets on
// stateful_reconfig's path (on s2, where the migrations land) and expects
// the conservation checks to fail the run.
func TestBrokenCheckIsCaught(t *testing.T) {
	drop := flexnet.NewProgram("dropper").Headers("eth", "ipv4", "tcp").
		If(flexbpf.Cond{Field: "tcp.sport", Op: flexbpf.CmpEq, Value: 10000},
			[]flexbpf.Stmt{flexbpf.SDo(flexbpf.NewAsm().Drop().MustBuild())}, nil).
		MustBuild()
	w := &dpWorkload{name: "stateful_reconfig", step: statefulReconfig.step,
		build: func(seed int64, workers int) (*dpRun, error) { return buildStateful(seed, workers, drop) }}
	o := smallOptions(t, w.name, 0, "")
	r, _, _, err := setupDP(w, o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.measure(o.dur, nil); err != nil {
		t.Fatal(err)
	}
	rep := newReport(w.name, false, fingerprint{})
	sent, lost := r.finish(rep)
	if lost == 0 || len(rep.Errors) == 0 {
		t.Fatalf("a policy-dropping app went unnoticed: sent %d, lost %d, errors %v", sent, lost, rep.Errors)
	}
	t.Logf("caught: %v", rep.Errors)
}
