package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDef names one metric. The tables below are the benchmark's
// vocabulary; BENCHMARK.json at the repository root lists the same names
// and the test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// group says which workloads measure a per-layer metric: "dp" the
	// three data-plane workloads, "cp" ctl_storm, "all" every workload.
	// A workload reports 0 for the metrics of the group it is not in.
	group string
}

// endToEnd is what a user of the system sees. A "unit" of work is a
// packet delivered to its destination host (data-plane workloads) or a
// mutating op answered ok (ctl_storm); a "step" is what the user waits
// for: one RunFor advance of simulated time, or one mutating op.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "units_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "step_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

func layer(group, name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, group: group}
}

// perLayer is one row per layer counter or probe; the layers are this
// repository's packages. README.md says how each is measured and which
// end-to-end metric it should move.
var perLayer = []metricDef{
	layer("dp", "packet.build_ns", "ns", "lower"),
	layer("dp", "packet.build_allocs", "count", "lower"),
	layer("dp", "packet.checkfields_ns", "ns", "lower"),
	layer("dp", "packet.flowkey_ns", "ns", "lower"),
	layer("dp", "packet.parse_ns", "ns", "lower"),
	layer("dp", "packet.parse_allocs", "count", "lower"),

	layer("dp", "flexbpf.run_ns_per_pkt", "ns", "lower"),
	layer("dp", "flexbpf.ns_per_instr", "ns", "lower"),
	layer("dp", "flexbpf.instrs_per_pkt", "count", "lower"),
	layer("dp", "flexbpf.lookups_per_pkt", "count", "lower"),
	layer("dp", "flexbpf.table_exact_ns", "ns", "lower"),
	layer("dp", "flexbpf.table_lpm_ns", "ns", "lower"),
	layer("cp", "flexbpf.verify_us", "us", "lower"),
	layer("cp", "flexbpf.link_us", "us", "lower"),
	layer("cp", "flexbpf.linkcache_hit_ratio", "ratio", "higher"),

	layer("dp", "flowcache.enabled", "count", "higher"),
	layer("dp", "flowcache.hit_ratio", "ratio", "higher"),
	layer("dp", "flowcache.lookup_ns", "ns", "lower"),
	layer("dp", "flowcache.replay_ns", "ns", "lower"),
	layer("dp", "flowcache.invalidations", "count", "lower"),

	layer("dp", "dataplane.process_ns_per_pkt", "ns", "lower"),
	layer("dp", "dataplane.process_allocs_per_pkt", "count", "lower"),
	layer("dp", "dataplane.self_ns_per_pkt", "ns", "lower"),
	layer("cp", "dataplane.prepare_us", "us", "lower"),
	layer("cp", "dataplane.activate_us", "us", "lower"),
	layer("all", "dataplane.epoch_flips", "count", "lower"),

	layer("dp", "netsim.event_ns", "ns", "lower"),
	layer("dp", "netsim.event_allocs", "count", "lower"),
	layer("dp", "netsim.source_ns_per_pkt", "ns", "lower"),
	layer("dp", "netsim.events_per_pkt", "count", "lower"),
	layer("dp", "netsim.batch_size_avg", "count", "higher"),
	layer("dp", "netsim.workers", "count", "higher"),
	layer("dp", "netsim.workers1_speedup", "ratio", "lower"),
	layer("dp", "netsim.step_p99_ms", "ms", "lower"),

	layer("dp", "fabric.hop_ns_per_pkt", "ns", "lower"),
	layer("dp", "fabric.hops_per_pkt", "count", "lower"),
	layer("dp", "fabric.allocs_per_hop", "count", "lower"),
	layer("dp", "fabric.allocs_per_pkt", "count", "lower"),
	layer("dp", "fabric.alloc_bytes_per_pkt", "B", "lower"),
	layer("dp", "fabric.cpu_us_per_pkt", "us", "lower"),
	layer("dp", "fabric.self_ns_per_hop", "ns", "lower"),
	layer("dp", "fabric.build_ms", "ms", "lower"),

	layer("cp", "routing.install_ms", "ms", "lower"),
	layer("cp", "routing.link_event_us", "us", "lower"),

	layer("cp", "compiler.place_us", "us", "lower"),
	layer("cp", "compiler.recompile_us", "us", "lower"),
	layer("cp", "compiler.targets_scanned_per_op", "count", "lower"),
	layer("cp", "controller.plan_deploy_us", "us", "lower"),
	layer("cp", "plan.validate_us", "us", "lower"),
	layer("cp", "runtime.exec_wall_us", "us", "lower"),
	layer("cp", "runtime.sim_change_p50_ms", "ms", "lower"),
	layer("cp", "controller.op_wall_us.deploy", "us", "lower"),
	layer("cp", "controller.op_wall_us.remove", "us", "lower"),
	layer("cp", "controller.op_wall_us.scale", "us", "lower"),
	layer("cp", "controller.op_wall_us.migrate", "us", "lower"),
	layer("cp", "controller.op_wall_us.update", "us", "lower"),
	layer("dp", "controller.change_wall_ms", "ms", "lower"),

	layer("cp", "spec.load_us", "us", "lower"),
	layer("cp", "spec.resolve_us", "us", "lower"),
	layer("cp", "spec.diff_us", "us", "lower"),
	layer("cp", "spec.apply_ms", "ms", "lower"),
	layer("cp", "audit.verify_ms_per_10k", "ms", "lower"),
	layer("cp", "audit.replay_ms_per_10k", "ms", "lower"),
	layer("cp", "audit.records", "count", "lower"),

	layer("dp", "migrate.wall_ms", "ms", "lower"),
	layer("dp", "migrate.entries_moved", "count", "lower"),
	layer("dp", "migrate.lost_updates", "count", "lower"),

	layer("cp", "cluster.ha_op_overhead_ratio", "ratio", "lower"),

	layer("dp", "telemetry.overhead_ns_per_pkt", "ns", "lower"),
	layer("cp", "telemetry.snapshot_ms", "ms", "lower"),

	layer("cp", "api.rtt_floor_us", "us", "lower"),
	layer("cp", "api.op_p50_ms.deploy", "ms", "lower"),
	layer("cp", "api.op_p50_ms.deploy-dry-run", "ms", "lower"),
	layer("cp", "api.op_p50_ms.remove", "ms", "lower"),
	layer("cp", "api.op_p50_ms.scale-out", "ms", "lower"),
	layer("cp", "api.op_p50_ms.scale-in", "ms", "lower"),
	layer("cp", "api.op_p50_ms.migrate", "ms", "lower"),
	layer("cp", "api.op_p50_ms.spec-apply", "ms", "lower"),
	layer("cp", "api.op_p50_ms.spec-diff", "ms", "lower"),
	layer("cp", "api.op_p99_ms", "ms", "lower"),
	layer("cp", "api.read_ops_per_s", "1/s", "higher"),
	layer("cp", "api.read_p50_ms", "ms", "lower"),
	layer("cp", "api.resp_bytes_per_op", "B", "lower"),
	layer("cp", "api.daemon_cpu_us_per_op", "us", "lower"),

	layer("all", "trace.overhead_ratio", "ratio", "higher"),
}

// report collects one run's metrics, failure accounting and check
// results, and prints them.
type report struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Machine   fingerprint        `json:"machine"`
	Values    map[string]float64 `json:"values"`
	Digest    string             `json:"sim_digest,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

func newReport(workload string, trace bool, fp fingerprint) *report {
	return &report{Workload: workload, Trace: trace, Machine: fp, Values: map[string]float64{}}
}

// failf records a broken check; any one makes the run incorrect.
func (r *report) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Errors = append(r.Errors, msg)
	fmt.Fprintln(os.Stderr, "CHECK FAILED:", msg)
}

// set records a metric. Setting a name twice, a name the run's table does
// not hold, or a value that is not a finite number, is a bug in the
// benchmark and fails the run.
func (r *report) set(name string, v float64) {
	if _, dup := r.Values[name]; dup {
		r.failf("metric %s set twice", name)
	}
	known := false
	for _, d := range r.defs() {
		known = known || d.Name == name
	}
	if !known {
		r.failf("metric %s is not in the benchmark's tables", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.failf("metric %s is not finite: %v", name, v)
		v = 0
	}
	r.Values[name] = v
}

// setEndToEnd records the four end-to-end metrics of a timed run.
func (r *report) setEndToEnd(setups []float64, m *meter) {
	r.set("setup_s", median(append([]float64(nil), setups...)))
	r.set("units_per_s", m.unitsPerSecond())
	r.set("step_p50_ms", m.stepQuantile(0.5))
	r.set("rss_mb", m.rssMedian())
}

// zeroGroup reports 0 for every per-layer metric of a group this
// workload does not exercise.
func (r *report) zeroGroup(group string) {
	for _, d := range perLayer {
		if d.group == group {
			r.set(d.Name, 0)
		}
	}
}

func (r *report) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// ratio is a/b, or 0 when b is 0 (a count that did not occur).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// check validates the finished report: every metric of the run's table
// was measured, no end-to-end metric is zero, and something was
// attempted. Breaches are recorded like any failed check.
func (r *report) check() {
	for _, d := range r.defs() {
		if v, ok := r.Values[d.Name]; !ok {
			r.failf("metric %s was not measured", d.Name)
		} else if v == 0 && !r.Trace {
			r.failf("end-to-end metric %s is zero", d.Name)
		}
	}
	if r.Attempted == 0 {
		// A run that got nowhere still reports one failed attempt.
		r.Attempted, r.Failed = 1, 1
	}
}

// print writes the run for people, one "workload metric value unit" line
// per metric, and then the machine-readable result as the last line of
// standard output.
func (r *report) print() {
	defs := r.defs()
	fmt.Printf("%s machine %s\n", r.Workload, r.Machine)
	if r.Digest != "" {
		fmt.Printf("%s sim_digest %s -\n", r.Workload, r.Digest)
	}
	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]outMetric{}
	for _, d := range defs {
		v := r.Values[d.Name]
		out[d.Name] = outMetric{v, d.Unit}
		fmt.Printf("%s %s %.6g %s\n", r.Workload, d.Name, v, d.Unit)
	}
	fmt.Printf("%s attempted %d count\n%s failed %d count\n%s failed_share %.6g ratio\n",
		r.Workload, r.Attempted, r.Workload, r.Failed, r.Workload, ratio(float64(r.Failed), float64(r.Attempted)))
	final, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{len(r.Errors) == 0 && r.Failed == 0, r.Attempted, r.Failed, out})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(final))
}
