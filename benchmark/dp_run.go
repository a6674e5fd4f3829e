package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

func runDataPlane(w *dpWorkload, o options, rep *report) error {
	if o.trace == 1 {
		return tracedDataPlane(w, o, rep)
	}
	return timedDataPlane(w, o, rep)
}

// timedDataPlane is the tracing-off run: set up (three times, for a
// steady setup_s), measure for --seconds, check, report the end-to-end
// metrics.
func timedDataPlane(w *dpWorkload, o options, rep *report) error {
	var run *dpRun
	var setups []float64
	for i := 0; i < o.setups; i++ {
		run = nil
		runtime.GC() // the previous build is garbage; do not let it inflate this one's time or the peak RSS
		r, digest, dur, err := setupDP(w, o, 0)
		if err != nil {
			return err
		}
		if rep.Digest != "" && digest != rep.Digest {
			rep.failf("%s: sim_digest differs between two set-ups at one seed: %s vs %s", w.name, rep.Digest, digest)
		}
		run, rep.Digest = r, digest
		setups = append(setups, dur.Seconds())
	}
	c, err := run.measure(o.dur, nil)
	if err != nil {
		rep.failf("%v", err)
	}
	rep.Attempted, rep.Failed = run.finish(rep)
	rep.setEndToEnd(setups, c.win)
	changes, failedChanges := 0, 0
	if run.reconf != nil {
		changes, failedChanges = run.reconf.attempted, run.reconf.failed
	}
	fmt.Printf("%s timed_run packets %d  hops %d  steps %d  wall_rate %.0f  allocs_per_pkt %.2f  gcs %d  changes %d  failed_changes %d  setups %.3g\n",
		w.name, c.delivered, c.hops, len(c.win.main), c.rate(), ratio(float64(c.mallocs), float64(c.delivered)), c.gcs, changes, failedChanges, setups)
	return nil
}

// tracedDataPlane is the traced run, four builds at one seed: an untraced
// stretch for the layer counters; the layer probes on a fresh build's
// devices and the workload's own packets; the workload again with the
// benchmark's spans on; and once more with one worker. All four must
// reach the same simulation digest.
func tracedDataPlane(w *dpWorkload, o options, rep *report) error {
	tr := newTracer()
	build := func(workers int, what string) (*dpRun, error) {
		r, digest, _, err := setupDP(w, o, workers)
		if err != nil {
			return nil, err
		}
		if rep.Digest == "" {
			rep.Digest = digest
		} else if digest != rep.Digest {
			rep.failf("%s: sim_digest of the %s differs from the untraced run's at one seed: %s vs %s", w.name, what, digest, rep.Digest)
		}
		return r, nil
	}
	stretch := func(r *dpRun, share time.Duration, tr *tracer) dpCounts {
		c, err := r.measure(o.dur*share/10, tr)
		if err != nil {
			rep.failf("%v", err)
		}
		sent, lost := r.finish(rep)
		rep.Attempted, rep.Failed = rep.Attempted+sent, rep.Failed+lost
		return c
	}

	// 1. Untraced, default workers: the counts the fabric rows divide by.
	base, err := build(0, "untraced run")
	if err != nil {
		return err
	}
	bc := stretch(base, 4, nil)
	fabricMetrics(rep, base, bc)
	rep.set("netsim.step_p99_ms", bc.win.stepQuantile(0.99))
	var changes []float64
	for kind, lats := range bc.win.byKind {
		if kind != "run" {
			changes = append(changes, lats...)
		}
	}
	rep.set("controller.change_wall_ms", median(changes))

	// 2. Probes, straight after the stretch their figures are set against
	// (the machine's speed drifts within a run), on the devices as the
	// warm-up leaves them: a state that depends on the seed alone, so the
	// instruction and lookup counts repeat exactly.
	fresh, err := build(0, "probe build")
	if err != nil {
		return err
	}
	probeDataPlane(rep, tr, fresh, bc)

	// 3. Spans on.
	traced, err := build(0, "traced run")
	if err != nil {
		return err
	}
	tc := stretch(traced, 3, tr)
	rep.set("trace.overhead_ratio", ratio(tc.rate(), bc.rate()))
	migrateMetrics(rep, tr, traced)

	// 4. One worker.
	one, err := build(1, "one-worker run")
	if err != nil {
		return err
	}
	oc := stretch(one, 3, nil)
	rep.set("netsim.workers", float64(base.net.NumWorkers()))
	rep.set("netsim.workers1_speedup", ratio(oc.rate(), bc.rate()))

	rep.zeroGroup("cp")
	tr.summary(w.name)
	return tr.write(filepath.Join(o.out, "trace-"+w.name+".json"), w.name)
}

// fabricMetrics derives the whole-hop rows from the untraced stretch:
// wall, allocations and CPU divided by hops or packets.
func fabricMetrics(rep *report, r *dpRun, c dpCounts) {
	pk, hops := float64(c.delivered), float64(c.hops)
	rep.set("fabric.hop_ns_per_pkt", ratio(float64(c.wall), hops))
	rep.set("fabric.hops_per_pkt", ratio(hops, pk))
	rep.set("fabric.allocs_per_hop", ratio(float64(c.mallocs), hops))
	rep.set("fabric.allocs_per_pkt", ratio(float64(c.mallocs), pk))
	rep.set("fabric.alloc_bytes_per_pkt", ratio(float64(c.allocB), pk))
	rep.set("fabric.cpu_us_per_pkt", ratio(float64(c.cpu)/1e3, pk))
	rep.set("fabric.build_ms", r.buildMS)
	rep.set("netsim.events_per_pkt", ratio(float64(c.stats["fabric.batch.events"]), pk))
	rep.set("netsim.batch_size_avg", ratio(float64(c.stats["fabric.batch.events"]), float64(c.stats["fabric.batches"])))

	var flips int64
	var fc struct{ hits, misses, inval uint64 }
	for _, name := range r.net.Fabric().Devices() {
		flips += c.stats["dev."+name+".epoch_flips"]
		s := r.net.Device(name).FlowCacheStats()
		fc.hits, fc.misses, fc.inval = fc.hits+s.Hits, fc.misses+s.Misses, fc.inval+s.Invalidations
	}
	rep.set("dataplane.epoch_flips", float64(flips))
	enabled := 0.0
	if fc.hits+fc.misses+fc.inval > 0 {
		enabled = 1
	}
	rep.set("flowcache.enabled", enabled)
	rep.set("flowcache.hit_ratio", ratio(float64(fc.hits), float64(fc.hits+fc.misses)))
	rep.set("flowcache.invalidations", float64(fc.inval))
}

// migrateMetrics reads the spans around Network.Migrate in the traced run.
func migrateMetrics(rep *report, tr *tracer, r *dpRun) {
	count, d, chunks := tr.total("flexnet.Migrate")
	rep.set("migrate.wall_ms", ratio(ms(d), float64(count)))
	rep.set("migrate.entries_moved", ratio(float64(chunks), float64(count)))
	rep.set("migrate.lost_updates", float64(r.net.Metrics().CounterValue("migrate.lost_updates")))
}
