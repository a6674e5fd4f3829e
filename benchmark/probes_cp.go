package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"flexnet"
	"flexnet/internal/apps"
	"flexnet/internal/compiler"
	"flexnet/internal/controller"
	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/flexbpf/delta"
)

// probeReps is how often a probe repeats its loop; it reports the median
// repeat, so a collection or a neighbour landing in one repeat does not
// move the figure.
const probeReps = 5

// probe times fn over n iterations, probeReps times, each repeat inside
// a span, and returns the median repeat's mean time per iteration (ns)
// and the mean heap allocations per iteration. prep, when not nil, runs
// untimed before every repeat (fresh packets for a loop that consumes
// them).
func probe(tr *tracer, parent int, name string, n int, prep func(), fn func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var times []float64
	var mallocs uint64
	for rep := 0; rep < probeReps; rep++ {
		if prep != nil {
			prep()
		}
		runtime.GC() // start every repeat from a collected heap
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.begin("probe."+name, parent, uint64(rep))
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(t0)
		tr.end(sp, uint64(n))
		runtime.ReadMemStats(&m1)
		times = append(times, float64(d)/float64(n))
		mallocs += m1.Mallocs - m0.Mallocs
	}
	return median(times), float64(mallocs) / float64(n*probeReps)
}

// once times a single call of fn (ns), inside a span.
func once(tr *tracer, parent int, name string, fn func()) float64 {
	sp := tr.begin("probe."+name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(sp, 1)
	return float64(d)
}

// us and ms convert nanoseconds, as a Duration or a probe's float.
func us[T time.Duration | float64](ns T) float64 { return float64(ns) / 1e3 }
func ms[T time.Duration | float64](ns T) float64 { return float64(ns) / 1e6 }

// replayOps is how many of ctl_storm's ops the in-process probe replays.
const replayOps = 500

// twin is an in-process k=8 network driven through the facade by the
// same op list ctl_storm sends over the socket: the control plane
// without JSON, loopback and the server lock.
type twin struct {
	net   *flexnet.Network
	model *ctlModel
	wall  map[string][]time.Duration // facade wall time per op kind
}

func newTwin(seed int64, ha bool) (*twin, error) {
	n, err := flexnet.New(seed).Topo("fat-tree:k=8").Build()
	if err != nil {
		return nil, err
	}
	if ha {
		n.EnableHA(3, flexnet.HAConfig{Seed: seed})
	}
	t := &twin{net: n, model: newCtlModel(seed), wall: map[string][]time.Duration{}}
	for _, op := range t.model.setupOps() {
		if err := t.exec(op); err != nil {
			return nil, fmt.Errorf("twin set-up: %w", err)
		}
	}
	return t, nil
}

func (t *twin) appSpec(op *ctlOp) (flexnet.AppSpec, error) {
	prog, err := apps.Builtin(op.App, op.app.seg, op.Args)
	return flexnet.AppSpec{Programs: []*flexnet.Program{prog}, Path: op.Path, Tenant: op.Tenant}, err
}

// exec runs one op through the facade, as flexnetd's dispatch does. The
// caller commits the op to the model (the set-up ops are committed when
// they are generated).
func (t *twin) exec(op *ctlOp) error {
	ctx := context.Background()
	var err error
	t0 := time.Now()
	switch op.Kind {
	case "tenant-add":
		_, err = t.net.AddTenant(op.Tenant)
	case "deploy", "deploy-dry-run":
		var spec flexnet.AppSpec
		if spec, err = t.appSpec(op); err == nil {
			_, err = t.net.Deploy(ctx, op.URI, spec, flexnet.DeployOptions{DryRun: op.Kind == "deploy-dry-run"})
		}
	case "remove":
		_, err = t.net.Remove(ctx, op.URI, flexnet.RemoveOptions{})
	case "scale-out", "scale-in":
		dir := flexnet.ScaleDirOut
		if op.Kind == "scale-in" {
			dir = flexnet.ScaleDirIn
		}
		_, err = t.net.Scale(ctx, flexnet.ScaleRequest{URI: op.URI, Segment: op.Segment, Device: op.Device, Direction: dir})
	case "migrate":
		_, _, err = t.net.Migrate(ctx, flexnet.MigrateRequest{URI: op.URI, Segment: op.Segment, Dst: op.Device})
	case "spec-apply":
		_, err = t.net.ApplySpec(ctx, flexnet.SpecApplyRequest{Source: op.Spec})
	case "spec-diff":
		_, err = t.net.DiffSpec(flexnet.SpecDiffRequest{Source: op.Spec})
	default:
		err = fmt.Errorf("unknown op kind %q", op.Kind)
	}
	t.wall[op.Kind] = append(t.wall[op.Kind], time.Since(t0))
	if err != nil {
		return fmt.Errorf("%s %s: %w", op.Kind, op.URI, err)
	}
	return nil
}

// step generates, runs and commits the storm's next op.
func (t *twin) step() error {
	op := t.model.next()
	if err := t.exec(op); err != nil {
		return err
	}
	t.model.commit(op)
	return nil
}

func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return us(sum) / float64(len(ds))
}

// probeControlPlane measures every control-plane layer in-process, on
// inputs taken from ctl_storm: its op list, its builtin kinds, its two
// spec revisions. A probe that errors fails the run.
func probeControlPlane(rep *report, tr *tracer, seed int64) {
	root := tr.begin("probes", -1, 0)
	defer func() { tr.end(root, 0) }()
	ctx := context.Background()

	t, err := newTwin(seed, false)
	if err != nil {
		rep.failf("control probe: %v", err)
		return
	}
	n, ctl := t.net, t.net.Controller()
	stats0 := counterMap(n.Stats())
	t.wall = map[string][]time.Duration{} // count the replayed ops only, not the set-up

	// Replay the storm's first ops. Before each real deploy, time the
	// planning and validation the deploy is about to do.
	var planDeploy, validate, place []time.Duration
	sp := tr.begin("probe.replay", root, 0)
	for i := 0; i < replayOps; i++ {
		op := t.model.next()
		if op.Kind == "deploy" {
			spec, err := t.appSpec(op)
			if err != nil {
				rep.failf("control probe: %v", err)
				return
			}
			dp := &flexnet.Datapath{Name: op.URI, Segments: spec.Programs, Owner: op.Tenant}
			targets := []compiler.Target{compiler.NewDeviceTarget(n.Device(op.Path[0]))}
			t0 := time.Now()
			_, perr := ctl.Compiler().Compile(dp, targets, op.Path)
			t1 := time.Now()
			cp, _, derr := ctl.PlanDeploy(op.URI, dp, controller.DeployOptions{Path: op.Path, Tenant: op.Tenant})
			t2 := time.Now()
			if perr != nil || derr != nil {
				rep.failf("control probe: plan %s: %v %v", op.URI, perr, derr)
				return
			}
			ctl.DryRun(cp)
			place, planDeploy, validate = append(place, t1.Sub(t0)), append(planDeploy, t2.Sub(t1)), append(validate, time.Since(t2))
		}
		osp := tr.begin("flexnet."+op.Kind, sp, uint64(i))
		err := t.exec(op)
		tr.end(osp, 1)
		if err != nil {
			rep.failf("control probe: op %d: %v", i, err)
			return
		}
		t.model.commit(op)
	}
	tr.end(sp, replayOps)
	stats := counterMap(n.Stats())
	for k, v := range stats0 {
		stats[k] -= v
	}

	rep.set("compiler.place_us", meanUS(place))
	rep.set("controller.plan_deploy_us", meanUS(planDeploy))
	rep.set("plan.validate_us", meanUS(validate))
	deployUS := meanUS(t.wall["deploy"])
	rep.set("controller.op_wall_us.deploy", deployUS)
	rep.set("controller.op_wall_us.remove", meanUS(t.wall["remove"]))
	rep.set("controller.op_wall_us.scale", meanUS(append(t.wall["scale-out"], t.wall["scale-in"]...)))
	rep.set("controller.op_wall_us.migrate", meanUS(t.wall["migrate"]))
	// What is left of a deploy after planning: validate, prepare, commit
	// and the audit append, i.e. the executor's share.
	rep.set("runtime.exec_wall_us", deployUS-meanUS(planDeploy))
	rep.set("compiler.targets_scanned_per_op", ratio(float64(stats["ctl.placement.targets_scanned"]), replayOps))
	var flips int64
	for _, name := range n.Fabric().Devices() {
		flips += stats["dev."+name+".epoch_flips"]
	}
	rep.set("dataplane.epoch_flips", float64(flips))
	var simMS []float64
	for _, r := range ctl.Executor().Reports {
		simMS = append(simMS, ms(r.Actual))
	}
	rep.set("runtime.sim_change_p50_ms", median(simMS))
	all := counterMap(n.Stats())
	rep.set("flexbpf.linkcache_hit_ratio", ratio(float64(all["linkcache.hits"]), float64(all["linkcache.hits"]+all["linkcache.misses"])))

	// Update: toggle one map's size on a dedicated app, and time the
	// incremental recompile the update does on the same inputs.
	const updURI = "flexnet://t0/update-probe"
	if err := deploy(n, updURI, []string{"p0-e0"}, flexnet.HeavyHitter("hh", 2, 128, 1000)); err != nil {
		rep.failf("control probe: %v", err)
		return
	}
	resize := func(i int) *flexnet.Delta {
		return &flexnet.Delta{Name: "resize", Ops: []flexnet.DeltaOp{
			{RemoveMaps: "hh_seen"},
			{AddMap: &flexbpf.MapSpec{Name: "hh_seen", Kind: flexbpf.MapHash, MaxEntries: 4096 << (i % 2), ValueBits: 1, Shared: true}},
		}}
	}
	var targets []compiler.Target
	for _, name := range n.Fabric().Devices() {
		targets = append(targets, compiler.NewDeviceTarget(n.Device(name)))
	}
	d, _ := probe(tr, root, "compiler.recompile", 100, nil, func(i int) {
		app := ctl.App(updURI)
		newProg, _, err := delta.Apply(app.Datapath.Segment("hh"), resize(i))
		if err != nil {
			rep.failf("control probe: delta: %v", err)
			return
		}
		newDP := &flexnet.Datapath{Name: updURI, Segments: []*flexnet.Program{newProg}}
		if _, err := ctl.Compiler().Recompile(app.Plan, app.Datapath, newDP, targets, app.Path); err != nil {
			rep.failf("control probe: recompile: %v", err)
		}
	})
	rep.set("compiler.recompile_us", us(d))
	d, _ = probe(tr, root, "flexnet.Update", 20, nil, func(i int) {
		if _, _, err := n.Update(ctx, flexnet.UpdateRequest{URI: updURI, Segment: "hh", Delta: resize(i + 1)}); err != nil {
			rep.failf("control probe: update: %v", err)
		}
	})
	rep.set("controller.op_wall_us.update", us(d))
	if _, err := n.Remove(ctx, updURI, flexnet.RemoveOptions{}); err != nil {
		rep.failf("control probe: %v", err)
	}

	// Spec: the storm's two revisions, as the model stands now.
	docs := [2][]byte{t.model.renderSpec(0), t.model.renderSpec(1)}
	var resolved [2]*flexnet.ResolvedSpec
	d, _ = probe(tr, root, "spec.Load", 40, nil, func(i int) {
		if _, err := flexnet.LoadSpec(docs[i%2]); err != nil {
			rep.failf("control probe: spec load: %v", err)
		}
	})
	rep.set("spec.load_us", us(d))
	d, _ = probe(tr, root, "spec.Resolve", 20, nil, func(i int) {
		s, err := flexnet.LoadSpec(docs[i%2])
		if err == nil {
			resolved[i%2], err = flexnet.ResolveSpec(s)
		}
		if err != nil {
			rep.failf("control probe: spec resolve: %v", err)
		}
	})
	rep.set("spec.resolve_us", us(d)-rep.Values["spec.load_us"])
	d, _ = probe(tr, root, "spec.Diff", 20, nil, func(i int) {
		if _, err := n.DiffSpec(flexnet.SpecDiffRequest{Resolved: resolved[i%2]}); err != nil {
			rep.failf("control probe: spec diff: %v", err)
		}
	})
	rep.set("spec.diff_us", us(d))
	d, _ = probe(tr, root, "spec.Apply", 4, nil, func(i int) {
		if _, err := n.ApplySpec(ctx, flexnet.SpecApplyRequest{Resolved: resolved[i%2]}); err != nil {
			rep.failf("control probe: spec apply: %v", err)
		}
	})
	rep.set("spec.apply_ms", ms(d))

	// Audit and telemetry, on the log and registry the probe produced.
	records := float64(n.Audit().Len())
	rep.set("audit.records", records)
	d, _ = probe(tr, root, "audit.Verify", 4, nil, func(int) {
		if err := n.Audit().Verify(); err != nil {
			rep.failf("control probe: audit verify: %v", err)
		}
	})
	rep.set("audit.verify_ms_per_10k", ratio(ms(d)*1e4, records))
	d, _ = probe(tr, root, "audit.Replay", 4, nil, func(int) {
		st, err := flexnet.ReplayAudit(n.Audit().Records())
		if err != nil || st.Canonical() != n.CanonicalIntent() {
			rep.failf("control probe: audit replay differs from live intent (err %v)", err)
		}
	})
	rep.set("audit.replay_ms_per_10k", ratio(ms(d)*1e4, records))
	d, _ = probe(tr, root, "telemetry.Snapshot", 40, nil, func(int) { n.Stats() })
	rep.set("telemetry.snapshot_ms", ms(d))

	probeHA(rep, tr, root, seed)
	probePrograms(rep, tr, root)
	probeRouting(rep, tr, root, seed)
}

// probeHA replays the same 200 ops on a plain network and on one with a
// three-replica HA controller; the ratio is what HA costs an op.
func probeHA(rep *report, tr *tracer, root int, seed int64) {
	const ops = 200
	var wall [2]float64
	for i, ha := range []bool{false, true} {
		t, err := newTwin(seed, ha)
		if err != nil {
			rep.failf("HA probe: %v", err)
			return
		}
		wall[i] = once(tr, root, fmt.Sprintf("cluster.replay.ha=%v", ha), func() {
			for j := 0; j < ops; j++ {
				if err := t.step(); err != nil {
					rep.failf("HA probe (ha=%v): op %d: %v", ha, j, err)
					return
				}
			}
		})
	}
	rep.set("cluster.ha_op_overhead_ratio", ratio(wall[1], wall[0]))
}

// probePrograms times verification, linking and a device-level
// install/remove of every builtin kind the storm deploys.
func probePrograms(rep *report, tr *tracer, root int) {
	var progs []*flexnet.Program
	for _, k := range builtinKinds {
		p, err := apps.Builtin(k.kind, k.seg, k.args)
		if err != nil {
			rep.failf("program probe: %v", err)
			return
		}
		progs = append(progs, p)
	}
	const rounds = 50
	n := rounds * len(progs)
	d, _ := probe(tr, root, "flexbpf.Verify", n, nil, func(i int) {
		if err := flexbpf.Verify(progs[i%len(progs)]); err != nil {
			rep.failf("program probe: verify: %v", err)
		}
	})
	rep.set("flexbpf.verify_us", us(d))
	tables := make([]map[string]*flexbpf.TableInstance, len(progs))
	for i, p := range progs {
		tables[i] = map[string]*flexbpf.TableInstance{}
		for _, ts := range p.Tables {
			tables[i][ts.Name] = flexbpf.NewTableInstance(ts)
		}
	}
	d, _ = probe(tr, root, "flexbpf.Link", n, nil, func(i int) {
		k := i % len(progs)
		if _, err := flexbpf.Link(progs[k], func(name string) *flexbpf.TableInstance { return tables[k][name] }); err != nil {
			rep.failf("program probe: link: %v", err)
		}
	})
	rep.set("flexbpf.link_us", us(d))

	// Install then remove one builtin on a stand-alone device: the two
	// halves of the executor's commit, timed apart.
	dev := dataplane.MustNew(dataplane.DefaultConfig("probe", dataplane.ArchRMT))
	var prepare, activate time.Duration
	sp := tr.begin("probe.dataplane.PrepareChange+Activate", root, 0)
	for i := 0; i < n; i++ {
		p := progs[i%len(progs)]
		for _, build := range []func(st *dataplane.StagedConfig) error{
			func(st *dataplane.StagedConfig) error { return st.Install(p, nil) },
			func(st *dataplane.StagedConfig) error { return st.Remove(p.Name) },
		} {
			t0 := time.Now()
			pc, err := dev.PrepareChange(build)
			t1 := time.Now()
			if err == nil {
				err = pc.Activate()
			}
			t2 := time.Now()
			if err != nil {
				rep.failf("program probe: prepare/activate %s: %v", p.Name, err)
				tr.end(sp, uint64(i))
				return
			}
			prepare, activate = prepare+t1.Sub(t0), activate+t2.Sub(t1)
		}
	}
	tr.end(sp, uint64(2*n))
	rep.set("dataplane.prepare_us", us(prepare)/float64(2*n))
	rep.set("dataplane.activate_us", us(activate)/float64(2*n))
}

// probeRouting times base-routing installation on a k=8 fabric and one
// link failure or repair with its route refresh.
func probeRouting(rep *report, tr *tracer, root int, seed int64) {
	var f *fabric.Fabric
	var installs []float64
	for i := 0; i < 3; i++ {
		f = fabric.New(seed)
		if err := fabric.BuildFatTree(f, fabric.FatTreeSpec{K: 8}); err != nil {
			rep.failf("routing probe: %v", err)
			return
		}
		installs = append(installs, ms(once(tr, root, "fabric.InstallBaseRouting", func() {
			if err := f.InstallBaseRouting(); err != nil {
				rep.failf("routing probe: %v", err)
			}
		})))
	}
	rep.set("routing.install_ms", median(installs))
	link := f.Net.LinkBetween("p0-e0", "p0-a0")
	d, _ := probe(tr, root, "routing.link_event", 20, nil, func(i int) {
		link.SetDown(i%2 == 0)
		if err := f.RefreshRoutes(); err != nil {
			rep.failf("routing probe: refresh: %v", err)
		}
	})
	rep.set("routing.link_event_us", us(d))
}
