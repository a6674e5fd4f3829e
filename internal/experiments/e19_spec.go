package experiments

import (
	"context"
	"fmt"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/audit"
	"flexnet/internal/compiler"
	"flexnet/internal/controller"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/runtime"
	"flexnet/internal/spec"
)

// e19SpecA is the initial declared network: two tenants, five apps,
// replica counts tuned so the A→B delta is a realistic mixed change set.
const e19SpecA = `
version: v1
tenants:
  - name: acme
  - name: globex
apps:
  - uri: flexnet://acme/fw
    tenant: acme
    segments:
      - name: fw
        app: firewall
        args: [64, 1024, 0]
        scale: 4
  - uri: flexnet://acme/hh
    tenant: acme
    segments:
      - name: hh
        app: heavy-hitter
        args: [2, 256, 1000]
        scale: 6
  - uri: flexnet://globex/rl
    tenant: globex
    segments:
      - name: rl
        app: rate-limiter
        scale: 8
  - uri: flexnet://infra/l2
    segments:
      - name: l2
        app: l2
        scale: 4
  - uri: flexnet://infra/mon
    segments:
      - name: int
        app: int
        scale: 2
`

// e19SpecB is the revised intent: retune the firewall (hitless swap on 4
// replicas), grow the heavy-hitter 6→40, shrink the rate limiter 8→2,
// retire the l2 app, and admit a new tenant with a 24-replica SYN
// defense. The monitor is untouched — the differ must not touch it.
const e19SpecB = `
version: v2
tenants:
  - name: acme
  - name: globex
  - name: initech
apps:
  - uri: flexnet://acme/fw
    tenant: acme
    segments:
      - name: fw
        app: firewall
        args: [64, 2048, 0]
        scale: 4
  - uri: flexnet://acme/hh
    tenant: acme
    segments:
      - name: hh
        app: heavy-hitter
        args: [2, 256, 1000]
        scale: 40
  - uri: flexnet://globex/rl
    tenant: globex
    segments:
      - name: rl
        app: rate-limiter
        scale: 2
  - uri: flexnet://infra/mon
    segments:
      - name: int
        app: int
        scale: 2
  - uri: flexnet://initech/syn
    tenant: initech
    segments:
      - name: syn
        app: syn-defense
        args: [2048, 10]
        scale: 24
`

// E19SpecReconcile measures declarative convergence: the same spec-A →
// spec-B intent change applied two ways on fat-tree k=8/16 fabrics.
// "spec" mode hands spec B to ApplySpec, which diffs it against live
// state and compiles the delta into at most DefaultSpecMaxPlans batched,
// device-disjoint plans per wave. "imperative" mode replays the
// identical delta through the per-op control API (one scale-out call per
// replica, remove+redeploy for the retune), which is what an operator
// without the differ does today. Traffic runs across the fabric during
// both convergences; the spec path must be hitless (zero infrastructure
// drops, zero intent drift) and the audit trail must replay to exactly
// the live intent state.
func E19SpecReconcile(seed int64) *Table {
	t := &Table{
		ID:      "E19",
		Title:   "Declarative spec reconcile: batched convergence vs imperative per-op replay",
		Claim:   "runtime-fungible programs and placements are resources you declare; the control plane owns converging to them (§3.4, DESIGN.md §14)",
		Columns: []string{"fabric", "switches", "mode", "ops", "plans", "ops/plan", "convergence", "drops", "drift", "replay"},
	}

	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	loadResolve := func(doc string) *spec.Resolved {
		s, err := spec.Load([]byte(doc))
		must(err)
		r, err := spec.Resolve(s)
		must(err)
		return r
	}
	specA := loadResolve(e19SpecA)
	specB := loadResolve(e19SpecB)

	type result struct {
		switches int
		ops      int // imperative per-op calls the delta covers
		plans    int // executed plans
		elapsed  netsim.Time
		drops    uint64 // infrastructure drops during convergence
		drift    int    // intent drift entries after settle (-1 = n/a)
		replay   string // audit replay vs live intent
	}

	// setup builds a fat-tree, converges it onto spec A, and starts one
	// cross-pod CBR flow per pod so convergence happens under load.
	setup := func(k int) (*fabric.Fabric, *controller.Controller, func(op func(done func(error)))) {
		f := fabric.New(seed)
		must(fabric.BuildFatTree(f, fabric.FatTreeSpec{K: k, HostsPerEdge: 1}))
		must(f.InstallBaseRouting())
		eng := runtime.NewEngine(f.Sim, runtime.DefaultCosts())
		ctl := controller.New(f, eng, compiler.StrategyBinPack)
		ctx := context.Background()

		await := func(op func(done func(error))) {
			settled := false
			op(func(err error) {
				must(err)
				settled = true
			})
			for i := 0; i < 2000 && !settled; i++ {
				f.Sim.RunFor(100 * time.Millisecond)
			}
			if !settled {
				panic("e19: control-plane op never completed")
			}
		}

		await(func(done func(error)) {
			ctl.ApplySpec(ctx, specA, controller.SpecOptions{}, func(_ *controller.SpecReport, err error) { done(err) })
		})

		// One flow per pod, each crossing to the next pod's first host, so
		// every tier carries packets while the change converges.
		for p := 0; p < k; p++ {
			src := f.Host(fmt.Sprintf("p%d-e0-h0", p)).NewSource(netsim.FlowSpec{
				Dst:     packet.IP(10, byte((p+1)%k), 0, 2),
				Proto:   packet.ProtoUDP,
				SrcPort: uint16(1000 + p), DstPort: 2000, PacketLen: 400,
			})
			src.StartCBR(5000)
		}
		f.Sim.RunFor(20 * time.Millisecond) // warm the flows before measuring
		return f, ctl, await
	}

	checkReplay := func(ctl *controller.Controller) string {
		if err := ctl.Audit().Verify(); err != nil {
			return "CHAIN BROKEN"
		}
		st, err := audit.Replay(ctl.Audit().Records())
		if err != nil {
			return "REPLAY ERROR"
		}
		if st.Canonical() != ctl.CanonicalIntent() {
			return "DIVERGED"
		}
		return "match"
	}

	// runSpec converges A→B with one ApplySpec call.
	runSpec := func(k int) result {
		f, ctl, await := setup(k)
		d0 := f.InfrastructureDrops()
		var rep *controller.SpecReport
		await(func(done func(error)) {
			ctl.ApplySpec(context.Background(), specB, controller.SpecOptions{}, func(r *controller.SpecReport, err error) {
				rep = r
				done(err)
			})
		})
		return result{
			switches: len(f.Devices()),
			ops:      rep.Ops,
			plans:    rep.PlansEmitted,
			elapsed:  rep.Elapsed,
			drops:    f.InfrastructureDrops() - d0,
			drift:    len(ctl.IntentDrift()),
			replay:   checkReplay(ctl),
		}
	}

	// runImperative replays the same A→B delta as today's per-op calls:
	// admit the tenant, six rate-limiter scale-ins, remove l2, retune the
	// firewall by remove+redeploy (no spec differ means no hitless swap
	// compilation), 34 heavy-hitter scale-outs, deploy the SYN defense
	// and scale it to 24. Every call is its own plan, serialized.
	runImperative := func(k int) result {
		f, ctl, await := setup(k)
		ctx := context.Background()
		exec := ctl.Executor()
		base := exec.Completed()
		d0 := f.InfrastructureDrops()
		t0 := f.Sim.Now()

		_, err := ctl.AddTenant("initech")
		must(err)
		ops := 1
		for i := 0; i < 6; i++ {
			reps := ctl.App("flexnet://globex/rl").Replicas["rl"]
			victim := reps[len(reps)-1]
			await(func(done func(error)) { ctl.ScaleIn(ctx, "flexnet://globex/rl", "rl", victim, done) })
			ops++
		}
		await(func(done func(error)) { ctl.Remove(ctx, "flexnet://infra/l2", done) })
		ops++
		await(func(done func(error)) { ctl.Remove(ctx, "flexnet://acme/fw", done) })
		ops++
		fw, err := apps.Builtin("firewall", "fw", []uint64{64, 2048, 0})
		must(err)
		await(func(done func(error)) {
			ctl.Deploy(ctx, "flexnet://acme/fw", &flexbpf.Datapath{Name: "flexnet://acme/fw", Segments: []*flexbpf.Program{fw}},
				controller.DeployOptions{Tenant: "acme"}, done)
		})
		ops++
		for i := 0; i < 3; i++ {
			await(func(done func(error)) { ctl.ScaleOut(ctx, "flexnet://acme/fw", "fw", "", done) })
			ops++
		}
		for i := 0; i < 34; i++ {
			await(func(done func(error)) { ctl.ScaleOut(ctx, "flexnet://acme/hh", "hh", "", done) })
			ops++
		}
		syn, err := apps.Builtin("syn-defense", "syn", []uint64{2048, 10})
		must(err)
		await(func(done func(error)) {
			ctl.Deploy(ctx, "flexnet://initech/syn", &flexbpf.Datapath{Name: "flexnet://initech/syn", Segments: []*flexbpf.Program{syn}},
				controller.DeployOptions{Tenant: "initech"}, done)
		})
		ops++
		for i := 0; i < 23; i++ {
			await(func(done func(error)) { ctl.ScaleOut(ctx, "flexnet://initech/syn", "syn", "", done) })
			ops++
		}

		return result{
			switches: len(f.Devices()),
			ops:      ops,
			plans:    exec.Completed() - base,
			elapsed:  f.Sim.Now() - t0,
			drops:    f.InfrastructureDrops() - d0,
			drift:    -1, // drift is measured against a spec; no spec was applied
			replay:   checkReplay(ctl),
		}
	}

	var specK16, imperK16 result
	hitless := true
	replayed := true
	for _, k := range []int{8, 16} {
		sr := runSpec(k)
		ir := runImperative(k)
		if k == 16 {
			specK16, imperK16 = sr, ir
		}
		if sr.drops != 0 || sr.drift != 0 {
			hitless = false
		}
		if sr.replay != "match" || ir.replay != "match" {
			replayed = false
		}
		label := fmt.Sprintf("fat-tree k=%d", k)
		for _, r := range []struct {
			mode string
			res  result
		}{{"spec", sr}, {"imperative", ir}} {
			drift := "-"
			if r.res.drift >= 0 {
				drift = di(r.res.drift)
			}
			t.Rows = append(t.Rows, []string{
				label, di(r.res.switches), r.mode,
				di(r.res.ops), di(r.res.plans),
				f2(float64(r.res.ops) / float64(r.res.plans)),
				ns(uint64(r.res.elapsed)), d(r.res.drops), drift, r.res.replay,
			})
		}
	}

	pct := 100 * float64(specK16.plans) / float64(imperK16.plans)
	hitWord := "hitless"
	if !hitless {
		hitWord = "NOT hitless"
	}
	replayWord := "audit replay byte-identical to live intent"
	if !replayed {
		replayWord = "audit replay DIVERGED"
	}
	t.Finding = fmt.Sprintf("declarative apply converges the k=16 A→B change in %d batched plans vs %d imperative plans (%.1f%%, %.1f ops/plan) and %.1f× faster, %s under cross-pod load; %s",
		specK16.plans, imperK16.plans, pct,
		float64(specK16.ops)/float64(specK16.plans),
		float64(imperK16.elapsed)/float64(specK16.elapsed),
		hitWord, replayWord)
	return t
}
