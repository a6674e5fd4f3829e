package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/audit"
	"flexnet/internal/controller"
	"flexnet/internal/controller/cluster"
	"flexnet/internal/errdefs"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
)

// E20HAFailover measures hitless controller failover (DESIGN.md §15): a
// 3-replica HA controller drives a fat-tree k=8 carrying ~50 kpps of
// cross-pod traffic while the serving leader is killed at measured
// instants inside an in-flight change plan. A fault-free baseline run
// fixes the plan timeline (prepare start, commit instant, plan end), so
// the kill scenarios land at the exact simulated midpoint of the phase
// under test:
//
//   - killed between prepare and commit, the plan must roll back whole
//     (ErrFailover, no destination state, no drift);
//   - killed after the commit instant, the standby must resume the
//     plan's post steps and complete it with zero lost state updates.
//
// A two-replica marker program stamps every packet of one monitored
// flow at both its edge switches, so a single mixed-configuration
// packet — one that crossed an old-version and a new-version switch —
// is visible as an odd DSCP sum. After every scenario the standby's
// replayed audit chain must verify and match live intent.
func E20HAFailover(seed int64) *Table {
	t := &Table{
		ID:      "E20",
		Title:   "Replicated controller failover: leader killed mid-plan under 50 kpps",
		Claim:   "runtime reprogramming survives controller failure: a standby resumes or rolls back in-flight plans transactionally, with no mixed-configuration packets and no intent drift (§4, DESIGN.md §15)",
		Columns: []string{"scenario", "outcome", "failover", "resumed", "rolled", "mixed", "drift", "replay", "kpps"},
	}

	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}

	const (
		k       = 8
		markURI = "flexnet://e20/mark"
		hhURI   = "flexnet://e20/stats"
	)
	markInst := markURI + "#mark"

	// marker stamps ipv4.dscp += inc. With a replica at the monitored
	// flow's ingress edge (p0-e0) and egress edge (p1-e0), every packet
	// of that flow arrives with dscp = 2·inc; an odd sum is a packet
	// that saw two different program versions.
	marker := func(inc uint64) *flexbpf.Program {
		body := flexbpf.NewAsm().
			LdField(0, "ipv4.dscp").
			AddImm(0, inc).
			StField("ipv4.dscp", 0).
			Ret().
			MustBuild()
		return flexbpf.NewProgram("mark").Headers("eth", "ipv4").Do(body).MustBuild()
	}

	// Scenario schedule, relative to t0 (end of warm-up). All runs
	// submit the marker swap at t0 and the migration at t0+tMig, so the
	// baseline's measured timeline transfers to the kill runs verbatim.
	const (
		tMig    = 500 * time.Millisecond  // migrate submission
		tReflip = 1500 * time.Millisecond // re-swap after a rollback
		tEnd    = 3 * time.Second         // measurement horizon
		tRevive = 400 * time.Millisecond  // killed leader restart delay
	)

	type result struct {
		outcome         string
		failover        uint64 // ns; 0 = no failover
		resumed, rolled uint64
		v1, v2, mixed   uint64
		drift           int
		replay          string
		kpps            float64
		lost            uint64
	}

	type run struct {
		res           result
		f             *fabric.Fabric
		swapID, migID string
	}

	setup := func() (*fabric.Fabric, *controller.Controller) {
		f := fabric.New(seed)
		must(fabric.BuildFatTree(f, fabric.FatTreeSpec{K: k, HostsPerEdge: 1}))
		// dRPC on the migration endpoints (before base routing, so the
		// control IPs are routable): the stats app moves its state
		// in-band, so a resumed migration can prove zero lost updates.
		_, err := f.EnableDRPC("p2-e0", packet.IP(172, 16, 0, 2))
		must(err)
		_, err = f.EnableDRPC("p3-e0", packet.IP(172, 16, 0, 3))
		must(err)
		must(f.InstallBaseRouting())
		ctl := controller.New(f)
		// HA first, so every deploy below already replicates to the
		// standbys — the failover verifies a complete replicated chain.
		ctl.EnableHA(3, cluster.HAConfig{Seed: seed})

		ctx := context.Background()

		// Marker v1 on the monitored flow's two edge switches.
		await(f, 10*time.Millisecond, func(done func(error)) {
			ctl.Deploy(ctx, markURI,
				&flexbpf.Datapath{Name: markURI, Segments: []*flexbpf.Program{marker(1)}},
				controller.DeployOptions{Path: []string{"p0-e0"}}, done)
		})
		await(f, 10*time.Millisecond, func(done func(error)) { ctl.ScaleOut(ctx, markURI, "mark", "p1-e0", done) })

		// The stateful stats app that the kill-post-commit scenario
		// migrates p2-e0 → p3-e0 (both edges on busy cross-pod paths).
		hh, err := apps.Builtin("heavy-hitter", "hh", []uint64{2, 128, 1 << 30})
		must(err)
		await(f, 10*time.Millisecond, func(done func(error)) {
			ctl.Deploy(ctx, hhURI,
				&flexbpf.Datapath{Name: hhURI, Segments: []*flexbpf.Program{hh}},
				controller.DeployOptions{Path: []string{"p2-e0"}}, done)
		})

		// ~50 kpps aggregate: one cross-pod CBR flow per pod.
		for p := 0; p < k; p++ {
			src := f.Host(fmt.Sprintf("p%d-e0-h0", p)).NewSource(netsim.FlowSpec{
				Dst:     packet.IP(10, byte((p+1)%k), 0, 2),
				Proto:   packet.ProtoUDP,
				SrcPort: uint16(1000 + p), DstPort: 2000, PacketLen: 400,
			})
			src.StartCBR(50000 / k)
		}
		f.Sim.RunFor(20 * time.Millisecond) // warm the flows on marker v1
		return f, ctl
	}

	replayCheck := func(ctl *controller.Controller) string {
		if ctl.HA().LastErr() != nil {
			return "SHADOW MISMATCH"
		}
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

	// doRun replays the canonical schedule with an optional leader kill
	// at an absolute simulated instant (0 = fault-free baseline).
	doRun := func(name string, killAt netsim.Time, reflip bool) run {
		f, ctl := setup()
		ha := ctl.HA()
		t0 := f.Sim.Now()

		// DSCP tally at the monitored flow's destination.
		dscp := map[uint64]uint64{}
		h := f.Host("p1-e0-h0")
		prev := h.Recv
		h.Recv = func(p *packet.Packet) {
			if prev != nil {
				prev(p)
			}
			dscp[p.Field("ipv4.dscp")]++
		}
		rx0 := uint64(0)
		for p := 0; p < k; p++ {
			rx0 += f.Host(fmt.Sprintf("p%d-e0-h0", p)).Received
		}

		if killAt > 0 {
			f.Sim.At(killAt, func() {
				if id, ok := ha.KillActive(); ok {
					f.Sim.After(netsim.Time(tRevive), func() { ha.ReviveReplica(id) })
				}
			})
		}

		pump := func(cond func() bool) {
			for i := 0; i < 4000 && !cond(); i++ {
				f.Sim.RunFor(5 * time.Millisecond)
			}
			if !cond() {
				panic("e20: " + name + ": plan never resolved")
			}
		}

		// t0: the two-replica marker swap v1 → v2.
		var swapRep *plan.Report
		ctl.Executor().Execute(
			plan.New("e20-swap").
				Swap("p0-e0", markInst, marker(2), nil).
				Swap("p1-e0", markInst, marker(2), nil),
			func(r *plan.Report) { swapRep = r })
		pump(func() bool { return swapRep != nil })

		// t0+tMig: migrate the stats app's state in-band p2-e0 → p3-e0.
		var migRep *plan.MoveReport
		f.Sim.At(t0+netsim.Time(tMig), func() {
			ctl.Migrate(context.Background(), controller.MigrateRequest{
				URI: hhURI, Segment: "hh", Dst: "p3-e0", DataPlane: true,
			}, func(r plan.MoveReport) { migRep = &r })
		})
		pump(func() bool { return migRep != nil })
		migPlan := ctl.LastReport()

		// After a rolled-back swap, flip again on the elected standby:
		// the marker must reach v2 cleanly in every scenario.
		if reflip {
			f.Sim.At(t0+netsim.Time(tReflip), func() {
				ctl.Executor().Execute(
					plan.New("e20-reflip").
						Swap("p0-e0", markInst, marker(2), nil).
						Swap("p1-e0", markInst, marker(2), nil),
					func(*plan.Report) {})
			})
		}
		f.Sim.RunUntil(t0 + netsim.Time(tEnd))

		rx1 := uint64(0)
		for p := 0; p < k; p++ {
			rx1 += f.Host(fmt.Sprintf("p%d-e0-h0", p)).Received
		}
		var mixed uint64
		for sum, n := range dscp {
			if sum != 2 && sum != 4 {
				mixed += n
			}
		}
		res := result{
			resumed: f.Metrics.Counter("ha.plans_resumed").Value(),
			rolled:  f.Metrics.Counter("ha.plans_rolled_back").Value(),
			v1:      dscp[2], v2: dscp[4], mixed: mixed,
			drift:  len(ctl.IntentDrift()),
			replay: replayCheck(ctl),
			kpps:   float64(rx1-rx0) / tEnd.Seconds() / 1000,
			lost:   migRep.LostUpdates,
		}
		if len(ha.FailoverNs) > 0 {
			res.failover = ha.FailoverNs[0]
		}
		switch {
		case killAt == 0:
			res.outcome = "committed"
			if swapRep.Err != nil || migRep.Err != nil {
				res.outcome = "BASELINE FAILED"
			}
		case reflip: // kill aimed between the swap's prepare and commit
			res.outcome = "rolled back"
			if !errors.Is(swapRep.Err, errdefs.ErrFailover) || swapRep.Outcome != plan.OutcomeRolledBack {
				res.outcome = fmt.Sprintf("UNEXPECTED %v", swapRep.Outcome)
			}
		default: // kill aimed after the migration's commit instant
			res.outcome = "resumed"
			if migRep.Err != nil || migPlan.Outcome != plan.OutcomeSucceeded {
				res.outcome = fmt.Sprintf("UNEXPECTED %v", migPlan.Outcome)
			}
		}
		return run{res: res, f: f, swapID: swapRep.ID, migID: migPlan.ID}
	}

	spanTimes := func(f *fabric.Fabric, id string) (prep, commit, end netsim.Time) {
		tr := f.Tracer.Trace(id).Snapshot()
		for _, sp := range tr.Spans {
			switch {
			case sp.Name == "prepare" && prep == 0:
				prep = netsim.Time(sp.StartNs)
			case sp.Name == "commit" && commit == 0:
				commit = netsim.Time(sp.StartNs)
			}
		}
		end = netsim.Time(tr.EndNs)
		if prep == 0 || commit == 0 || commit <= prep {
			panic(fmt.Sprintf("e20: could not measure plan timeline for %s", id))
		}
		return prep, commit, end
	}

	// Baseline fixes the timeline; the kill runs aim at phase midpoints.
	base := doRun("baseline", 0, false)
	swapPrep, swapCommit, _ := spanTimes(base.f, base.swapID)
	_, migCommit, migEnd := spanTimes(base.f, base.migID)
	if migEnd <= migCommit {
		panic("e20: migration plan has no post-commit window to kill in")
	}
	pre := doRun("kill mid-prepare", swapPrep+(swapCommit-swapPrep)/2, true)
	post := doRun("kill post-commit", migCommit+(migEnd-migCommit)/2, false)

	for _, row := range []struct {
		name string
		r    result
	}{
		{"no kill (baseline)", base.res},
		{"kill mid-prepare (swap)", pre.res},
		{"kill post-commit (migrate)", post.res},
	} {
		fo := "-"
		if r := row.r; r.failover > 0 {
			fo = ns(r.failover)
		}
		t.Rows = append(t.Rows, []string{
			row.name, row.r.outcome, fo,
			d(row.r.resumed), d(row.r.rolled), d(row.r.mixed),
			di(row.r.drift), row.r.replay, f2(row.r.kpps),
		})
	}

	clean := base.res.mixed == 0 && pre.res.mixed == 0 && post.res.mixed == 0 &&
		base.res.drift == 0 && pre.res.drift == 0 && post.res.drift == 0
	cleanWord := "zero mixed-configuration packets and zero intent drift in every scenario"
	if !clean {
		cleanWord = "MIXED PACKETS OR INTENT DRIFT OBSERVED"
	}
	replayed := base.res.replay == "match" && pre.res.replay == "match" && post.res.replay == "match"
	replayWord := "the standby's replayed chain matches the dead leader's"
	if !replayed {
		replayWord = "audit replay DIVERGED after failover"
	}
	bothVersions := pre.res.v1 > 0 && pre.res.v2 > 0
	t.Finding = fmt.Sprintf("leader killed mid-plan at ~%.0f kpps: the pre-commit swap rolls back whole and the post-commit migration resumes with %d lost updates; failover completes in %s / %s, %s, and %s (both marker versions forwarded: %v)",
		base.res.kpps, post.res.lost, ns(pre.res.failover), ns(post.res.failover),
		cleanWord, replayWord, bothVersions)
	return t
}
