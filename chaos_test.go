package flexnet

// The chaos soak (DESIGN.md §10) is the repo's fault-tolerance gate: a
// seeded random fault schedule — device crashes and link failures —
// runs against committed apps under 50 kpps of traffic with the
// self-healing loop on. At the end, committed intent must hold exactly
// (zero drift, nothing pending), every recovery's MTTR must be bounded,
// and the full telemetry snapshot must be byte-identical across reruns
// at the same seed and schedule. Scale the simulated
// duration with FLEXNET_CHAOS_SECONDS (default 8; the "simulated
// minutes" soak from the issue is the same test with a bigger knob).

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"flexnet/internal/controller/cluster"
	"flexnet/internal/faults"
	"flexnet/internal/plan"
)

func chaosSeconds() time.Duration {
	if v := os.Getenv("FLEXNET_CHAOS_SECONDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 8 * time.Second
}

// chaosSoak runs the scenario once and returns (healer stats asserted
// inside) the deterministic telemetry snapshot.
func chaosSoak(t *testing.T, seed int64, horizon time.Duration) string {
	t.Helper()
	nw := New(seed).
		Switch("s1", DRMT).
		Switch("s2", DRMT).
		Switch("s3", DRMT).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "h2").
		Link("s2", "s3").
		MustBuild()
	if _, err := nw.Deploy(context.Background(), "flexnet://chaos/syn", AppSpec{
		Programs: []*Program{SYNDefense("syn", 1024, 10)},
		Path:     []string{"s1"},
	}, DeployOptions{}); err != nil {
		t.Fatalf("deploy syn: %v", err)
	}
	if _, err := nw.Deploy(context.Background(), "flexnet://chaos/hh", AppSpec{
		Programs: []*Program{HeavyHitter("hh", 2, 512, 1000)},
		Path:     []string{"s2"},
	}, DeployOptions{}); err != nil {
		t.Fatalf("deploy hh: %v", err)
	}
	healer := nw.StartSelfHealing(time.Millisecond)
	plane := nw.NewFaultPlane(seed + 77)
	sched := faults.Generate(seed+13, faults.GenSpec{
		Devices:        []string{"s1", "s2", "s3"},
		Links:          []string{"s1-s2", "s2-s3"},
		HorizonNs:      uint64(horizon),
		CrashMeanGapNs: uint64(400 * time.Millisecond),
		CrashDownNs:    uint64(10 * time.Millisecond),
		LinkMeanGapNs:  uint64(700 * time.Millisecond),
		LinkDownNs:     uint64(20 * time.Millisecond),
	})
	if len(sched.Events) == 0 {
		t.Fatal("empty fault schedule")
	}
	if err := plane.Apply(sched); err != nil {
		t.Fatalf("apply schedule: %v", err)
	}
	src, err := nw.NewSource("h1", FlowSpec{
		Dst: MustParseIP("10.0.0.2"), Proto: 17,
		SrcPort: 1000, DstPort: 2000, PacketLen: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.StartCBR(50000)
	// Settle long enough for the last crash (up to the horizon's edge)
	// to restart and reconcile.
	nw.RunFor(horizon + time.Second)
	src.Stop()

	crashes := plane.Injected[faults.KindDeviceCrash]
	if crashes == 0 {
		t.Fatal("schedule injected no crashes")
	}
	if pending := healer.Pending(); len(pending) != 0 {
		t.Fatalf("devices still pending reconciliation: %v", pending)
	}
	if drift := nw.IntentDrift(); len(drift) != 0 {
		t.Fatalf("committed intent lost: %v", drift)
	}
	if healer.Recovered() == 0 {
		t.Fatal("no recoveries recorded")
	}
	for i, m := range healer.MTTRs {
		// 10 ms restart + 1 ms scan + plan execution (~100 ms worst
		// observed); a second means recovery is wedged, not slow.
		if d := time.Duration(m); d > time.Second {
			t.Fatalf("MTTR[%d] = %v, want ≤ 1s", i, d)
		}
	}
	snap := nw.Stats().Format()
	if !strings.Contains(snap, "heal.mttr_ns") {
		t.Fatal("MTTR histogram missing from snapshot")
	}
	if !strings.Contains(snap, "faults.injected.device-crash") {
		t.Fatal("fault counters missing from snapshot")
	}
	return snap
}

func TestChaosSoak(t *testing.T) {
	horizon := chaosSeconds()
	if chaosSoak(t, 1, horizon) != chaosSoak(t, 1, horizon) {
		t.Fatal("same seed + schedule diverged across reruns")
	}
}

// cacheChaosSoak is the flow-cache variant of the soak: same fault
// pressure, but the transit switch s2 carries only the cacheable base
// routing pipeline, so live traffic is served from the megaflow cache
// between crashes while s1's stateful SYN defense exercises the
// uncacheable bypass. Returns the telemetry snapshot and the number of
// stale serves: cache hits whose outcome was recorded under another
// epoch than the device's at processing (flowcache.<dev>.stale_served).
func cacheChaosSoak(t *testing.T, seed int64, cache bool, horizon time.Duration) (snap string, stale uint64) {
	t.Helper()
	bld := New(seed).FlowCache(cache).
		Switch("s1", DRMT).
		Switch("s2", DRMT).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "h2")
	nw := bld.MustBuild()
	if _, err := nw.Deploy(context.Background(), "flexnet://chaos/syn", AppSpec{
		Programs: []*Program{SYNDefense("syn", 1024, 10)},
		Path:     []string{"s1"},
	}, DeployOptions{}); err != nil {
		t.Fatalf("deploy syn: %v", err)
	}
	healer := nw.StartSelfHealing(time.Millisecond)
	plane := nw.NewFaultPlane(seed + 77)
	sched := faults.Generate(seed+13, faults.GenSpec{
		Devices:        []string{"s1", "s2"},
		Links:          []string{"s1-s2"},
		HorizonNs:      uint64(horizon),
		CrashMeanGapNs: uint64(400 * time.Millisecond),
		CrashDownNs:    uint64(10 * time.Millisecond),
		LinkMeanGapNs:  uint64(700 * time.Millisecond),
		LinkDownNs:     uint64(20 * time.Millisecond),
	})
	if err := plane.Apply(sched); err != nil {
		t.Fatalf("apply schedule: %v", err)
	}
	src, err := nw.NewSource("h1", FlowSpec{
		Dst: MustParseIP("10.0.0.2"), Proto: 17,
		SrcPort: 1000, DstPort: 2000, PacketLen: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.StartCBR(50000)
	nw.RunFor(horizon + time.Second)
	src.Stop()

	if pending := healer.Pending(); len(pending) != 0 {
		t.Fatalf("devices still pending reconciliation: %v", pending)
	}
	if drift := nw.IntentDrift(); len(drift) != 0 {
		t.Fatalf("committed intent lost: %v", drift)
	}
	m := nw.Metrics()
	if cache {
		if hits := m.CounterValue("flowcache.s2.hits"); hits == 0 {
			t.Fatal("soak never exercised the flow cache on s2")
		}
		if inv := m.CounterValue("flowcache.s2.invalidations"); inv == 0 {
			t.Fatal("crashes committed no cache invalidations")
		}
	}
	stale = m.CounterValue("flowcache.s1.stale_served") + m.CounterValue("flowcache.s2.stale_served")
	return nw.Stats().Format(), stale
}

// stripFlowCacheLines removes the flowcache.* instrument lines — the
// only output the cache is allowed to add.
func stripFlowCacheLines(snap string) string {
	lines := strings.Split(snap, "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "flowcache.") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// TestChaosSoakFlowCache: under the full fault schedule, enabling the
// flow cache must not change a single byte of non-flowcache telemetry —
// crashes, recoveries, per-device packet counters, drops — and every
// cache-hit packet's epoch must equal its device's epoch at processing.
// That check can fail: TestChaosSoakCatchesCacheReuse
// (chaos_mutant_test.go, `make mutants`) runs this soak on a build whose
// commits keep the previous configuration's cache and sees it trip.
func TestChaosSoakFlowCache(t *testing.T) {
	horizon := chaosSeconds()
	off, _ := cacheChaosSoak(t, 1, false, horizon)
	on, stale := cacheChaosSoak(t, 1, true, horizon)
	if stale != 0 {
		t.Fatalf("%d cache hits were served an outcome recorded under another epoch", stale)
	}
	if off != stripFlowCacheLines(on) {
		t.Fatal("flow cache changed non-flowcache chaos telemetry")
	}
}

// haChaosSoak is the leader-kill soak (DESIGN.md §15.5): a two-switch
// marker pipeline under 50 kpps with a 3-replica HA controller, a
// steady stream of two-device version swaps, and a schedule of
// leader-kill faults timed to land mid-plan. Gates: not one packet may
// observe a mixed configuration (a DSCP sum of 3 — one old switch, one
// new), committed intent must hold exactly, every failover must stay
// under four election timeouts, and the replayed audit chain must
// verify. Returns the deterministic telemetry snapshot.
func haChaosSoak(t *testing.T, seed int64, horizon time.Duration) string {
	t.Helper()
	uri := "flexnet://chaos/marker"
	nw := New(seed).
		Switch("s1", DRMT).
		Switch("s2", DRMT).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "h2").
		MustBuild()
	nw.EnableHA(3, HAConfig{Seed: seed})
	if _, err := nw.Deploy(context.Background(), uri, AppSpec{
		Programs: []*Program{markerProgram(1)},
		Path:     []string{"s1"},
	}, DeployOptions{}); err != nil {
		t.Fatalf("deploy marker: %v", err)
	}
	if _, err := nw.Scale(context.Background(), ScaleRequest{
		URI: uri, Segment: "mark", Device: "s2", Direction: ScaleDirOut,
	}); err != nil {
		t.Fatalf("scale marker: %v", err)
	}

	// Leader kills every 600 ms, each revived 400 ms later — the window
	// covers whole elections, so kills land mid-plan and mid-election.
	plane := nw.NewFaultPlane(seed + 77)
	var evs []FaultEvent
	for at := 250 * time.Millisecond; at < horizon; at += 600 * time.Millisecond {
		evs = append(evs, FaultEvent{
			At: uint64(at), Kind: "leader-kill", DurationNs: uint64(400 * time.Millisecond),
		})
	}
	if err := plane.Apply(&FaultSchedule{Events: evs}); err != nil {
		t.Fatalf("apply leader-kill schedule: %v", err)
	}

	// Every packet crosses both marker replicas: a DSCP sum of 2·inc is
	// consistent, 3 is a mixed configuration and must never appear.
	dscp := map[uint64]uint64{}
	if err := nw.OnHostReceive("h2", func(p *Packet) { dscp[p.Field("ipv4.dscp")]++ }); err != nil {
		t.Fatal(err)
	}
	src := startUDP(t, nw, 50000)

	// Two-device version swaps aligned to the kill schedule: one
	// submitted 10 ms before each kill — a swap's prepare phase spans
	// ~38 ms, so the leader dies with the plan mid-prepare and Recover
	// must roll it back whole — and one 300 ms after, landing on the
	// elected standby as a clean version flip. Nothing may half-apply.
	inst := uri + "#mark"
	var outcomes, swaps int
	submitSwap := func() {
		inc := uint64(swaps%2) + 1
		nw.Controller().Executor().Execute(
			plan.New(fmt.Sprintf("chaos-swap-%d", swaps)).
				Swap("s1", inst, markerProgram(inc), nil).
				Swap("s2", inst, markerProgram(inc), nil),
			func(r *PlanReport) { outcomes++ })
		swaps++
	}
	// Schedule.At is relative to the Apply instant; mirror that base so
	// the pre-kill swap really is mid-prepare when the leader dies.
	for _, e := range evs {
		at := time.Duration(e.At)
		nw.After(at-10*time.Millisecond, submitSwap)
		nw.After(at+300*time.Millisecond, submitSwap)
	}
	nw.RunFor(horizon + 2*time.Second)
	src.Stop()
	nw.RunFor(10 * time.Millisecond)

	kills := plane.Injected["leader-kill"]
	if kills == 0 {
		t.Fatal("schedule injected no leader kills")
	}
	m := nw.Metrics()
	if got := m.CounterValue("ha.failovers"); got == 0 {
		t.Fatal("no failovers despite leader kills")
	}
	if resumed, rolled := m.CounterValue("ha.plans_resumed"), m.CounterValue("ha.plans_rolled_back"); resumed+rolled == 0 {
		t.Fatal("no kill ever landed mid-plan; soak is not exercising failover recovery")
	}
	if dscp[2] == 0 || dscp[4] == 0 {
		t.Fatalf("soak never observed both versions forwarding: tally %v", dscp)
	}
	if dscp[3] != 0 {
		t.Fatalf("%d packets observed a mixed configuration during failover", dscp[3])
	}
	if drift := nw.IntentDrift(); len(drift) != 0 {
		t.Fatalf("committed intent drifted: %v", drift)
	}
	if err := nw.Audit().Verify(); err != nil {
		t.Fatalf("audit chain broken: %v", err)
	}
	if err := nw.HA().LastErr(); err != nil {
		t.Fatalf("replicated audit chain failed verification at takeover: %v", err)
	}
	bound := 4 * time.Duration(cluster.ElectionMaxNs)
	for i, d := range nw.HA().FailoverNs {
		if time.Duration(d) > bound {
			t.Fatalf("failover %d took %v, want ≤ %v", i, time.Duration(d), bound)
		}
	}
	if outcomes == 0 {
		t.Fatal("no swap plan ever resolved")
	}
	st := nw.HAStatus()
	if st.Frozen {
		t.Fatal("executor still frozen at end of soak")
	}
	snap := nw.Stats().Format()
	if !strings.Contains(snap, "ha.failover_ns") {
		t.Fatal("failover histogram missing from snapshot")
	}
	return snap
}

// TestChaosSoakLeaderKill is the hitless-failover gate: the leader-kill
// soak must hold its invariants and produce a byte-identical telemetry
// snapshot across reruns.
func TestChaosSoakLeaderKill(t *testing.T) {
	horizon := chaosSeconds()
	if haChaosSoak(t, 1, horizon) != haChaosSoak(t, 1, horizon) {
		t.Fatal("same seed + schedule diverged across reruns")
	}
}
