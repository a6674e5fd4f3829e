package flexnet

// End-to-end tests for the transactional ChangePlan pipeline: epoch
// consistency under mid-commit faults (no packet may ever observe a
// mixed configuration), dry runs, sentinel error classification, and
// deterministic replay under a fixed seed.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/flexbpf"
	"flexnet/internal/plan"
)

// markerProgram stamps every IPv4 packet by adding inc to its DSCP
// field. With a replica on each switch of a two-switch line, a packet
// arrives with dscp = 2·inc — any other sum means the two switches ran
// different program versions on the same packet.
func markerProgram(inc uint64) *Program {
	body := NewAsm().
		LdField(0, "ipv4.dscp").
		AddImm(0, inc).
		StField("ipv4.dscp", 0).
		Ret().
		MustBuild()
	return NewProgram("mark").Headers("eth", "ipv4").Do(body).MustBuild()
}

// countProgram counts every packet in a 1-slot counter named
// "cnt_pkts" — the stateful payload for migration tests.
func countProgram() *Program {
	body := NewAsm().
		MovImm(0, 0).
		MovImm(1, 1).
		Count("cnt_pkts", 0, 1).
		Ret().
		MustBuild()
	return NewProgram("cnt").Counter("cnt_pkts", 1).Do(body).MustBuild()
}

// twoSwitchNet builds h1 — s1 — s2 — h2.
func twoSwitchNet(t *testing.T, seed int64) *Network {
	t.Helper()
	n, err := New(seed).
		Switch("s1", DRMT).
		Switch("s2", DRMT).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "h2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func startUDP(t *testing.T, n *Network, pps float64) *Source {
	t.Helper()
	src, err := n.NewSource("h1", FlowSpec{
		Dst: MustParseIP("10.0.0.2"), Proto: 17,
		SrcPort: 1000, DstPort: 2000, PacketLen: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.StartCBR(pps)
	return src
}

func TestCommitFaultNeverMixesConfigurations(t *testing.T) {
	n := twoSwitchNet(t, 5)
	uri := "flexnet://infra/marker"
	if _, err := n.Deploy(context.Background(), uri, AppSpec{Programs: []*Program{markerProgram(1)}, Path: []string{"s1"}}, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Scale(context.Background(), ScaleRequest{URI: uri, Segment: "mark", Device: "s2", Direction: ScaleDirOut}); err != nil {
		t.Fatal(err)
	}

	// Tally DSCP sums at h2. With v1 (inc=1) on both switches every
	// packet shows 2; after a successful swap to v2 (inc=2) every packet
	// shows 4. A 3 is a packet that crossed one old and one new switch —
	// a mixed configuration, which must never happen.
	dscp := map[uint64]uint64{}
	if err := n.OnHostReceive("h2", func(p *Packet) { dscp[p.Field("ipv4.dscp")]++ }); err != nil {
		t.Fatal(err)
	}
	src := startUDP(t, n, 20000)
	n.RunFor(50 * time.Millisecond)
	if dscp[2] == 0 {
		t.Fatal("marker v1 not stamping packets")
	}

	// Swap both replicas to v2, but s2's ASIC faults at the commit
	// instant: s1 (already activated) must revert in the same instant.
	injected := errors.New("asic commit fault")
	n.Device("s2").SetFaultInjector(func(dev string, op dataplane.FaultOp) error {
		if op == dataplane.FaultCommit {
			return injected
		}
		return nil
	})
	instName := uri + "#mark"
	var rep *PlanReport
	n.Controller().Executor().Execute(
		plan.New("swap markers").
			Swap("s1", instName, markerProgram(2), nil).
			Swap("s2", instName, markerProgram(2), nil),
		func(r *PlanReport) { rep = r })
	n.RunFor(500 * time.Millisecond)

	if rep == nil {
		t.Fatal("swap plan did not finish")
	}
	if !errors.Is(rep.Err, injected) {
		t.Fatalf("err = %v", rep.Err)
	}
	if rep.Outcome != plan.OutcomeRolledBack || !rep.RolledBack {
		t.Fatalf("outcome %v rolledback %v", rep.Outcome, rep.RolledBack)
	}
	// Old configuration still forwarding after rollback.
	pre := dscp[2]
	n.RunFor(50 * time.Millisecond)
	if dscp[2] <= pre {
		t.Fatal("rolled-back network stopped stamping v1")
	}
	if dscp[3] != 0 || dscp[4] != 0 {
		t.Fatalf("mixed/new configurations observed during failed swap: dscp tally %v", dscp)
	}

	// Clear the fault and retry: now the swap commits, again with no
	// mixed packet — the flip is epoch-atomic across both devices.
	n.Device("s2").SetFaultInjector(nil)
	rep = nil
	n.Controller().Executor().Execute(
		plan.New("swap markers retry").
			Swap("s1", instName, markerProgram(2), nil).
			Swap("s2", instName, markerProgram(2), nil),
		func(r *PlanReport) { rep = r })
	n.RunFor(500 * time.Millisecond)
	src.Stop()
	n.RunFor(10 * time.Millisecond)

	if rep == nil || rep.Err != nil {
		t.Fatalf("retry failed: %+v", rep)
	}
	if dscp[4] == 0 {
		t.Fatal("marker v2 never stamped after successful swap")
	}
	if dscp[3] != 0 {
		t.Fatalf("mixed configuration observed: %d packets saw one old and one new switch", dscp[3])
	}
	if n.InfrastructureDrops() != 0 {
		t.Fatalf("infrastructure drops = %d", n.InfrastructureDrops())
	}
}

func TestMigrateFaultRollsBackToSource(t *testing.T) {
	n := twoSwitchNet(t, 6)
	uri := "flexnet://infra/counter"
	if _, err := n.Deploy(context.Background(), uri, AppSpec{Programs: []*Program{countProgram()}, Path: []string{"s1"}}, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	src := startUDP(t, n, 20000)
	n.RunFor(50 * time.Millisecond)
	inst := n.Device("s1").Instance(uri + "#cnt")
	if inst == nil {
		t.Fatal("instance missing on s1")
	}
	preCount := inst.Store().Counter("cnt_pkts").Value(0)
	if preCount == 0 {
		t.Fatal("counter never incremented")
	}

	injected := errors.New("state transfer fault")
	n.Device("s2").SetFaultInjector(func(dev string, op dataplane.FaultOp) error {
		if op == dataplane.FaultMigrate {
			return injected
		}
		return nil
	})
	_, _, err := n.Migrate(context.Background(), MigrateRequest{URI: uri, Segment: "cnt", Dst: "s2", DataPlane: false})
	if !errors.Is(err, injected) {
		t.Fatalf("migrate err = %v", err)
	}
	rep := n.LastPlanReport()
	if rep == nil || rep.Outcome != plan.OutcomeRolledBack {
		t.Fatalf("plan report = %+v", rep)
	}
	// Source stays authoritative, destination install rolled back.
	if n.Device("s2").Instance(uri+"#cnt") != nil {
		t.Fatal("destination kept the instance after rollback")
	}
	sinst := n.Device("s1").Instance(uri + "#cnt")
	if sinst == nil {
		t.Fatal("source lost the instance")
	}
	if got := sinst.Store().Counter("cnt_pkts").Value(0); got < preCount {
		t.Fatalf("source state regressed: %d < %d", got, preCount)
	}
	if app := n.Controller().App(uri); app.Replicas["cnt"][0] != "s1" {
		t.Fatalf("primary moved to %s despite failure", app.Replicas["cnt"][0])
	}

	// Retry without the fault: migration completes and dst takes over.
	n.Device("s2").SetFaultInjector(nil)
	if _, _, err := n.Migrate(context.Background(), MigrateRequest{URI: uri, Segment: "cnt", Dst: "s2", DataPlane: false}); err != nil {
		t.Fatalf("retry migrate: %v", err)
	}
	src.Stop()
	n.RunFor(10 * time.Millisecond)
	if n.Device("s1").Instance(uri+"#cnt") != nil {
		t.Fatal("source instance not removed after flip")
	}
	dinst := n.Device("s2").Instance(uri + "#cnt")
	if dinst == nil {
		t.Fatal("destination missing instance after migration")
	}
	if dinst.Store().Counter("cnt_pkts").Value(0) < preCount {
		t.Fatal("migrated state lost")
	}
	if app := n.Controller().App(uri); app.Replicas["cnt"][0] != "s2" {
		t.Fatal("primary not moved to s2")
	}
}

func TestDryRunDoesNotMutate(t *testing.T) {
	n := twoSwitchNet(t, 7)
	uri := "flexnet://infra/counter"
	spec := AppSpec{Programs: []*Program{countProgram()}, Path: []string{"s1"}}

	t0 := n.Now()
	rep, err := n.Deploy(context.Background(), uri, spec, DeployOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != plan.OutcomePlanned || rep.Err != nil {
		t.Fatalf("dry run report: %+v", rep)
	}
	if len(rep.Steps) != 1 || rep.Estimated <= 0 {
		t.Fatalf("steps %d estimated %v", len(rep.Steps), rep.Estimated)
	}
	if step := rep.Steps[0].Step.String(); !strings.Contains(step, "install") || !strings.Contains(step, uri) {
		t.Fatalf("dry run step: %s", step)
	}
	if n.Now() != t0 {
		t.Fatal("dry run advanced simulated time")
	}
	if len(n.Controller().Apps()) != 0 {
		t.Fatal("dry run registered the app")
	}
	if n.Device("s1").Instance(uri+"#cnt") != nil {
		t.Fatal("dry run installed the instance")
	}

	// The same plan then deploys for real.
	if _, err := n.Deploy(context.Background(), uri, spec, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	last := n.LastPlanReport()
	if last == nil || last.Outcome != plan.OutcomeSucceeded {
		t.Fatalf("last plan report: %+v", last)
	}

	// Dry-running removal and migration also leaves everything in place.
	if rep, err = n.Remove(context.Background(), uri, RemoveOptions{DryRun: true}); err != nil || rep.Err != nil {
		t.Fatalf("dry remove: %v / %+v", err, rep)
	}
	if _, rep, err = n.Migrate(context.Background(), MigrateRequest{URI: uri, Segment: "cnt", Dst: "s2", DryRun: true}); err != nil || rep.Err != nil {
		t.Fatalf("dry migrate: %v / %+v", err, rep)
	}
	if rep, err = n.Scale(context.Background(), ScaleRequest{URI: uri, Segment: "cnt", Device: "s2", Direction: ScaleDirOut, DryRun: true}); err != nil || rep.Err != nil {
		t.Fatalf("dry scale-out: %v / %+v", err, rep)
	}
	if len(n.Controller().Apps()) != 1 || n.Device("s1").Instance(uri+"#cnt") == nil {
		t.Fatal("dry runs mutated the network")
	}
	if n.Device("s2").Instance(uri+"#cnt") != nil {
		t.Fatal("dry migrate installed at destination")
	}
}

func TestSentinelErrorsClassifyFailures(t *testing.T) {
	n := twoSwitchNet(t, 8)

	if _, err := n.Remove(context.Background(), "flexnet://infra/ghost", RemoveOptions{}); !errors.Is(err, ErrNoSuchApp) {
		t.Fatalf("remove unknown app: %v", err)
	}
	if _, err := n.Scale(context.Background(), ScaleRequest{URI: "flexnet://infra/ghost", Segment: "x", Device: "s1", Direction: ScaleDirOut}); !errors.Is(err, ErrNoSuchApp) {
		t.Fatalf("scale-out unknown app: %v", err)
	}
	if _, _, err := n.Migrate(context.Background(), MigrateRequest{URI: "flexnet://infra/ghost", Segment: "x", Dst: "s2", DataPlane: false}); !errors.Is(err, ErrNoSuchApp) {
		t.Fatalf("migrate unknown app: %v", err)
	}

	// A program too large for any device: placement fails with
	// ErrInsufficientResources.
	huge := NewProgram("huge").
		Action("deny", 0, NewAsm().Drop().MustBuild()).
		Table(&TableSpec{
			Name:    "huge_rules",
			Keys:    []TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32}},
			Actions: []string{"deny"},
			Size:    4_000_000,
		}).
		Apply("huge_rules").
		MustBuild()
	_, err := n.Deploy(context.Background(), "flexnet://infra/huge", AppSpec{Programs: []*Program{huge}}, DeployOptions{})
	if !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("oversized deploy: %v", err)
	}

	// An unverifiable program is rejected by the plan's validate phase.
	bad := &flexbpf.Program{Name: "bad", Actions: map[string]*flexbpf.Action{}}
	bad.Pipeline = []flexbpf.Stmt{{Apply: "ghost"}}
	_, err = n.Deploy(context.Background(), "flexnet://infra/bad", AppSpec{Programs: []*Program{bad}, Path: []string{"s1"}}, DeployOptions{})
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("unverifiable deploy: %v", err)
	}

	// A down device fails validation with ErrDeviceDown.
	n.Device("s1").SetDown(true)
	_, err = n.Deploy(context.Background(), "flexnet://infra/down", AppSpec{Programs: []*Program{countProgram()}, Path: []string{"s1"}}, DeployOptions{})
	if !errors.Is(err, ErrDeviceDown) {
		t.Fatalf("down-device deploy: %v", err)
	}
	n.Device("s1").SetDown(false)

	// Failed deployments must not leak registrations.
	if apps := n.Controller().Apps(); len(apps) != 0 {
		t.Fatalf("failed deploys leaked apps: %v", apps)
	}
}

// planScenario drives a fixed workload — deploy, traffic, swap,
// migration — and returns the full packet trace observed at h2.
func planScenario(t *testing.T) string {
	n := twoSwitchNet(t, 42)
	uri := "flexnet://infra/marker"
	var trace strings.Builder
	if err := n.OnHostReceive("h2", func(p *Packet) {
		fmt.Fprintf(&trace, "%d %d %d\n", n.Now().Nanoseconds(), p.FlowKey().Hash(), p.Field("ipv4.dscp"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Deploy(context.Background(), uri, AppSpec{Programs: []*Program{markerProgram(1)}, Path: []string{"s1"}}, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	src := startUDP(t, n, 20000)
	n.RunFor(40 * time.Millisecond)
	n.Controller().Executor().Execute(
		plan.New("swap").Swap("s1", uri+"#mark", markerProgram(2), nil), nil)
	n.RunFor(100 * time.Millisecond)
	if _, _, err := n.Migrate(context.Background(), MigrateRequest{URI: uri, Segment: "mark", Dst: "s2", DataPlane: false}); err != nil {
		t.Fatal(err)
	}
	n.RunFor(40 * time.Millisecond)
	src.Stop()
	n.RunFor(10 * time.Millisecond)
	fmt.Fprintf(&trace, "end %d received %d\n", n.Now().Nanoseconds(), n.HostReceived("h2"))
	return trace.String()
}

func TestDeterministicReplay(t *testing.T) {
	a := planScenario(t)
	b := planScenario(t)
	if a != b {
		t.Fatal("identical seeds produced different packet traces")
	}
	if strings.Count(a, "\n") < 100 {
		t.Fatalf("trace suspiciously short:\n%s", a)
	}
}
