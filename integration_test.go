package flexnet

// Integration tests exercise the whole stack end-to-end: heterogeneous
// topology, tenants, runtime deployment under live traffic, elastic
// scaling, data-plane migration, and teardown — the full §3 scenario of
// the paper in one run.

import (
	"context"
	"testing"
	"time"

	"flexnet/internal/experiments"
)

// datacenter builds a two-tier heterogeneous fabric:
//
//	h1,h2 — nicA(SoC) — torA(DRMT) — core(RMT) — torB(Tile) — h3,h4
func datacenter(t *testing.T) *Network {
	t.Helper()
	n, err := New(7).
		Switch("nicA", SoC).
		Switch("torA", DRMT).
		Switch("core", RMT).
		Switch("torB", Tile).
		Host("h1", "10.0.1.1").
		Host("h2", "10.0.1.2").
		Host("h3", "10.0.2.1").
		Host("h4", "10.0.2.2").
		Link("h1", "nicA").
		Link("h2", "nicA").
		Link("nicA", "torA").
		Link("torA", "core").
		Link("core", "torB").
		Link("torB", "h3").
		Link("torB", "h4").
		DRPC("torA", "172.16.0.1").
		DRPC("torB", "172.16.0.2").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestIntegrationFullScenario(t *testing.T) {
	n := datacenter(t)

	// Steady traffic h1 → h3 throughout the whole scenario.
	src, err := n.NewSource("h1", FlowSpec{
		Dst: MustParseIP("10.0.2.1"), Proto: 17, SrcPort: 1000, DstPort: 2000, PacketLen: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.StartCBR(20000)
	n.RunFor(100 * time.Millisecond)
	if n.HostReceived("h3") == 0 {
		t.Fatal("baseline traffic not flowing")
	}

	// 1. Admit two tenants.
	if _, err := n.AddTenant("acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddTenant("globex"); err != nil {
		t.Fatal(err)
	}

	// 2. Deploy infrastructure monitoring plus per-tenant extensions,
	//    all at runtime, all while traffic flows.
	if _, err := n.Deploy(context.Background(), "flexnet://infra/monitor", AppSpec{
		Programs: []*Program{HeavyHitter("hh", 2, 512, 1<<60)},
		Path:     []string{"torA"},
	}, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Deploy(context.Background(), "flexnet://acme/defense", AppSpec{
		Programs: []*Program{SYNDefense("sd", 512, 5)},
		Tenant:   "acme",
		Path:     []string{"torA"},
	}, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Deploy(context.Background(), "flexnet://globex/limiter", AppSpec{
		Programs: []*Program{RateLimiter("rl", 8, 1_000_000, 2_000_000)},
		Tenant:   "globex",
		Path:     []string{"torB"},
	}, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Controller().Apps()); got != 3 {
		t.Fatalf("apps = %v", n.Controller().Apps())
	}

	// 3. Elastic scale-out of the monitor to the other ToR.
	if _, err := n.Scale(context.Background(), ScaleRequest{URI: "flexnet://infra/monitor", Segment: "hh", Device: "torB", Direction: ScaleDirOut}); err != nil {
		t.Fatal(err)
	}

	// 4. Migrate the monitor's primary from torA to torB via the data
	//    plane; its per-packet state must survive intact... primary is
	//    torA; migrate it (replica already on torB under the same name
	//    would collide — scale back in first).
	if _, err := n.Scale(context.Background(), ScaleRequest{URI: "flexnet://infra/monitor", Segment: "hh", Device: "torB", Direction: ScaleDirIn}); err != nil {
		t.Fatal(err)
	}
	rep, _, err := n.Migrate(context.Background(), MigrateRequest{URI: "flexnet://infra/monitor", Segment: "hh", Dst: "torB", DataPlane: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LostUpdates != 0 {
		t.Fatalf("migration lost %d updates", rep.LostUpdates)
	}

	// 5. Tenant departure reclaims resources.
	before := n.Device("torA").Free()
	if err := n.DeleteTenant(context.Background(), "acme"); err != nil {
		t.Fatal(err)
	}
	if n.Device("torA").Free().SRAMBits <= before.SRAMBits {
		t.Fatal("tenant departure reclaimed nothing")
	}

	// 6. Traffic never stopped: zero infrastructure loss end-to-end.
	src.Stop()
	n.RunFor(50 * time.Millisecond)
	if n.HostReceived("h3") != src.Sent {
		t.Fatalf("lost traffic during scenario: %d of %d delivered", n.HostReceived("h3"), src.Sent)
	}
	if n.InfrastructureDrops() != 0 {
		t.Fatalf("infrastructure drops = %d", n.InfrastructureDrops())
	}
}

func TestIntegrationHeterogeneousPlacement(t *testing.T) {
	n := datacenter(t)
	// A datapath whose segments need different capabilities: the
	// compiler must split it across the right devices automatically.
	ccMonitor := NewProgram("ccmon").
		Requires(Capabilities{Transport: true}).
		Do(NewAsm().Ret().MustBuild()).
		MustBuild()
	aclProg := NewProgram("acl").
		Action("deny", 0, NewAsm().Drop().MustBuild()).
		Table(&TableSpec{
			Name:    "rules",
			Keys:    []TableKey{{Field: "ipv4.src", Kind: 2 /* ternary */, Bits: 32}},
			Actions: []string{"deny"},
			Size:    64,
		}).
		Apply("rules").
		MustBuild()
	// No device in this fabric offers Transport, so placement must fail
	// loudly for the transport segment...
	_, err := n.Deploy(context.Background(), "flexnet://infra/vertical", AppSpec{
		Programs: []*Program{ccMonitor, aclProg},
	}, DeployOptions{})
	if err == nil {
		t.Fatal("transport-requiring segment placed on a switch fabric")
	}
	// The ACL program alone places fine (on a TCAM-capable device).
	if _, err := n.Deploy(context.Background(), "flexnet://infra/acl", AppSpec{
		Programs: []*Program{aclProg},
	}, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	dev := n.Controller().App("flexnet://infra/acl").Replicas["acl"][0]
	if dev == "" {
		t.Fatal("no placement recorded")
	}
}

func TestIntegrationExperimentSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	if len(experiments.Suite) != 20 {
		t.Fatalf("suite lists %d experiments, want 20", len(experiments.Suite))
	}
	for _, e := range experiments.Suite {
		tab := e.Run(1)
		if tab.ID != e.ID {
			t.Errorf("experiment %s produced table %s", e.ID, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", tab.ID)
		}
		if tab.Finding == "" {
			t.Errorf("%s has no finding", tab.ID)
		}
		if tab.Render() == "" {
			t.Errorf("%s renders empty", tab.ID)
		}
	}
}
