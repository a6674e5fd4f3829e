package controller

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/audit"
	"flexnet/internal/dataplane"
	"flexnet/internal/drpc"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/migrate"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
	"flexnet/internal/runtime"
	"flexnet/internal/spec"
)

// testbed: h1 — s1 — s2 — h2 with two switches and a host-capable NIC.
func testbed(t *testing.T) (*fabric.Fabric, *Controller) {
	t.Helper()
	f := fabric.New(11)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchRMT)
	f.AddSwitch("nic1", dataplane.ArchSoC)
	f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "nic1", netsim.DefaultLink())
	f.Connect("nic1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	f.Connect("s2", "h2", netsim.DefaultLink())
	if _, err := f.EnableDRPC("s1", packet.IP(172, 16, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.EnableDRPC("s2", packet.IP(172, 16, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	eng := runtime.NewEngine(f.Sim, runtime.DefaultCosts())
	return f, New(f, eng)
}

func deploy(t *testing.T, f *fabric.Fabric, c *Controller, uri string, dp *flexbpf.Datapath, opts DeployOptions) {
	t.Helper()
	var err error
	doneAt := netsim.Time(0)
	c.Deploy(context.Background(), uri, dp, opts, func(e error) { err = e; doneAt = f.Sim.Now() })
	f.Sim.RunFor(2 * time.Second)
	if doneAt == 0 {
		t.Fatalf("deploy %s never completed", uri)
	}
	if err != nil {
		t.Fatalf("deploy %s: %v", uri, err)
	}
}

func TestValidURI(t *testing.T) {
	good := []string{"flexnet://infra/routing", "flexnet://t1/syn-defense"}
	bad := []string{"", "http://x/y", "flexnet://", "flexnet://a", "flexnet://a/b/c"}
	for _, u := range good {
		if !ValidURI(u) {
			t.Errorf("ValidURI(%q) = false", u)
		}
	}
	for _, u := range bad {
		if ValidURI(u) {
			t.Errorf("ValidURI(%q) = true", u)
		}
	}
}

func TestDeployAndRemove(t *testing.T) {
	f, c := testbed(t)
	dp := &flexbpf.Datapath{
		Name:     "mon",
		Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, 256, 1000)},
	}
	deploy(t, f, c, "flexnet://infra/monitor", dp, DeployOptions{})

	app := c.App("flexnet://infra/monitor")
	if app == nil || app.Status != StatusRunning {
		t.Fatalf("app = %+v", app)
	}
	dev := app.Replicas["hh"][0]
	if f.Device(dev).Instance("flexnet://infra/monitor#hh") == nil {
		t.Fatalf("program not installed on %s", dev)
	}

	var rmErr error
	removed := false
	c.Remove(context.Background(), "flexnet://infra/monitor", func(e error) { rmErr = e; removed = true })
	f.Sim.RunFor(2 * time.Second)
	if !removed || rmErr != nil {
		t.Fatalf("remove: %v (done=%v)", rmErr, removed)
	}
	if f.Device(dev).Instance("flexnet://infra/monitor#hh") != nil {
		t.Fatal("program still installed after removal")
	}
	if c.App("flexnet://infra/monitor") != nil {
		t.Fatal("app still registered")
	}
}

func TestDeployErrors(t *testing.T) {
	f, c := testbed(t)
	dp := &flexbpf.Datapath{Name: "x", Segments: []*flexbpf.Program{apps.SYNDefense("sd", 64, 5)}}
	var err error
	c.Deploy(context.Background(), "not-a-uri", dp, DeployOptions{}, func(e error) { err = e })
	if err == nil {
		t.Fatal("malformed URI accepted")
	}
	c.Deploy(context.Background(), "flexnet://t/unknown-tenant", dp, DeployOptions{Tenant: "ghost"}, func(e error) { err = e })
	if err == nil {
		t.Fatal("unknown tenant accepted")
	}
	deploy(t, f, c, "flexnet://infra/sd", dp, DeployOptions{})
	c.Deploy(context.Background(), "flexnet://infra/sd", dp.Clone(), DeployOptions{}, func(e error) { err = e })
	if err == nil {
		t.Fatal("duplicate URI accepted")
	}
}

func TestTenantIsolationDeployment(t *testing.T) {
	f, c := testbed(t)
	tn, err := c.AddTenant("acme")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTenant("acme"); err == nil {
		t.Fatal("duplicate tenant admitted")
	}
	dp := &flexbpf.Datapath{Name: "sd", Segments: []*flexbpf.Program{apps.SYNDefense("sd", 128, 3)}}
	deploy(t, f, c, "flexnet://acme/sd", dp, DeployOptions{Tenant: "acme", Path: []string{"s1"}})

	// The tenant's defense applies only to its VLAN.
	s1 := f.Device("s1")
	mk := func(vlan uint64, i int) *packet.Packet {
		p := packet.TCPPacket(uint64(i+1), packet.IP(66, 0, 0, 1), packet.IP(10, 0, 0, 2), uint16(i), 80, packet.TCPSyn, 0)
		if vlan != 0 {
			if err := p.TagVLAN(vlan); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	drops := 0
	for i := 0; i < 10; i++ {
		if st := s1.Process(mk(tn.VLAN, i)); st.Verdict == packet.VerdictDrop {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("tenant defense never fired in its VLAN")
	}
	for i := 0; i < 10; i++ {
		if st := s1.Process(mk(999, i)); st.Verdict == packet.VerdictDrop {
			t.Fatal("tenant defense fired outside its VLAN")
		}
	}
}

func TestRemoveTenantReclaimsResources(t *testing.T) {
	f, c := testbed(t)
	if _, err := c.AddTenant("acme"); err != nil {
		t.Fatal(err)
	}
	free0 := f.Device("s1").Free()
	dp1 := &flexbpf.Datapath{Name: "a", Segments: []*flexbpf.Program{apps.SYNDefense("sd", 128, 3)}}
	dp2 := &flexbpf.Datapath{Name: "b", Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, 128, 100)}}
	deploy(t, f, c, "flexnet://acme/a", dp1, DeployOptions{Tenant: "acme", Path: []string{"s1"}})
	deploy(t, f, c, "flexnet://acme/b", dp2, DeployOptions{Tenant: "acme", Path: []string{"s1"}})
	if f.Device("s1").Free() == free0 {
		t.Fatal("deployments consumed nothing")
	}
	var rmErr error
	done := false
	c.RemoveTenant(context.Background(), "acme", func(e error) { rmErr = e; done = true })
	f.Sim.RunFor(2 * time.Second)
	if !done || rmErr != nil {
		t.Fatalf("remove tenant: %v done=%v", rmErr, done)
	}
	if f.Device("s1").Free() != free0 {
		t.Fatalf("resources not reclaimed: %v != %v", f.Device("s1").Free(), free0)
	}
	if c.state.tenant("acme") != nil {
		t.Fatal("tenant still admitted")
	}
}

func TestScaleOutIn(t *testing.T) {
	f, c := testbed(t)
	dp := &flexbpf.Datapath{Name: "sd", Segments: []*flexbpf.Program{apps.SYNDefense("sd", 128, 3)}}
	deploy(t, f, c, "flexnet://infra/sd", dp, DeployOptions{Path: []string{"s1"}})

	var err error
	c.ScaleOut(context.Background(), "flexnet://infra/sd", "sd", "s2", func(e error) { err = e })
	f.Sim.RunFor(time.Second)
	if err != nil {
		t.Fatalf("scale out: %v", err)
	}
	app := c.App("flexnet://infra/sd")
	if len(app.Replicas["sd"]) != 2 {
		t.Fatalf("replicas = %v", app.Replicas)
	}
	if f.Device("s2").Instance("flexnet://infra/sd#sd") == nil {
		t.Fatal("replica not installed on s2")
	}

	// Duplicate replica refused.
	c.ScaleOut(context.Background(), "flexnet://infra/sd", "sd", "s2", func(e error) { err = e })
	f.Sim.RunFor(time.Second)
	if err == nil {
		t.Fatal("duplicate replica accepted")
	}

	// Scale in back to one.
	c.ScaleIn(context.Background(), "flexnet://infra/sd", "sd", "s2", func(e error) { err = e })
	f.Sim.RunFor(time.Second)
	if err != nil {
		t.Fatalf("scale in: %v", err)
	}
	if f.Device("s2").Instance("flexnet://infra/sd#sd") != nil {
		t.Fatal("replica still installed")
	}
	// Refuse removing the last replica.
	c.ScaleIn(context.Background(), "flexnet://infra/sd", "sd", "s1", func(e error) { err = e })
	f.Sim.RunFor(time.Second)
	if err == nil || !strings.Contains(err.Error(), "last replica") {
		t.Fatalf("last replica removed: %v", err)
	}
}

func TestControllerMigrate(t *testing.T) {
	f, c := testbed(t)
	dp := &flexbpf.Datapath{Name: "mon", Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, 128, 1<<60)}}
	deploy(t, f, c, "flexnet://infra/mon", dp, DeployOptions{Path: []string{"s1"}})

	// Drive some traffic so there is state.
	h1 := f.Host("h1")
	src := h1.NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoTCP, SrcPort: 1, DstPort: 80, PacketLen: 100})
	src.StartCBR(20000)
	f.Sim.RunFor(50 * time.Millisecond)

	var rep migrateReport
	c.Migrate(context.Background(), MigrateRequest{URI: "flexnet://infra/mon", Segment: "hh", Dst: "s2", DataPlane: true}, func(r plan.MoveReport) { rep = migrateReport{r.LostUpdates, r.Err} })
	f.Sim.RunFor(2 * time.Second)
	src.Stop()
	if rep.err != nil {
		t.Fatalf("migrate: %v", rep.err)
	}
	if rep.lost != 0 {
		t.Fatalf("lost %d updates", rep.lost)
	}
	app := c.App("flexnet://infra/mon")
	if app.Replicas["hh"][0] != "s2" {
		t.Fatalf("replica registry not updated: %v", app.Replicas)
	}
	if f.Device("s1").Instance("flexnet://infra/mon#hh") != nil {
		t.Fatal("source instance survived migration")
	}
	if f.Device("s2").Instance("flexnet://infra/mon#hh") == nil {
		t.Fatal("destination instance missing")
	}
}

type migrateReport struct {
	lost uint64
	err  error
}

// TestMigrateDroppedChunksRollBack drops two of the state chunks s1
// streams to s2 during a data-plane migration. Chunks are one-way
// notifications, so only the receiver's acknowledged count shows the
// loss: the move must fail before the flip, the plan roll the
// destination install back, and the source keep the app and its state.
func TestMigrateDroppedChunksRollBack(t *testing.T) {
	f, c := testbed(t)
	const uri, inst = "flexnet://infra/mon", "flexnet://infra/mon#hh"
	dp := &flexbpf.Datapath{Name: "mon", Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, 128, 1<<60)}}
	deploy(t, f, c, uri, dp, DeployOptions{Path: []string{"s1"}})
	// Four flows: enough heavy-hitter slots for a stream of several chunks.
	for port := uint16(1); port <= 4; port++ {
		src := f.Host("h1").NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoTCP, SrcPort: port, DstPort: 80, PacketLen: 100})
		src.StartCBR(5000)
		f.Sim.After(50*time.Millisecond, src.Stop)
	}
	f.Sim.RunFor(60 * time.Millisecond)
	before := f.Device("s1").Instance(inst).ExportState()

	chunks := 0
	f.Router("s1").SetInterceptor(func(p *packet.Packet) drpc.Verdict {
		m, ok := drpc.FromPacket(p)
		if !ok || m.Service != drpc.ServiceStatePush || m.Method != migrate.MethodChunk {
			return drpc.Verdict{}
		}
		chunks++
		return drpc.Verdict{Drop: chunks == 2 || chunks == 3}
	})
	var rep *plan.MoveReport
	var planRep *plan.Report
	c.Migrate(context.Background(), MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DataPlane: true}, func(r plan.MoveReport) {
		rep, planRep = &r, c.LastReport()
	})
	f.Sim.RunFor(2 * time.Second)
	if chunks < 3 {
		t.Fatalf("only %d chunks sent; the test drops the 2nd and 3rd", chunks)
	}
	if rep == nil {
		t.Fatal("migration never reported")
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "acknowledged") {
		t.Fatalf("migration with dropped chunks reported err %v", rep.Err)
	}
	if rep.Flipped != 0 {
		t.Fatal("migration flipped traffic before its chunks were acknowledged")
	}
	if planRep.Outcome != plan.OutcomeRolledBack {
		t.Fatalf("plan outcome %v, want rolled back", planRep.Outcome)
	}
	if f.Device("s2").Instance(inst) != nil {
		t.Fatal("destination install not rolled back")
	}
	sinst := f.Device("s1").Instance(inst)
	if sinst == nil {
		t.Fatal("source instance removed by a failed migration")
	}
	// The source still holds every entry it had (the migration's own
	// dRPC packets cross s1's chain, so counts may only grow).
	after := map[string]uint64{}
	for _, l := range sinst.ExportState() {
		for _, kv := range l.Entries {
			after[fmt.Sprintf("%s[%d]", l.Name, kv.Key)] = kv.Val
		}
	}
	for _, l := range before {
		for _, kv := range l.Entries {
			if k := fmt.Sprintf("%s[%d]", l.Name, kv.Key); after[k] < kv.Val {
				t.Fatalf("source entry %s = %d after the failed migration, was %d", k, after[k], kv.Val)
			}
		}
	}
	if got := c.App(uri).Replicas["hh"][0]; got != "s1" {
		t.Fatalf("replica registry moved to %s", got)
	}
	if drift := c.IntentDrift(); len(drift) != 0 {
		t.Fatalf("intent drift after the failed migration: %v", drift)
	}
}

// TestMigrateResidualDropKeepsDestination drops one residual chunk, after
// the flip has removed the source instance: the move reports the short
// acknowledgement, but the plan commits, so the destination keeps the app
// and the replica registry follows it.
func TestMigrateResidualDropKeepsDestination(t *testing.T) {
	f, c := testbed(t)
	const uri, inst = "flexnet://infra/mon", "flexnet://infra/mon#hh"
	dp := &flexbpf.Datapath{Name: "mon", Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, 128, 1<<60)}}
	deploy(t, f, c, uri, dp, DeployOptions{Path: []string{"s1"}})
	// Traffic keeps running through the move, so there is a residual.
	src := f.Host("h1").NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoTCP, SrcPort: 1, DstPort: 80, PacketLen: 100})
	src.StartCBR(20000)
	f.Sim.RunFor(20 * time.Millisecond)

	dropped := 0
	f.Router("s1").SetInterceptor(func(p *packet.Packet) drpc.Verdict {
		m, ok := drpc.FromPacket(p)
		flipped := f.Device("s1").Instance(inst) == nil
		if !ok || !flipped || m.Method != migrate.MethodChunk || dropped > 0 {
			return drpc.Verdict{}
		}
		dropped++
		return drpc.Verdict{Drop: true}
	})
	var rep *plan.MoveReport
	var planRep *plan.Report
	c.Migrate(context.Background(), MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DataPlane: true}, func(r plan.MoveReport) {
		rep, planRep = &r, c.LastReport()
	})
	f.Sim.RunFor(2 * time.Second)
	src.Stop()
	if dropped != 1 {
		t.Fatalf("dropped %d residual chunks, want 1", dropped)
	}
	if rep == nil {
		t.Fatal("migration never reported")
	}
	if rep.Flipped == 0 {
		t.Fatalf("move failed before the flip: %v", rep.Err)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "acknowledged") {
		t.Fatalf("short residual acknowledgement reported err %v", rep.Err)
	}
	if planRep.Outcome != plan.OutcomeSucceeded {
		t.Fatalf("plan outcome %v, want succeeded", planRep.Outcome)
	}
	if f.Device("s2").Instance(inst) == nil {
		t.Fatal("destination rolled back after the flip")
	}
	if f.Device("s1").Instance(inst) != nil {
		t.Fatal("source still has the program after the flip")
	}
	if got := c.App(uri).Replicas["hh"][0]; got != "s2" {
		t.Fatalf("replica registry at %s, want s2", got)
	}
	if drift := c.IntentDrift(); len(drift) != 0 {
		t.Fatalf("intent drift after the move: %v", drift)
	}
}

// TestMigrateCancelAfterFlipCompletes cancels the plan's context after
// the state move has flipped and before it is done. The source instance
// is already gone, so the plan completes on the destination instead of
// rolling it back, and the report notes the cancellation.
func TestMigrateCancelAfterFlipCompletes(t *testing.T) {
	f, c := testbed(t)
	const uri, inst = "flexnet://infra/mon", "flexnet://infra/mon#hh"
	dp := &flexbpf.Datapath{Name: "mon", Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, 128, 1<<60)}}
	deploy(t, f, c, uri, dp, DeployOptions{Path: []string{"s1"}})
	// Traffic keeps running through the move, so there is a residual.
	src := f.Host("h1").NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoTCP, SrcPort: 1, DstPort: 80, PacketLen: 100})
	src.StartCBR(20000)
	f.Sim.RunFor(20 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Router("s1").SetInterceptor(func(p *packet.Packet) drpc.Verdict {
		if m, ok := drpc.FromPacket(p); ok && m.Method == migrate.MethodChunk && f.Device("s1").Instance(inst) == nil {
			cancel() // a residual chunk after the flip
		}
		return drpc.Verdict{}
	})
	var rep *plan.MoveReport
	var planRep *plan.Report
	c.Migrate(ctx, MigrateRequest{URI: uri, Segment: "hh", Dst: "s2", DataPlane: true}, func(r plan.MoveReport) {
		rep, planRep = &r, c.LastReport()
	})
	f.Sim.RunFor(2 * time.Second)
	src.Stop()
	if ctx.Err() == nil {
		t.Fatal("no residual chunk crossed s1 after the flip; the context was never cancelled")
	}
	if rep == nil {
		t.Fatal("migration never reported")
	}
	if rep.Flipped == 0 || rep.Err != nil {
		t.Fatalf("move flipped at %d with err %v, want a flipped, clean move", rep.Flipped, rep.Err)
	}
	if planRep.Outcome != plan.OutcomeDegraded || len(planRep.Degraded) != 1 || !strings.Contains(planRep.Degraded[0], "cancelled") {
		t.Fatalf("plan outcome %v, degraded %q: want degraded with the cancellation noted", planRep.Outcome, planRep.Degraded)
	}
	var live []string
	for _, d := range f.Devices() {
		if f.Device(d).Instance(inst) != nil {
			live = append(live, d)
		}
	}
	if len(live) != 1 || live[0] != "s2" {
		t.Fatalf("live copies on %v, want exactly one, on s2", live)
	}
	if got := c.App(uri).Replicas["hh"][0]; got != "s2" {
		t.Fatalf("replica registry at %s, want s2", got)
	}
	if drift := c.IntentDrift(); len(drift) != 0 {
		t.Fatalf("intent drift after the move: %v", drift)
	}
}

func TestResourceViewAndMarkRemovable(t *testing.T) {
	f, c := testbed(t)
	dp := &flexbpf.Datapath{Name: "sd", Segments: []*flexbpf.Program{apps.SYNDefense("sd", 128, 3)}}
	deploy(t, f, c, "flexnet://infra/sd", dp, DeployOptions{Path: []string{"s1"}})

	view := c.ResourceView()
	if len(view) != 3 {
		t.Fatalf("view = %d devices", len(view))
	}
	for _, r := range view {
		if r.Device == "s1" && len(r.Programs) < 2 { // routing + sd
			t.Fatalf("s1 programs = %v", r.Programs)
		}
	}
}

func TestPuntsReachController(t *testing.T) {
	f, c := testbed(t)
	// HeavyHitter with threshold 10 punts the heavy flow once.
	dp := &flexbpf.Datapath{Name: "mon", Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, 128, 10)}}
	deploy(t, f, c, "flexnet://infra/mon", dp, DeployOptions{Path: []string{"s1"}})
	var punts []string
	f.Punted = func(dev string, _ *packet.Packet) { punts = append(punts, dev) }
	h1 := f.Host("h1")
	src := h1.NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoTCP, SrcPort: 7, DstPort: 80, PacketLen: 100})
	src.StartCBR(10000)
	f.Sim.RunFor(100 * time.Millisecond)
	src.Stop()
	if len(punts) != 1 || punts[0] != "s1" {
		t.Fatalf("punts reaching the fabric hook = %v, want [s1]", punts)
	}
	if got := f.Device("s1").Stats().Punted; got != 1 {
		t.Fatalf("s1 Stats().Punted = %d, want 1", got)
	}
}

// TestOneChangePerApp: every op plans from the app's state at submit time
// and changes it at commit, and the executor runs plans with disjoint
// device footprints side by side. So a second op on an app submitted
// while the first is in flight is refused; otherwise it would plan from
// state the first is about to replace.
func TestOneChangePerApp(t *testing.T) {
	const uri = "flexnet://infra/mon"
	ctx := context.Background()
	mon := func() *flexbpf.Datapath {
		return &flexbpf.Datapath{Name: "mon", Segments: []*flexbpf.Program{apps.HeavyHitter("hh", 2, 128, 1000)}}
	}
	refused := func(t *testing.T, op string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "one change at a time") {
			t.Fatalf("%s beside a change in flight: %v, want it refused", op, err)
		}
	}
	agrees := func(t *testing.T, c *Controller) {
		t.Helper()
		if d := c.IntentDrift(); len(d) != 0 {
			t.Fatalf("intent drift: %v", d)
		}
		if !replayMatchesIntent(t, c) {
			t.Fatal("audit replay differs from live intent")
		}
	}

	t.Run("remove-and-scale-out", func(t *testing.T) {
		f, c := testbed(t)
		deploy(t, f, c, uri, mon(), DeployOptions{Path: []string{"s1"}})
		rmErr, soErr := errors.New("pending"), errors.New("pending")
		c.Remove(ctx, uri, func(e error) { rmErr = e })
		c.ScaleOut(ctx, uri, "hh", "s2", func(e error) { soErr = e })
		f.Sim.RunFor(2 * time.Second)
		if rmErr != nil {
			t.Fatalf("remove: %v", rmErr)
		}
		refused(t, "scale-out", soErr)
		if c.App(uri) != nil || f.Device("s2").Instance(uri+"#hh") != nil {
			t.Fatalf("after the removal: app %v, s2 instance %v", c.App(uri), f.Device("s2").Instance(uri+"#hh"))
		}
		agrees(t, c)
	})

	t.Run("scale-in-and-remove", func(t *testing.T) {
		f, c := testbed(t)
		deploy(t, f, c, uri, mon(), DeployOptions{Path: []string{"s1"}})
		if err := await(t, f, func(done func(error)) { c.ScaleOut(ctx, uri, "hh", "s2", done) }); err != nil {
			t.Fatal(err)
		}
		siErr, rmErr := errors.New("pending"), errors.New("pending")
		c.ScaleIn(ctx, uri, "hh", "s2", func(e error) { siErr = e })
		c.Remove(ctx, uri, func(e error) { rmErr = e })
		f.Sim.RunFor(2 * time.Second)
		if siErr != nil {
			t.Fatalf("scale-in: %v", siErr)
		}
		refused(t, "remove", rmErr)
		if got := c.App(uri).Replicas["hh"]; len(got) != 1 || got[0] != "s1" {
			t.Fatalf("replicas after the scale-in = %v", got)
		}
		agrees(t, c)
		// Once the scale-in settled, the app takes the removal.
		if err := await(t, f, func(done func(error)) { c.Remove(ctx, uri, done) }); err != nil {
			t.Fatal(err)
		}
		agrees(t, c)
	})

	t.Run("spec-apply-is-one-change", func(t *testing.T) {
		f, c := testbed(t)
		resolve := func(scale int) *spec.Resolved {
			r, err := spec.Resolve(&spec.Spec{Version: fmt.Sprintf("scale-%d", scale), Apps: []spec.AppSpec{{
				URI: uri, Path: []string{"s1", "s2"},
				Segments: []spec.SegmentSpec{{Name: "hh", App: "heavy-hitter", Args: []uint64{2, 128, 1000}, Scale: scale}},
			}}})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		if _, err := applySpec(t, f, c, resolve(1)); err != nil {
			t.Fatal(err)
		}
		// An apply in flight holds every app its diff touches...
		specErr, rmErr := errors.New("pending"), errors.New("pending")
		c.ApplySpec(ctx, resolve(2), SpecOptions{}, func(_ *SpecReport, e error) { specErr = e })
		c.Remove(ctx, uri, func(e error) { rmErr = e })
		f.Sim.RunFor(2 * time.Second)
		if specErr != nil {
			t.Fatalf("spec apply: %v", specErr)
		}
		refused(t, "remove", rmErr)
		if got := c.App(uri).Replicas["hh"]; len(got) != 2 {
			t.Fatalf("replicas after scaling to 2 = %v", got)
		}
		agrees(t, c)
		// ...and an op in flight holds its app against an apply.
		siErr, specErr := errors.New("pending"), errors.New("pending")
		c.ScaleIn(ctx, uri, "hh", c.App(uri).Replicas["hh"][1], func(e error) { siErr = e })
		c.ApplySpec(ctx, resolve(1), SpecOptions{}, func(_ *SpecReport, e error) { specErr = e })
		f.Sim.RunFor(2 * time.Second)
		if siErr != nil {
			t.Fatalf("scale-in: %v", siErr)
		}
		refused(t, "spec apply", specErr)
		if got := c.App(uri).Replicas["hh"]; len(got) != 1 {
			t.Fatalf("replicas after the scale-in = %v", got)
		}
		agrees(t, c)
	})
}

// replayMatchesIntent reports whether replaying the audit trail yields
// the controller's live intent.
func replayMatchesIntent(t *testing.T, c *Controller) bool {
	t.Helper()
	st, err := audit.Replay(c.Audit().Records())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return st.Canonical() == c.CanonicalIntent()
}
