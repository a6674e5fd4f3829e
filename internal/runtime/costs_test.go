package runtime

import (
	"testing"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
)

// lineFabric builds h1 — sw1 — h2 with base routing and a CBR flow
// h1→h2, returning the fabric and the flow source.
func lineFabric(t *testing.T, arch dataplane.Arch) (*fabric.Fabric, *netsim.Source) {
	t.Helper()
	f := fabric.New(1)
	f.AddSwitch("sw1", arch)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "sw1", netsim.DefaultLink())
	f.Connect("sw1", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	src := h1.NewSource(netsim.FlowSpec{
		Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP,
		SrcPort: 1000, DstPort: 2000, PacketLen: 500,
	})
	return f, src
}

// aclProgram builds a small ACL extension program.
func aclProgram(name string) *flexbpf.Program {
	drop := flexbpf.NewAsm().Drop().MustBuild()
	return flexbpf.NewProgram(name).
		Action("deny", 0, drop).
		Table(&flexbpf.TableSpec{
			Name:    name + "_rules",
			Keys:    []flexbpf.TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32}},
			Actions: []string{"deny"},
			Size:    64,
		}).
		Apply(name + "_rules").
		MustBuild()
}

// tablesProgram builds a program with n exact-match tables.
func tablesProgram(name string, n int) *flexbpf.Program {
	b := flexbpf.NewProgram(name).
		Action("deny", 0, flexbpf.NewAsm().Drop().MustBuild())
	for i := 0; i < n; i++ {
		tn := "t" + string(rune('a'+i))
		b.Table(&flexbpf.TableSpec{
			Name:    tn,
			Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions: []string{"deny"},
			Size:    16,
		}).Apply(tn)
	}
	return b.MustBuild()
}

func TestBaseRoutingDelivers(t *testing.T) {
	f, src := lineFabric(t, dataplane.ArchDRMT)
	src.StartCBR(10000)
	f.Sim.RunUntil(100 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)
	h2 := f.Host("h2")
	if h2.Received == 0 {
		t.Fatal("no packets delivered")
	}
	if h2.Received != src.Sent {
		t.Fatalf("delivered %d of %d", h2.Received, src.Sent)
	}
	if f.InfrastructureDrops() != 0 {
		t.Fatalf("infrastructure drops = %d", f.InfrastructureDrops())
	}
}

func TestRuntimeChangeIsHitless(t *testing.T) {
	// §2: tables added/removed on-the-fly without packet loss. A CBR
	// flow runs while an ACL program is installed mid-stream; zero
	// packets may be lost and the change must commit in under a second.
	f, src := lineFabric(t, dataplane.ArchDRMT)
	_, x := newTestExecutor(f, nil)
	src.StartCBR(50000)

	var rep *plan.Report
	f.Sim.At(50*time.Millisecond, func() {
		x.Execute(plan.New("install acl").Install("sw1", "acl", aclProgram("acl"), nil, 0),
			func(r *plan.Report) { rep = r })
	})
	f.Sim.RunUntil(500 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if rep == nil {
		t.Fatal("change never committed")
	}
	if rep.Err != nil {
		t.Fatalf("change failed: %v", rep.Err)
	}
	if rep.Actual >= time.Second {
		t.Fatalf("runtime change took %v, want < 1s", rep.Actual)
	}
	if f.Device("sw1").Instance("acl") == nil {
		t.Fatal("acl not installed")
	}
	if got, want := f.Host("h2").Received, src.Sent; got != want {
		t.Fatalf("lost packets during runtime change: %d of %d delivered", got, want)
	}
	if f.InfrastructureDrops() != 0 {
		t.Fatalf("infrastructure drops = %d", f.InfrastructureDrops())
	}
}

// TestEstimateLatencyScalesWithChangeSize: the one cost model,
// EstimateOps, grows with every primitive it counts, and the executor
// prices a plan's prepare with it.
func TestEstimateLatencyScalesWithChangeSize(t *testing.T) {
	f, _ := lineFabric(t, dataplane.ArchDRMT)
	eng, x := newTestExecutor(f, nil)
	base := eng.EstimateOps(1, 0, 0, 0)
	for name, grown := range map[string]netsim.Time{
		"tables added":   eng.EstimateOps(2, 0, 0, 0),
		"tables removed": eng.EstimateOps(1, 1, 0, 0),
		"parser ops":     eng.EstimateOps(1, 0, 1, 0),
		"entry ops":      eng.EstimateOps(1, 0, 0, 1),
	} {
		if grown <= base {
			t.Errorf("one more of %s (%v) not slower than the base change (%v)", name, grown, base)
		}
	}
	small := x.Validate(plan.New("small").Install("sw1", "a", aclProgram("a"), nil, 0))
	big := x.Validate(plan.New("big").Install("sw1", "big", tablesProgram("big", 16), nil, 0))
	if small.Err != nil || big.Err != nil {
		t.Fatalf("validate: %v / %v", small.Err, big.Err)
	}
	if small.Estimated != base {
		t.Fatalf("1-table install priced %v, EstimateOps says %v", small.Estimated, base)
	}
	if big.Estimated <= small.Estimated {
		t.Fatalf("16-table change (%v) not slower than 1-table (%v)", big.Estimated, small.Estimated)
	}
	if big.Estimated >= time.Second {
		t.Fatalf("even 16-table change should be sub-second, got %v", big.Estimated)
	}
}

// TestNetworkWideSimultaneous: one plan installs programs of different
// sizes on three switches. Each device prepares for its own estimated
// latency, yet none activates before the slowest is ready: every device
// commits at one instant, and traffic through all three loses nothing.
func TestNetworkWideSimultaneous(t *testing.T) {
	f := fabric.New(2)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchRMT)
	f.AddSwitch("s3", dataplane.ArchTile)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	f.Connect("s2", "s3", netsim.DefaultLink())
	f.Connect("s3", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	src := h1.NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP, PacketLen: 200})
	src.StartCBR(20000)

	eng, x := newTestExecutor(f, nil)
	switches := []string{"s1", "s2", "s3"}
	p := plan.New("network-wide acl")
	for i, sw := range switches {
		p.Install(sw, "acl"+sw, tablesProgram("acl"+sw, i+1), nil, 0)
	}
	const submitAt = 30 * time.Millisecond
	fastest, slowest := eng.EstimateOps(1, 0, 0, 0), eng.EstimateOps(len(switches), 0, 0, 0)
	installed := func() (n int) {
		for _, sw := range switches {
			if f.Device(sw).Instance("acl"+sw) != nil {
				n++
			}
		}
		return n
	}
	var rep *plan.Report
	var beforeSlowest int
	f.Sim.At(submitAt, func() { x.Execute(p, func(r *plan.Report) { rep = r }) })
	f.Sim.At(submitAt+(fastest+slowest)/2, func() { beforeSlowest = installed() })
	f.Sim.RunUntil(500 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if rep == nil || rep.Err != nil {
		t.Fatalf("network change did not commit: %+v", rep)
	}
	if beforeSlowest != 0 {
		t.Fatalf("%d device(s) activated before the slowest prepare finished", beforeSlowest)
	}
	if rep.Actual != slowest {
		t.Fatalf("commit after %v, want the slowest prepare %v", rep.Actual, slowest)
	}
	if n := installed(); n != len(switches) {
		t.Fatalf("%d of %d switches carry their acl", n, len(switches))
	}
	if got, want := f.Host("h2").Received, src.Sent; got != want {
		t.Fatalf("lost packets during network-wide change: %d of %d", got, want)
	}
}

func TestMigrateLatencyMonotone(t *testing.T) {
	eng := NewEngine(netsim.New(1), DefaultCosts())
	if eng.MigrateLatency(1<<20) <= eng.MigrateLatency(1<<10) {
		t.Fatal("migrate latency not monotone in bytes")
	}
}
