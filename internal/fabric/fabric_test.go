package fabric

import (
	"runtime"
	"testing"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

func diamond(t *testing.T) *Fabric {
	t.Helper()
	// h1 — s1 — s2 — h2 with an alternate path s1 — s3 — s2.
	f := New(5)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	f.AddSwitch("s3", dataplane.ArchRMT)
	f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	f.Connect("s1", "s3", netsim.DefaultLink())
	f.Connect("s3", "s2", netsim.DefaultLink())
	f.Connect("s2", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRoutingProgramForwards(t *testing.T) {
	f := diamond(t)
	h1 := f.Host("h1")
	src := h1.NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP, PacketLen: 100})
	src.StartCBR(5000)
	f.Sim.RunUntil(100 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)
	if f.Host("h2").Received != src.Sent {
		t.Fatalf("delivered %d/%d", f.Host("h2").Received, src.Sent)
	}
	// The direct path (s1→s2) must have been used, not the detour.
	if f.Device("s3").Stats().Processed != 0 {
		t.Fatal("detour switch processed traffic on the shortest path")
	}
}

func TestRerouteAfterFailure(t *testing.T) {
	f := diamond(t)
	h1 := f.Host("h1")
	src := h1.NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP, PacketLen: 100})
	src.StartCBR(5000)
	f.Sim.RunUntil(50 * time.Millisecond)

	f.Net.LinkBetween("s1", "s2").SetDown(true)
	if err := f.RefreshRoutes(); err != nil {
		t.Fatal(err)
	}
	f.Sim.RunUntil(150 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if f.Device("s3").Stats().Processed == 0 {
		t.Fatal("traffic not rerouted through the detour")
	}
	// Packets in flight on the dead link are lost; everything sent after
	// the reroute arrives.
	lost := src.Sent - f.Host("h2").Received
	if lost > 5 {
		t.Fatalf("lost %d packets after an immediate reroute", lost)
	}
}

func TestTTLExpiryDropsPacket(t *testing.T) {
	f := diamond(t)
	p := packet.UDPPacket(1, packet.IP(10, 0, 0, 1), packet.IP(10, 0, 0, 2), 1, 2, 10)
	p.SetField("ipv4.ttl", 1) // dies at the second switch
	f.Host("h1").Send(p)
	f.Sim.Run()
	if f.Host("h2").Received != 0 {
		t.Fatal("expired packet delivered")
	}
	p2 := packet.UDPPacket(2, packet.IP(10, 0, 0, 1), packet.IP(10, 0, 0, 2), 1, 2, 10)
	p2.SetField("ipv4.ttl", 2)
	f.Host("h1").Send(p2)
	f.Sim.Run()
	if f.Host("h2").Received != 1 {
		t.Fatal("ttl=2 packet not delivered over a 2-switch path")
	}
}

func TestUnroutableDropped(t *testing.T) {
	f := diamond(t)
	p := packet.UDPPacket(1, packet.IP(10, 0, 0, 1), packet.IP(99, 99, 99, 99), 1, 2, 10)
	f.Host("h1").Send(p)
	f.Sim.Run()
	if f.Host("h2").Received != 0 {
		t.Fatal("unroutable packet delivered somewhere")
	}
	if f.Device("s1").Stats().Dropped != 1 {
		t.Fatalf("s1 drops = %d", f.Device("s1").Stats().Dropped)
	}
}

func TestRecirculationBounded(t *testing.T) {
	f := New(1)
	f.AddSwitch("sw", dataplane.ArchSoC)
	f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.Connect("h1", "sw", netsim.DefaultLink())
	// A program that always recirculates: must be cut off by the limit.
	prog := recircProgram()
	if err := f.Device("sw").InstallProgram(prog); err != nil {
		t.Fatal(err)
	}
	f.Host("h1").Send(packet.UDPPacket(1, 1, 2, 3, 4, 10))
	f.Sim.Run()
	if f.ContinueDrops != 1 {
		t.Fatalf("recirc loop not bounded: drops=%d", f.ContinueDrops)
	}
}

func TestPuntedCallback(t *testing.T) {
	f := New(1)
	f.AddSwitch("sw", dataplane.ArchDRMT)
	f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.Connect("h1", "sw", netsim.DefaultLink())
	if err := f.Device("sw").InstallProgram(puntProgram()); err != nil {
		t.Fatal(err)
	}
	var punted []string
	f.Punted = func(dev string, pkt *packet.Packet) { punted = append(punted, dev) }
	f.Host("h1").Send(packet.UDPPacket(1, 1, 2, 3, 4, 10))
	f.Sim.Run()
	if len(punted) != 1 || punted[0] != "sw" {
		t.Fatalf("punts = %v", punted)
	}
}

func TestDRPCSetupErrors(t *testing.T) {
	f := New(1)
	f.AddSwitch("sw", dataplane.ArchDRMT)
	if _, err := f.EnableDRPC("ghost", 1); err == nil {
		t.Fatal("drpc on unknown device")
	}
	if _, err := f.EnableDRPC("sw", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.EnableDRPC("sw", 2); err == nil {
		t.Fatal("double drpc enable")
	}
	if _, err := f.EnableHostDRPC("ghost"); err == nil {
		t.Fatal("host drpc on unknown host")
	}
}

func TestSwitchClockDrivesMeters(t *testing.T) {
	f := New(1)
	d := f.AddSwitch("sw", dataplane.ArchDRMT)
	f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.Connect("h1", "sw", netsim.DefaultLink())
	var observed uint64
	clockProbe := nowProgram()
	if err := d.InstallProgram(clockProbe); err != nil {
		t.Fatal(err)
	}
	f.Sim.At(5*time.Millisecond, func() {
		p := packet.UDPPacket(1, 1, 2, 3, 4, 10)
		d.Process(p)
		observed = p.Field("meta.now")
	})
	f.Sim.Run()
	if observed != uint64(5*time.Millisecond) {
		t.Fatalf("device clock = %d, want %d", observed, 5*time.Millisecond)
	}
}

func TestInfraRoutingProgramVerifies(t *testing.T) {
	p := InfraRoutingProgram()
	if p.Table(RouteTableName) == nil {
		t.Fatal("routing table missing")
	}
	if p.Name != InfraProgramName {
		t.Fatalf("name = %q", p.Name)
	}
	if err := flexbpf.Verify(p); err != nil {
		t.Fatalf("does not verify: %v", err)
	}
	ti := flexbpf.NewTableInstance(p.Table(RouteTableName))
	if _, err := flexbpf.Link(p, func(string) *flexbpf.TableInstance { return ti }); err != nil {
		t.Fatalf("verifies but does not link: %v", err)
	}
}

// oneHopFabric builds h1–s1–h2 with base routing and a 100 kpps UDP flow
// from h1 to h2, already run for 10 ms so that the flow cache is warm and
// the event heap has its capacity. It returns the fabric and h2.
func oneHopFabric(tb testing.TB) (*Fabric, *Host) {
	tb.Helper()
	f := New(1)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		tb.Fatal(err)
	}
	src := f.Host("h1").NewSource(netsim.FlowSpec{
		Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP,
		SrcPort: 1000, DstPort: 2000, PacketLen: 100,
	})
	src.StartCBR(100000)
	f.Sim.RunFor(10 * time.Millisecond)
	return f, f.Host("h2")
}

// TestHopAllocBudget bounds the heap allocations a delivered packet
// costs on the one-hop path h1–s1–h2 with base routing: source emission,
// a device visit, an egress transmit, two link arrivals and the host
// delivery. The path reads 2.00 — the packet's struct and its PHV; the
// source tick, the device visit and the three packet events allocate
// nothing — and the bound is one above that, so a per-hop closure or
// buffer cannot creep back unnoticed.
func TestHopAllocBudget(t *testing.T) {
	const budget = 3.0
	f, h2 := oneHopFabric(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := h2.Received
	f.Sim.RunFor(120 * time.Millisecond)
	got := h2.Received - start
	runtime.ReadMemStats(&after)
	if got < 10000 {
		t.Fatalf("delivered %d packets, want >= 10000", got)
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(got)
	t.Logf("%.2f allocs per delivered packet over %d packets", perPkt, got)
	if perPkt > budget {
		t.Fatalf("%.2f allocs per delivered packet, budget %.0f", perPkt, budget)
	}
}

// BenchmarkFabricHop times one delivered packet on the path of
// TestHopAllocBudget: ns/op and allocs/op are per packet, which is four
// simulator events (source tick, arrival, transmit, arrival).
func BenchmarkFabricHop(b *testing.B) {
	f, h2 := oneHopFabric(b)
	const period = 10 * time.Microsecond // one packet at 100 kpps
	b.ReportAllocs()
	b.ResetTimer()
	start := h2.Received
	f.Sim.RunFor(netsim.Time(b.N) * period)
	b.StopTimer()
	if got := h2.Received - start; got != uint64(b.N) {
		b.Fatalf("delivered %d packets, want %d", got, b.N)
	}
}
