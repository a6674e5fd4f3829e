package controller

import (
	"testing"
	"time"

	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

func TestProbeTransientUtility(t *testing.T) {
	f, c := testbed(t)
	// Record the exact resource state of every path device beforehand.
	before := map[string]flexbpf.Demand{}
	for _, dev := range []string{"nic1", "s1", "s2"} {
		before[dev] = f.Device(dev).Free()
	}
	// Background traffic keeps the path busy during the probe.
	src := mustSource(t, f, "h1", packet.IP(10, 0, 0, 2))
	src.StartCBR(10000)

	var rep ProbeReport
	gotRep := false
	f.Sim.At(20*time.Millisecond, func() {
		c.Probe("h1", packet.IP(10, 0, 0, 2), []string{"nic1", "s1", "s2"}, func(r ProbeReport) {
			rep = r
			gotRep = true
		})
	})
	f.Sim.RunFor(2 * time.Second)
	src.Stop()
	f.Sim.RunFor(20 * time.Millisecond)

	if !gotRep {
		t.Fatal("probe never completed")
	}
	if rep.Err != nil {
		t.Fatalf("probe failed: %v", rep.Err)
	}
	if rep.Hops != 3 {
		t.Fatalf("probe hops = %d, want 3", rep.Hops)
	}
	if rep.LastDevice != 3 {
		t.Fatalf("last device id = %d, want 3", rep.LastDevice)
	}
	if rep.PathLatency <= 0 {
		t.Fatalf("path latency = %v", rep.PathLatency)
	}
	if rep.CleanedAt <= rep.InjectedAt {
		t.Fatal("cleanup did not happen after injection")
	}
	// The defining property: zero persistent footprint.
	for dev, want := range before {
		if got := f.Device(dev).Free(); got != want {
			t.Fatalf("%s resources changed after probe: %v != %v", dev, got, want)
		}
		for _, prog := range f.Device(dev).Programs() {
			if prog != "infra.routing" {
				t.Fatalf("%s still hosts %q after probe cleanup", dev, prog)
			}
		}
	}
	// Background traffic was never disturbed.
	if f.InfrastructureDrops() != 0 {
		t.Fatalf("probe disturbed traffic: %d drops", f.InfrastructureDrops())
	}
}

func TestProbeErrors(t *testing.T) {
	f, c := testbed(t)
	var rep ProbeReport
	c.Probe("ghost", packet.IP(10, 0, 0, 2), []string{"s1"}, func(r ProbeReport) { rep = r })
	if rep.Err == nil {
		t.Fatal("probe from unknown host succeeded")
	}
	c.Probe("h1", packet.IP(99, 9, 9, 9), []string{"s1"}, func(r ProbeReport) { rep = r })
	if rep.Err == nil {
		t.Fatal("probe to unknown destination succeeded")
	}
	c.Probe("h1", packet.IP(10, 0, 0, 2), []string{"sX"}, func(r ProbeReport) { rep = r })
	if rep.Err == nil {
		t.Fatal("probe over unknown device succeeded")
	}
	_ = f
}

func TestProbeWatchdogCleansUpOnLoss(t *testing.T) {
	f, c := testbed(t)
	// Break the path after injection so the probe is lost: down the
	// s2—h2 link right away.
	gotRep := false
	var rep ProbeReport
	f.Net.LinkBetween("s2", "h2").SetDown(true)
	c.Probe("h1", packet.IP(10, 0, 0, 2), []string{"s1", "s2"}, func(r ProbeReport) {
		rep = r
		gotRep = true
	})
	f.Sim.RunFor(3 * time.Second)
	if !gotRep {
		t.Fatal("watchdog never fired")
	}
	if rep.Err == nil {
		t.Fatal("lost probe reported success")
	}
	// Utility still cleaned up.
	for _, dev := range []string{"s1", "s2"} {
		for _, prog := range f.Device(dev).Programs() {
			if prog != "infra.routing" {
				t.Fatalf("%s still hosts %q after watchdog cleanup", dev, prog)
			}
		}
	}
}

func mustSource(t *testing.T, f *fabric.Fabric, host string, dst uint32) *netsim.Source {
	t.Helper()
	h := f.Host(host)
	if h == nil {
		t.Fatalf("no host %s", host)
	}
	return h.NewSource(netsim.FlowSpec{Dst: dst, Proto: packet.ProtoUDP, SrcPort: 1, DstPort: 2, PacketLen: 100})
}
