package controller

import (
	"context"
	"errors"
	"testing"
	"time"

	"flexnet/internal/audit"
	"flexnet/internal/errdefs"
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

// probeRecords returns the audit records the probe's plans left.
func probeRecords(c *Controller) []audit.Record {
	var out []audit.Record
	for _, r := range c.Audit().Records() {
		if r.Origin == "probe" {
			out = append(out, r)
		}
	}
	return out
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

// TestProbeIsAuditedAndLeavesIntentAlone: inject and clean-up are two
// committed plans with origin "probe", and audit replay equals live
// intent before, during and after the probe — the _probe.<dev> programs
// are infrastructure, not app intent.
func TestProbeIsAuditedAndLeavesIntentAlone(t *testing.T) {
	f, c := testbed(t)
	deploy(t, f, c, "flexnet://infra/hh", &flexbpf.Datapath{Name: "hh", Segments: []*flexbpf.Program{mapSeg("hh", 128)}},
		DeployOptions{Path: []string{"s1"}})
	if !replayMatchesIntent(t, c) {
		t.Fatal("replay differs from intent before the probe")
	}
	appends, during := 0, false
	c.Audit().OnAppendRecord(func(r audit.Record) {
		appends++
		if !replayMatchesIntent(t, c) {
			t.Errorf("replay differs from intent after record %d (%s)", r.Seq, r.Label)
		}
		if r.Origin == "probe" && f.Device("s1").Instance("_probe.s1") != nil {
			during = true
		}
	})
	var rep *ProbeReport
	c.Probe("h1", packet.IP(10, 0, 0, 2), []string{"s1", "s2"}, func(r ProbeReport) { rep = &r })
	f.Sim.RunFor(2 * time.Second)
	if rep == nil || rep.Err != nil {
		t.Fatalf("probe: %+v", rep)
	}
	if !during {
		t.Fatal("no check ran while the probe programs were installed")
	}
	recs := probeRecords(c)
	if len(recs) != 2 || appends != 2 {
		t.Fatalf("probe left %d probe records (%d appends), want inject + clean-up", len(recs), appends)
	}
	for _, r := range recs {
		if r.Kind != "plan" || r.Outcome != "succeeded" {
			t.Fatalf("probe record %q: kind %s outcome %s", r.Label, r.Kind, r.Outcome)
		}
	}
	if got := f.Metrics.CounterValue("ctl.audit.records"); got != 3 {
		t.Fatalf("ctl.audit.records = %d, want 3 (the deploy, inject and clean-up)", got)
	}
	if !replayMatchesIntent(t, c) {
		t.Fatal("replay differs from intent after the probe")
	}
}

// TestProbeWaitsForConflictingPlan: a probe over s1 submitted while a
// deploy holds s1 is admitted only after the deploy finishes.
func TestProbeWaitsForConflictingPlan(t *testing.T) {
	f, c := testbed(t)
	var deployedAt netsim.Time
	c.Deploy(context.Background(), "flexnet://infra/hh", &flexbpf.Datapath{Name: "hh", Segments: []*flexbpf.Program{mapSeg("hh", 128)}},
		DeployOptions{Path: []string{"s1"}}, func(err error) {
			if err != nil {
				t.Errorf("deploy: %v", err)
			}
			deployedAt = f.Sim.Now()
		})
	var rep *ProbeReport
	c.Probe("h1", packet.IP(10, 0, 0, 2), []string{"s1"}, func(r ProbeReport) { rep = &r })
	if f.Device("s1").Instance("_probe.s1") != nil {
		t.Fatal("probe installed synchronously")
	}
	f.Sim.RunFor(2 * time.Second)
	if rep == nil || rep.Err != nil || deployedAt == 0 {
		t.Fatalf("probe %+v, deploy done at %v", rep, deployedAt)
	}
	recs := probeRecords(c)
	if len(recs) != 2 {
		t.Fatalf("probe records = %d", len(recs))
	}
	if inject := netsim.Time(recs[0].AtNs); inject <= deployedAt {
		t.Fatalf("probe inject committed at %v, not after the deploy holding s1 (%v)", inject, deployedAt)
	}
}

// TestProbeInjectFailureInstallsNothing: an inject that fails validation
// (s2 is down) installs nothing anywhere on the path and ends the probe
// with the plan's error.
func TestProbeInjectFailureInstallsNothing(t *testing.T) {
	f, c := testbed(t)
	free := f.Device("s1").Free()
	f.Device("s2").SetDown(true)
	var rep *ProbeReport
	c.Probe("h1", packet.IP(10, 0, 0, 2), []string{"s1", "s2"}, func(r ProbeReport) { rep = &r })
	f.Sim.RunFor(2 * time.Second)
	if rep == nil || !errors.Is(rep.Err, errdefs.ErrDeviceDown) {
		t.Fatalf("probe over a down device: %+v", rep)
	}
	if f.Device("s1").Instance("_probe.s1") != nil || f.Device("s1").Free() != free {
		t.Fatal("failed inject left a probe program on s1")
	}
	recs := probeRecords(c)
	if len(recs) != 1 || recs[0].Outcome != "failed" {
		t.Fatalf("probe records = %+v, want one failed inject", recs)
	}
}
