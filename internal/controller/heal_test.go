package controller

import (
	"strings"
	"testing"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/flexbpf"
	"flexnet/internal/plan"
)

// A crash wipes the device; the healer must reinstall the app and the
// infra routing program and record one bounded MTTR.
func TestHealerReconcilesCrash(t *testing.T) {
	f, ctl := testbed(t)
	dp := &flexbpf.Datapath{Name: "flexnet://t/syn", Segments: []*flexbpf.Program{apps.SYNDefense("syn", 1024, 10)}}
	deploy(t, f, ctl, "flexnet://t/syn", dp, DeployOptions{Path: []string{"s1"}})
	h := ctl.StartHealer(time.Millisecond)

	d := f.Device("s1")
	d.Crash()
	if got := d.Programs(); len(got) != 0 {
		t.Fatalf("programs survive crash: %v", got)
	}
	if drift := ctl.IntentDrift(); len(drift) == 0 {
		t.Fatal("no intent drift after crash")
	}
	f.Sim.After(10*time.Millisecond, d.Restart)
	f.Sim.RunFor(500 * time.Millisecond)

	if h.Recovered() != 1 {
		t.Fatalf("recovered = %d, want 1", h.Recovered())
	}
	if len(h.Pending()) != 0 {
		t.Fatalf("pending = %v, want none", h.Pending())
	}
	if drift := ctl.IntentDrift(); len(drift) != 0 {
		t.Fatalf("drift after heal: %v", drift)
	}
	if d.Instance("flexnet://t/syn#syn") == nil {
		t.Fatal("app instance not reinstalled")
	}
	// MTTR = 10ms restart + 1ms scan period + plan execution; anything
	// over a second means the healer dawdled.
	mttr := time.Duration(h.MTTRs[0])
	if mttr < 10*time.Millisecond || mttr > time.Second {
		t.Fatalf("MTTR %v out of bounds", mttr)
	}
	rep := h.Reports[len(h.Reports)-1]
	if rep.Outcome != plan.OutcomeSucceeded {
		t.Fatalf("reconcile outcome = %v", rep.Outcome)
	}
}

// A device that is still down stays pending; the healer must not try to
// reconcile it until it restarts.
func TestHealerWaitsForRestart(t *testing.T) {
	f, ctl := testbed(t)
	dp := &flexbpf.Datapath{Name: "flexnet://t/syn", Segments: []*flexbpf.Program{apps.SYNDefense("syn", 1024, 10)}}
	deploy(t, f, ctl, "flexnet://t/syn", dp, DeployOptions{Path: []string{"s1"}})
	h := ctl.StartHealer(time.Millisecond)

	f.Device("s1").Crash()
	f.Sim.RunFor(100 * time.Millisecond)
	if h.Recovered() != 0 {
		t.Fatalf("recovered a down device: %d", h.Recovered())
	}
	if got := h.Pending(); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("pending = %v, want [s1]", got)
	}
	f.Device("s1").Restart()
	f.Sim.RunFor(500 * time.Millisecond)
	if h.Recovered() != 1 {
		t.Fatalf("recovered = %d after restart, want 1", h.Recovered())
	}
}

// Crash generations accumulate: two crashes separated by quiet periods
// mean two recoveries, and a crash during reconciliation retries rather
// than recording a bogus recovery.
func TestHealerRepeatCrashes(t *testing.T) {
	f, ctl := testbed(t)
	dp := &flexbpf.Datapath{Name: "flexnet://t/syn", Segments: []*flexbpf.Program{apps.SYNDefense("syn", 1024, 10)}}
	deploy(t, f, ctl, "flexnet://t/syn", dp, DeployOptions{Path: []string{"s1"}})
	h := ctl.StartHealer(time.Millisecond)

	d := f.Device("s1")
	for i := 0; i < 2; i++ {
		d.Crash()
		f.Sim.After(10*time.Millisecond, d.Restart)
		f.Sim.RunFor(500 * time.Millisecond)
	}
	if h.Recovered() != 2 {
		t.Fatalf("recovered = %d, want 2", h.Recovered())
	}
	if len(ctl.IntentDrift()) != 0 {
		t.Fatalf("drift: %v", ctl.IntentDrift())
	}
}

// IntentDrift names the missing instance and device.
func TestIntentDriftNamesMissing(t *testing.T) {
	f, ctl := testbed(t)
	dp := &flexbpf.Datapath{Name: "flexnet://t/syn", Segments: []*flexbpf.Program{apps.SYNDefense("syn", 1024, 10)}}
	deploy(t, f, ctl, "flexnet://t/syn", dp, DeployOptions{Path: []string{"s1"}})
	f.Device("s1").Crash()
	drift := ctl.IntentDrift()
	if len(drift) != 1 {
		t.Fatalf("drift = %v, want one entry", drift)
	}
	if !strings.Contains(drift[0], "s1") || !strings.Contains(drift[0], "flexnet://t/syn#syn") {
		t.Fatalf("drift entry %q does not name device and instance", drift[0])
	}
}

// IntentDrift names an app instance a device holds that intent does not
// assign to it — a replica of a live app on the wrong device, or any
// instance of an app that is not deployed — and nothing else the device
// runs (infra routing).
func TestIntentDriftNamesOrphan(t *testing.T) {
	f, ctl := testbed(t)
	dp := &flexbpf.Datapath{Name: "flexnet://t/syn", Segments: []*flexbpf.Program{apps.SYNDefense("syn", 1024, 10)}}
	deploy(t, f, ctl, "flexnet://t/syn", dp, DeployOptions{Path: []string{"s1"}})
	for _, name := range []string{"flexnet://t/syn#syn", "flexnet://t/gone#x"} {
		orphan := apps.SYNDefense("syn", 1024, 10)
		orphan.Name = name
		if err := f.Device("s2").InstallProgram(orphan); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"device s2 has orphan instance flexnet://t/gone#x",
		"device s2 has orphan instance flexnet://t/syn#syn",
	}
	if drift := ctl.IntentDrift(); strings.Join(drift, "\n") != strings.Join(want, "\n") {
		t.Fatalf("drift = %q, want %q", drift, want)
	}
}
