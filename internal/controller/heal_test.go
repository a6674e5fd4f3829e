package controller

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/audit"
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
	heals := healPlans(ctl)
	if len(heals) == 0 || heals[len(heals)-1].Outcome != plan.OutcomeSucceeded.String() {
		t.Fatalf("heal plans in the audit trail: %+v", heals)
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

// healPlans returns the audit trail's heal plan records, oldest first.
func healPlans(c *Controller) []audit.Record {
	var out []audit.Record
	for _, r := range c.Audit().Records() {
		if r.Kind == "plan" && r.Origin == "heal" {
			out = append(out, r)
		}
	}
	return out
}

// stepOps returns a plan record's step ops in order.
func stepOps(r audit.Record) []string {
	ops := make([]string, len(r.Steps))
	for i, s := range r.Steps {
		ops[i] = s.Op
	}
	return ops
}

// orphanAfterDegraded deploys flexnet://t/syn on s1 and scales it out to
// s2, starts the healer, takes s2's management path down with its
// configuration intact, and runs op — a removal that degrades around s2
// and so leaves the instance running there. It checks that the orphan
// survives while s2 is down, brings s2 back up and lets the healer run
// for two simulated seconds, then asserts it removed the orphan with one
// heal plan and recorded no crash recovery.
func orphanAfterDegraded(t *testing.T, op func(c *Controller, done func(error))) {
	t.Helper()
	f, ctl := testbed(t)
	const uri, inst = "flexnet://t/syn", "flexnet://t/syn#syn"
	dp := &flexbpf.Datapath{Name: uri, Segments: []*flexbpf.Program{apps.SYNDefense("syn", 1024, 10)}}
	deploy(t, f, ctl, uri, dp, DeployOptions{Path: []string{"s1"}})
	if err := await(t, f, func(done func(error)) { ctl.ScaleOut(context.Background(), uri, "syn", "s2", done) }); err != nil {
		t.Fatalf("scale-out: %v", err)
	}
	h := ctl.StartHealer(time.Millisecond)
	s2 := f.Device("s2")
	s2.SetDown(true)
	if err := await(t, f, func(done func(error)) { op(ctl, done) }); err != nil {
		t.Fatal(err)
	}
	if rep := ctl.LastReport(); rep.Outcome != plan.OutcomeDegraded {
		t.Fatalf("outcome = %v, want degraded", rep.Outcome)
	}
	f.Sim.RunFor(100 * time.Millisecond)
	orphan := []string{"device s2 has orphan instance " + inst}
	if drift := ctl.IntentDrift(); !reflect.DeepEqual(drift, orphan) {
		t.Fatalf("drift while s2 is down = %q, want %q", drift, orphan)
	}

	s2.SetDown(false)
	f.Sim.RunFor(2 * time.Second)
	if s2.Instance(inst) != nil {
		t.Fatalf("orphan still runs on s2: %v", s2.Programs())
	}
	if drift := ctl.IntentDrift(); len(drift) != 0 {
		t.Fatalf("drift after heal: %v", drift)
	}
	if !replayMatchesIntent(t, ctl) {
		t.Fatal("audit replay differs from live intent")
	}
	heals := healPlans(ctl)
	if len(heals) != 1 || heals[0].Outcome != plan.OutcomeSucceeded.String() ||
		!reflect.DeepEqual(stepOps(heals[0]), []string{"remove", "route-update"}) || heals[0].Steps[0].Instance != inst {
		t.Fatalf("heal plans = %+v, want one that removes %s from s2", heals, inst)
	}
	if h.Recovered() != 0 || len(h.Pending()) != 0 {
		t.Fatalf("recovered %d, pending %v: an orphan repair is not a crash recovery", h.Recovered(), h.Pending())
	}
}

// A Remove that degrades around a down device leaves the app running
// there; once the device is back, the healer removes it.
func TestHealerRemovesOrphanAfterDegradedRemove(t *testing.T) {
	orphanAfterDegraded(t, func(c *Controller, done func(error)) {
		c.Remove(context.Background(), "flexnet://t/syn", done)
	})
}

// The same for a ScaleIn that retires the down device's replica.
func TestHealerRemovesOrphanAfterDegradedScaleIn(t *testing.T) {
	orphanAfterDegraded(t, func(c *Controller, done func(error)) {
		c.ScaleIn(context.Background(), "flexnet://t/syn", "syn", "s2", done)
	})
}

// An assigned instance removed behind the controller's back on an up
// device is reinstalled — a drift repair, not a crash recovery.
func TestHealerReinstallsRemovedInstance(t *testing.T) {
	f, ctl := testbed(t)
	const uri, inst = "flexnet://t/syn", "flexnet://t/syn#syn"
	dp := &flexbpf.Datapath{Name: uri, Segments: []*flexbpf.Program{apps.SYNDefense("syn", 1024, 10)}}
	deploy(t, f, ctl, uri, dp, DeployOptions{Path: []string{"s1"}})
	h := ctl.StartHealer(time.Millisecond)
	if err := f.Device("s1").RemoveProgram(inst); err != nil {
		t.Fatal(err)
	}
	f.Sim.RunFor(500 * time.Millisecond)
	if f.Device("s1").Instance(inst) == nil {
		t.Fatal("instance not reinstalled")
	}
	if drift := ctl.IntentDrift(); len(drift) != 0 {
		t.Fatalf("drift after heal: %v", drift)
	}
	heals := healPlans(ctl)
	if len(heals) != 1 || !reflect.DeepEqual(stepOps(heals[0]), []string{"install", "route-update"}) {
		t.Fatalf("heal plans = %+v, want one install", heals)
	}
	if h.Recovered() != 0 {
		t.Fatalf("recovered = %d, want 0", h.Recovered())
	}
}
