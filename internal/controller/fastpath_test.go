package controller

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"flexnet/internal/compiler"
	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
	"flexnet/internal/flexbpf/delta"
	"flexnet/internal/plan"
)

// mapSeg builds a one-map segment whose only demand knob is the map's
// entry count, so tests can dial resource pressure precisely.
func mapSeg(name string, entries int) *flexbpf.Program {
	return flexbpf.NewProgram(name).
		HashMap(name+"_m", entries, 8).SharedMap().
		Do(flexbpf.NewAsm().Ret().MustBuild()).
		MustBuild()
}

func resizeDelta(seg string, entries int) *delta.Delta {
	return &delta.Delta{Name: fmt.Sprintf("resize-%d", entries), Ops: []delta.Op{
		{RemoveMaps: delta.Pattern(seg + "_m")},
		{AddMap: &flexbpf.MapSpec{Name: seg + "_m", Kind: flexbpf.MapHash, MaxEntries: entries, ValueBits: 8, Shared: true}},
	}}
}

func TestDeployUnknownPathDeviceIsSentinel(t *testing.T) {
	f, c := testbed(t)
	dp := &flexbpf.Datapath{Name: "x", Segments: []*flexbpf.Program{mapSeg("sa", 128)}}
	_, _, err := c.PlanDeploy("flexnet://infra/x", dp, DeployOptions{Path: []string{"s1", "ghost"}})
	if !errors.Is(err, errdefs.ErrUnknownDevice) {
		t.Fatalf("PlanDeploy err = %v, want errdefs.ErrUnknownDevice", err)
	}
	var deployErr error
	c.Deploy(context.Background(), "flexnet://infra/x", dp, DeployOptions{Path: []string{"ghost"}}, func(e error) { deployErr = e })
	f.Sim.RunFor(time.Second)
	if !errors.Is(deployErr, errdefs.ErrUnknownDevice) {
		t.Fatalf("Deploy err = %v, want errdefs.ErrUnknownDevice", deployErr)
	}
}

func TestScaleOutAutoPlace(t *testing.T) {
	f, c := testbed(t)
	uri := "flexnet://infra/auto"
	dp := &flexbpf.Datapath{Name: "auto", Segments: []*flexbpf.Program{mapSeg("sa", 128)}}
	deploy(t, f, c, uri, dp, DeployOptions{Path: []string{"s1"}})

	// Empty device: the controller picks one — never a device that
	// already holds a replica.
	_, dev, err := c.PlanScaleOut(uri, "sa", "")
	if err != nil {
		t.Fatalf("PlanScaleOut: %v", err)
	}
	if dev == "" || dev == "s1" {
		t.Fatalf("auto-place chose %q", dev)
	}
	var scaleErr error
	doneAt := false
	c.ScaleOut(context.Background(), uri, "sa", "", func(e error) { scaleErr, doneAt = e, true })
	f.Sim.RunFor(2 * time.Second)
	if !doneAt || scaleErr != nil {
		t.Fatalf("ScaleOut: %v (done=%v)", scaleErr, doneAt)
	}
	reps := c.App(uri).Replicas["sa"]
	if len(reps) != 2 || reps[1] != dev {
		t.Fatalf("replicas = %v, want [s1 %s]", reps, dev)
	}
	if f.Device(dev).Instance(uri+"#sa") == nil {
		t.Fatalf("auto-placed replica missing on %s", dev)
	}
	// Unknown segment still errors.
	if _, _, err := c.PlanScaleOut(uri, "ghost", ""); err == nil {
		t.Fatal("PlanScaleOut accepted unknown segment")
	}
}

func TestRedeploySwapsChangedSegmentInPlace(t *testing.T) {
	f, c := testbed(t)
	uri := "flexnet://infra/rd"
	deploy(t, f, c, uri, &flexbpf.Datapath{Name: "rd", Segments: []*flexbpf.Program{mapSeg("sa", 128)}},
		DeployOptions{Path: []string{"s1"}})

	newDP := &flexbpf.Datapath{Name: "rd", Segments: []*flexbpf.Program{mapSeg("sa", 256)}}
	var err error
	done := false
	c.Redeploy(context.Background(), uri, newDP, func(e error) { err, done = e, true })
	f.Sim.RunFor(2 * time.Second)
	if !done || err != nil {
		t.Fatalf("redeploy: %v (done=%v)", err, done)
	}
	app := c.App(uri)
	if got := app.Replicas["sa"]; len(got) != 1 || got[0] != "s1" {
		t.Fatalf("in-place swap moved the replica: %v", got)
	}
	inst := f.Device("s1").Instance(uri + "#sa")
	if inst == nil {
		t.Fatal("instance missing after redeploy")
	}
	if got := inst.Program().Maps[0].MaxEntries; got != 256 {
		t.Fatalf("map size = %d, want 256", got)
	}
}

// TestRedeployCatchesComputeOnlyChange: a new version that changes only
// an immediate inside an inline do block — same length, same tables and
// maps — is still a changed segment. flexbpf.Dump prints such a block as
// "do {N instrs}", so comparing dumps planned zero steps and the old
// program kept running; the plan must swap it and the device must run
// the new version.
func TestRedeployCatchesComputeOnlyChange(t *testing.T) {
	f, c := testbed(t)
	stamp := func(v uint64) *flexbpf.Program {
		return flexbpf.NewProgram("stamp").
			Do(flexbpf.NewAsm().MovImm(0, v).StField("meta.ver", 0).Ret().MustBuild()).
			MustBuild()
	}
	uri := "flexnet://infra/stamp"
	deploy(t, f, c, uri, &flexbpf.Datapath{Name: "stamp", Segments: []*flexbpf.Program{stamp(1)}},
		DeployOptions{Path: []string{"s1"}})

	newDP := &flexbpf.Datapath{Name: "stamp", Segments: []*flexbpf.Program{stamp(2)}}
	cp, _, err := c.PlanRedeploy(uri, newDP)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Steps) != 1 || cp.Steps[0].Op != plan.OpSwapProgram || cp.Steps[0].Device != "s1" {
		t.Fatalf("redeploy plan = %v, want one swap on s1", cp.Steps)
	}
	done := false
	c.Redeploy(context.Background(), uri, newDP, func(e error) { err, done = e, true })
	f.Sim.RunFor(2 * time.Second)
	if !done || err != nil {
		t.Fatalf("redeploy: %v (done=%v)", err, done)
	}
	inst := f.Device("s1").Instance(uri + "#stamp")
	if inst == nil {
		t.Fatal("instance missing after redeploy")
	}
	if compiler.Fingerprint(inst.Program()) != compiler.Fingerprint(stamp(2)) {
		t.Fatalf("s1 still runs the old version:\n%s", flexbpf.Disasm(inst.Program().Pipeline[0].Do))
	}
}

func TestRedeployAddsAndRemovesSegments(t *testing.T) {
	f, c := testbed(t)
	uri := "flexnet://infra/grow"
	deploy(t, f, c, uri, &flexbpf.Datapath{Name: "g", Segments: []*flexbpf.Program{mapSeg("sa", 128)}},
		DeployOptions{Path: []string{"s1"}})

	run := func(dp *flexbpf.Datapath) {
		t.Helper()
		var err error
		done := false
		c.Redeploy(context.Background(), uri, dp, func(e error) { err, done = e, true })
		f.Sim.RunFor(2 * time.Second)
		if !done || err != nil {
			t.Fatalf("redeploy: %v (done=%v)", err, done)
		}
	}

	run(&flexbpf.Datapath{Name: "g", Segments: []*flexbpf.Program{mapSeg("sa", 128), mapSeg("sb", 64)}})
	app := c.App(uri)
	if len(app.Replicas["sb"]) != 1 {
		t.Fatalf("added segment has replicas %v", app.Replicas["sb"])
	}
	if f.Device(app.Replicas["sb"][0]).Instance(uri+"#sb") == nil {
		t.Fatal("added segment not installed")
	}

	run(&flexbpf.Datapath{Name: "g", Segments: []*flexbpf.Program{mapSeg("sb", 64)}})
	app = c.App(uri)
	if _, ok := app.Replicas["sa"]; ok {
		t.Fatalf("removed segment still registered: %v", app.Replicas)
	}
	if f.Device("s1").Instance(uri+"#sa") != nil {
		t.Fatal("removed segment still installed on s1")
	}
}

func TestUpdateRejectsMoveRedeployPerformsIt(t *testing.T) {
	f, c := testbed(t)
	// Fill most of s1 (dRMT, 12<<22 bit pool, 104 bits/entry) so growing the app's map
	// cannot fit in place.
	filler := "flexnet://infra/filler"
	deploy(t, f, c, filler, &flexbpf.Datapath{Name: "fill", Segments: []*flexbpf.Program{mapSeg("fl", 1<<18)}},
		DeployOptions{Path: []string{"s1"}})
	uri := "flexnet://infra/mv"
	deploy(t, f, c, uri, &flexbpf.Datapath{Name: "mv", Segments: []*flexbpf.Program{mapSeg("sa", 1<<17)}},
		DeployOptions{Path: []string{"s1"}})

	// An update that grows past s1's remaining pool must NOT silently
	// relocate the app: the fast-path contract is that updates stay in
	// place and moves are explicit (Redeploy/Migrate).
	var upErr error
	upDone := false
	c.UpdateApp(context.Background(), uri, "sa", resizeDelta("sa", 1<<18), func(_ *delta.Report, e error) { upErr, upDone = e, true })
	f.Sim.RunFor(2 * time.Second)
	if !upDone {
		t.Fatal("update never completed")
	}
	if !errors.Is(upErr, errdefs.ErrInsufficientResources) || !strings.Contains(fmt.Sprint(upErr), "migrate first") {
		t.Fatalf("update err = %v, want ErrInsufficientResources with 'migrate first' guidance", upErr)
	}

	// Redeploy owns the move: same grown datapath succeeds by relocating
	// the segment off s1.
	var rdErr error
	rdDone := false
	c.Redeploy(context.Background(), uri, &flexbpf.Datapath{Name: "mv", Segments: []*flexbpf.Program{mapSeg("sa", 1<<18)}},
		func(e error) { rdErr, rdDone = e, true })
	f.Sim.RunFor(2 * time.Second)
	if !rdDone || rdErr != nil {
		t.Fatalf("redeploy: %v (done=%v)", rdErr, rdDone)
	}
	app := c.App(uri)
	dev := app.Replicas["sa"][0]
	if dev == "s1" {
		t.Fatal("redeploy left the grown segment on the full device")
	}
	if f.Device("s1").Instance(uri+"#sa") != nil {
		t.Fatal("old instance survived the move")
	}
	inst := f.Device(dev).Instance(uri + "#sa")
	if inst == nil {
		t.Fatalf("moved instance missing on %s", dev)
	}
	if got := inst.Program().Maps[0].MaxEntries; got != 1<<18 {
		t.Fatalf("moved map size = %d, want %d", got, 1<<18)
	}
}

func TestIncrementalAndFullPlacementIdentical(t *testing.T) {
	// The same op sequence under incremental and full-recompute placement
	// must land every segment on the same devices — the fast path may
	// only change cost, never outcomes.
	type endState struct{ assigns, replicas string }
	run := func(incremental bool) endState {
		f, c := testbed(t)
		c.SetIncrementalPlacement(incremental)
		uri := "flexnet://infra/same"
		deploy(t, f, c, uri, &flexbpf.Datapath{Name: "s", Segments: []*flexbpf.Program{mapSeg("sa", 128), mapSeg("sb", 128)}},
			DeployOptions{Path: []string{"s1", "s2"}})
		await := func(op func(done func(error))) {
			t.Helper()
			var err error
			done := false
			op(func(e error) { err, done = e, true })
			f.Sim.RunFor(2 * time.Second)
			if !done || err != nil {
				t.Fatalf("op (incremental=%v): %v (done=%v)", incremental, err, done)
			}
		}
		await(func(done func(error)) {
			c.UpdateApp(context.Background(), uri, "sa", resizeDelta("sa", 256), func(_ *delta.Report, e error) { done(e) })
		})
		await(func(done func(error)) { c.ScaleOut(context.Background(), uri, "sb", "", done) })
		app := c.App(uri)
		var st endState
		for _, a := range app.Plan.Assignments {
			st.assigns += a.Segment + "@" + a.Device + ";"
		}
		for _, s := range []string{"sa", "sb"} {
			st.replicas += s + "=" + strings.Join(app.Replicas[s], ",") + ";"
		}
		return st
	}
	inc, full := run(true), run(false)
	if inc != full {
		t.Fatalf("placement diverged:\nincremental: %+v\nfull:        %+v", inc, full)
	}
}
