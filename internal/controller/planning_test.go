package controller

import (
	"context"
	"reflect"
	"testing"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/flexbpf"
	"flexnet/internal/flexbpf/delta"
	"flexnet/internal/plan"
)

// tableSeg builds a one-table program demanding about sramBits of SRAM.
func tableSeg(name string, sramBits int) *flexbpf.Program {
	act := flexbpf.NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	return flexbpf.NewProgram(name).
		Action(name+"_fwd", 1, act).
		Table(&flexbpf.TableSpec{
			Name:    name + "_t",
			Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions: []string{name + "_fwd"},
			Size:    sramBits / 96,
		}).
		Apply(name + "_t").
		MustBuild()
}

// deviceSnapshot is what planning must leave alone on every device.
type deviceSnapshot struct {
	Programs []string
	Epoch    uint64
	Free     flexbpf.Demand
}

// TestPlanningLeavesDevicesUntouched runs every Plan* operation and a
// dry run under the fungible strategy — including a deploy that only
// fits once a removable program is reclaimed and one that fails every
// compile round — and checks that no device's program set, epoch or
// free resources moved and that no audit record was written.
func TestPlanningLeavesDevicesUntouched(t *testing.T) {
	f, c := testbed(t)
	s1 := f.Device("s1")
	deploy(t, f, c, "flexnet://infra/old", &flexbpf.Datapath{Name: "old", Segments: []*flexbpf.Program{
		tableSeg("old", s1.Capacity().SRAMBits*6/10)}}, DeployOptions{Path: []string{"s1"}})
	deploy(t, f, c, "flexnet://infra/sd", &flexbpf.Datapath{Name: "sd", Segments: []*flexbpf.Program{
		apps.SYNDefense("sd", 128, 3)}}, DeployOptions{Path: []string{"s1"}})
	deploy(t, f, c, "flexnet://infra/hh", &flexbpf.Datapath{Name: "hh", Segments: []*flexbpf.Program{
		apps.HeavyHitter("hh", 2, 128, 1<<62)}}, DeployOptions{Path: []string{"s1", "s2"}})
	var err error
	c.ScaleOut(context.Background(), "flexnet://infra/hh", "hh", "s2", func(e error) { err = e })
	f.Sim.RunFor(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.targets.get("s1").MarkRemovable("flexnet://infra/old#old"); err != nil {
		t.Fatal(err)
	}

	snapshot := func() (map[string]deviceSnapshot, int) {
		out := map[string]deviceSnapshot{}
		for _, name := range f.Devices() {
			d := f.Device(name)
			out[name] = deviceSnapshot{Programs: d.Programs(), Epoch: d.Epoch(), Free: d.Free()}
		}
		return out, c.Audit().Len()
	}
	before, audits := snapshot()
	check := func(op string, cp *plan.ChangePlan) {
		t.Helper()
		if cp != nil {
			if rep := c.DryRun(cp); rep.Err != nil {
				t.Fatalf("%s: dry run: %v", op, rep.Err)
			}
		}
		after, n := snapshot()
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("%s changed the devices:\nbefore %+v\nafter  %+v", op, before, after)
		}
		if n != audits {
			t.Fatalf("%s wrote %d audit record(s)", op, n-audits)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// Fits on s1 only once "old" is counted as freed.
	cp, placed, err := c.PlanDeploy("flexnet://infra/new", &flexbpf.Datapath{Name: "new", Segments: []*flexbpf.Program{
		tableSeg("new", s1.Capacity().SRAMBits/2)}}, DeployOptions{Path: []string{"s1"}})
	must(err)
	if len(placed.Reclaims) != 1 || placed.Reclaims[0].Program != "flexnet://infra/old#old" {
		t.Fatalf("reclaims = %v, want flexnet://infra/old#old on s1", placed.Reclaims)
	}
	check("PlanDeploy (reclaim)", nil)

	// Fits nowhere, whatever the fungible rounds free.
	most := 0
	for _, name := range f.Devices() {
		most = max(most, f.Device(name).Capacity().SRAMBits)
	}
	if _, _, err := c.PlanDeploy("flexnet://infra/huge", &flexbpf.Datapath{Name: "huge", Segments: []*flexbpf.Program{
		tableSeg("huge", 2*most)}}, DeployOptions{}); err == nil {
		t.Fatal("an oversized deploy planned")
	}
	check("PlanDeploy (fails)", nil)

	cp, _, err = c.PlanDeploy("flexnet://infra/fw", &flexbpf.Datapath{Name: "fw", Segments: []*flexbpf.Program{
		apps.SYNDefense("fw", 64, 3)}}, DeployOptions{Path: []string{"s2"}})
	must(err)
	check("PlanDeploy", cp)

	cp, err = c.PlanRemove("flexnet://infra/sd")
	must(err)
	check("PlanRemove", cp)

	cp, _, err = c.PlanScaleOut("flexnet://infra/sd", "sd", "")
	must(err)
	check("PlanScaleOut", cp)

	cp, err = c.PlanScaleIn("flexnet://infra/hh", "hh", "s2")
	must(err)
	check("PlanScaleIn", cp)

	cp, err = c.PlanMigrate(MigrateRequest{URI: "flexnet://infra/sd", Segment: "sd", Dst: "s2"})
	must(err)
	check("PlanMigrate", cp)

	cp, _, err = c.PlanUpdate("flexnet://infra/sd", "sd", &delta.Delta{Name: "grow", Ops: []delta.Op{
		{RemoveMaps: "sd_syn"},
		{AddMap: &flexbpf.MapSpec{Name: "sd_syn", Kind: flexbpf.MapLRU, MaxEntries: 256, ValueBits: 32, Shared: true}},
	}})
	must(err)
	check("PlanUpdate", cp)

	cp, _, err = c.PlanRedeploy("flexnet://infra/sd", &flexbpf.Datapath{Name: "sd", Segments: []*flexbpf.Program{
		apps.SYNDefense("sd", 128, 3), apps.SYNDefense("sd2", 64, 3)}})
	must(err)
	check("PlanRedeploy", cp)
}
