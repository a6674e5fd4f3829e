package plan

import (
	"testing"

	"flexnet/internal/flexbpf"
)

func prog(name string) *flexbpf.Program {
	return flexbpf.NewProgram(name).
		Do([]flexbpf.Instr{{Op: flexbpf.OpNop}}).
		MustBuild()
}

func TestFluentBuilders(t *testing.T) {
	p := New("test").
		Install("s1", "app#a", prog("a"), nil, 0).
		Remove("s2", "app#b").
		Swap("s1", "app#c", prog("c"), nil).
		MigrateState("app#d", "s1", "s2", true).
		RouteUpdate()
	if len(p.Steps) != 5 {
		t.Fatalf("steps = %d, want 5", len(p.Steps))
	}
	want := []Op{OpInstallInstance, OpRemoveInstance, OpSwapProgram, OpMigrateState, OpRouteUpdate}
	for i, op := range want {
		if p.Steps[i].Op != op {
			t.Errorf("step %d op = %v, want %v", i, p.Steps[i].Op, op)
		}
	}
	m := p.Steps[3]
	if m.Src != "s1" || m.Device != "s2" || !m.UseDataPlane {
		t.Fatalf("migrate step = %+v", m)
	}
}

func TestDevicesFirstAppearanceOrder(t *testing.T) {
	p := New("order").
		Install("s2", "a", prog("a"), nil, 0).
		Install("s1", "b", prog("b"), nil, 0).
		Remove("s2", "c").
		RouteUpdate()
	devs := p.Devices()
	if len(devs) != 2 || devs[0] != "s2" || devs[1] != "s1" {
		t.Fatalf("devices = %v, want [s2 s1]", devs)
	}
}

func TestStepStrings(t *testing.T) {
	cases := map[string]Step{
		"install a on s1":                        {Op: OpInstallInstance, Device: "s1", Instance: "a"},
		"remove a on s1":                         {Op: OpRemoveInstance, Device: "s1", Instance: "a"},
		"swap a on s1":                           {Op: OpSwapProgram, Device: "s1", Instance: "a"},
		"migrate-state a: s1 -> s2 (data-plane)": {Op: OpMigrateState, Instance: "a", Src: "s1", Device: "s2", UseDataPlane: true},
		"route-update":                           {Op: OpRouteUpdate},
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if PhaseCommit.String() != "commit" || PhaseDone.String() != "done" {
		t.Fatal("phase strings")
	}
	if OutcomeRolledBack.String() != "rolled-back" {
		t.Fatal("outcome strings")
	}
	if StepPrepared.String() != "prepared" {
		t.Fatal("step status strings")
	}
}
