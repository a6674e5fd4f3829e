package delta

import (
	"reflect"
	"strings"
	"testing"

	"flexnet/internal/flexbpf"
)

// baseProgram: firewall + routing, the canonical infrastructure program.
func baseProgram() *flexbpf.Program {
	deny := flexbpf.NewAsm().Drop().MustBuild()
	allow := flexbpf.NewAsm().Ret().MustBuild()
	route := flexbpf.NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	return flexbpf.NewProgram("infra").
		HashMap("fw_conns", 512, 64).
		Action("fw_deny", 0, deny).
		Action("fw_allow", 0, allow).
		Action("route_fwd", 1, route).
		Table(&flexbpf.TableSpec{
			Name:          "fw_acl",
			Keys:          []flexbpf.TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32}},
			Actions:       []string{"fw_deny", "fw_allow"},
			DefaultAction: "fw_allow",
			Size:          128,
		}).
		Table(&flexbpf.TableSpec{
			Name:          "route_lpm",
			Keys:          []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchLPM, Bits: 32}},
			Actions:       []string{"route_fwd"},
			DefaultAction: "fw_deny",
			Size:          1024,
		}).
		Apply("fw_acl").
		Apply("route_lpm").
		MustBuild()
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"fw_*", "fw_acl", true},
		{"fw_*", "route", false},
		{"*", "anything", true},
		{"*acl*", "fw_acl_v2", true},
		{"fw_acl", "fw_acl", true},
		{"fw_acl", "fw_acl2", false},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "aXbY", false},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := Pattern(c.pat).Match(c.s); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestApplyAddTable(t *testing.T) {
	base := baseProgram()
	rl := flexbpf.NewAsm().Drop().MustBuild()
	d := &Delta{
		Name: "add-ratelimit",
		Ops: []Op{
			{
				AddActions: []*flexbpf.Action{{Name: "rl_drop", Body: rl}},
				AddTable: &flexbpf.TableSpec{
					Name:    "rl_table",
					Keys:    []flexbpf.TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchExact, Bits: 32}},
					Actions: []string{"rl_drop"},
					Size:    64,
				},
			},
			{
				InsertStmt:  &flexbpf.Stmt{Apply: "rl_table"},
				InsertWhere: AfterTable,
				Anchor:      "fw_acl",
			},
		},
	}
	out, rep, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table("rl_table") == nil {
		t.Fatal("table not added")
	}
	applied := out.AppliedTables()
	if len(applied) != 3 || applied[1] != "rl_table" {
		t.Fatalf("apply order = %v", applied)
	}
	if want := (Report{TablesAdded: []string{"rl_table"}, ActionsAdded: []string{"rl_drop"}, StmtsInserted: 1}); !reflect.DeepEqual(*rep, want) {
		t.Fatalf("report = %+v, want %+v", *rep, want)
	}
	// Base untouched.
	if base.Table("rl_table") != nil || len(base.Pipeline) != 2 {
		t.Fatal("base program mutated")
	}
}

func TestApplyRemoveByPattern(t *testing.T) {
	base := baseProgram()
	d := &Delta{
		Name: "drop-firewall",
		Ops: []Op{
			{RemoveTables: "fw_*"},
			{RemoveMaps: "fw_*"},
		},
	}
	out, rep, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table("fw_acl") != nil || out.Map("fw_conns") != nil {
		t.Fatal("firewall elements not removed")
	}
	if got := out.AppliedTables(); len(got) != 1 || got[0] != "route_lpm" {
		t.Fatalf("pipeline = %v", got)
	}
	if len(rep.TablesRemoved) != 1 || len(rep.MapsRemoved) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// fw_deny/fw_allow actions remain (route_lpm uses fw_deny as default)
	// and the program still verifies.
	if out.Actions["fw_deny"] == nil {
		t.Fatal("shared action removed")
	}
}

func TestApplyReplaceAction(t *testing.T) {
	base := baseProgram()
	// Hot-patch: fw_deny now punts to the controller instead of dropping.
	punt := flexbpf.NewAsm().Punt().MustBuild()
	d := &Delta{Name: "hotpatch", Ops: []Op{{ReplaceAction: "fw_deny", NewBody: punt}}}
	out, rep, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Actions["fw_deny"].Body[0].Op != flexbpf.OpPunt {
		t.Fatal("action not replaced")
	}
	if base.Actions["fw_deny"].Body[0].Op == flexbpf.OpPunt {
		t.Fatal("base action mutated")
	}
	if len(rep.ActionsEdited) != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestApplyResize(t *testing.T) {
	base := baseProgram()
	d := &Delta{Name: "grow", Ops: []Op{{ResizeTables: "route_*", NewSize: 4096}}}
	out, _, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table("route_lpm").Size != 4096 {
		t.Fatalf("size = %d", out.Table("route_lpm").Size)
	}
	if base.Table("route_lpm").Size != 1024 {
		t.Fatal("base mutated")
	}
}

func TestApplyInsertAtStartEnd(t *testing.T) {
	base := baseProgram()
	count := flexbpf.NewAsm().Ret().MustBuild()
	d := &Delta{Name: "wrap", Ops: []Op{
		{InsertStmt: &flexbpf.Stmt{Do: count}, InsertWhere: AtStart},
		{InsertStmt: &flexbpf.Stmt{Do: count}, InsertWhere: AtEnd},
	}}
	out, _, err := Apply(base, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pipeline) != 4 {
		t.Fatalf("pipeline len = %d", len(out.Pipeline))
	}
	if out.Pipeline[0].Do == nil || out.Pipeline[3].Do == nil {
		t.Fatal("inserts misplaced")
	}
}

func TestApplyErrors(t *testing.T) {
	base := baseProgram()
	cases := []struct {
		name string
		d    *Delta
		frag string
	}{
		{"no match remove", &Delta{Ops: []Op{{RemoveTables: "nothing_*"}}}, "matches no tables"},
		{"dup table", &Delta{Ops: []Op{{AddTable: &flexbpf.TableSpec{Name: "fw_acl"}}}}, "already exists"},
		{"bad anchor", &Delta{Ops: []Op{{InsertStmt: &flexbpf.Stmt{Apply: "fw_acl"}, InsertWhere: BeforeTable, Anchor: "nope"}}}, "not applied"},
		{"empty op", &Delta{Ops: []Op{{}}}, "empty delta"},
		{"break verify", &Delta{Ops: []Op{{RemoveActions: "route_fwd"}}}, "does not verify"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := Apply(base, c.d)
			if err == nil {
				t.Fatal("apply succeeded")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Fatalf("error %q missing %q", err, c.frag)
			}
		})
	}
}

func TestSequentialDeltas(t *testing.T) {
	// Apply two deltas in sequence: tenant adds a table, then a later
	// delta retires it — net effect is the base program shape again.
	base := baseProgram()
	add := &Delta{Name: "add", Ops: []Op{
		{
			AddActions: []*flexbpf.Action{{Name: "t_drop", Body: flexbpf.NewAsm().Drop().MustBuild()}},
			AddTable: &flexbpf.TableSpec{
				Name:    "t_table",
				Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
				Actions: []string{"t_drop"},
				Size:    8,
			},
		},
		{InsertStmt: &flexbpf.Stmt{Apply: "t_table"}, InsertWhere: AtEnd},
	}}
	v2, _, err := Apply(base, add)
	if err != nil {
		t.Fatal(err)
	}
	retire := &Delta{Name: "retire", Ops: []Op{
		{RemoveTables: "t_table"},
		{RemoveActions: "t_drop"},
	}}
	v3, _, err := Apply(v2, retire)
	if err != nil {
		t.Fatal(err)
	}
	if len(v3.Tables) != len(base.Tables) || len(v3.Actions) != len(base.Actions) {
		t.Fatal("add+retire is not identity on shape")
	}
	if d := flexbpf.ProgramDemand(v3); d != flexbpf.ProgramDemand(base) {
		t.Fatalf("demand changed: %v vs %v", d, flexbpf.ProgramDemand(base))
	}
}
