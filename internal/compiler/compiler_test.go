package compiler

import (
	"reflect"
	"strings"
	"testing"

	"flexnet/internal/dataplane"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

// fakeTarget is an in-memory Target for planner tests.
type fakeTarget struct {
	name      string
	caps      flexbpf.Capabilities
	free      flexbpf.Demand
	latNs     uint64
	pps       uint64
	active    bool
	idleW     float64
	activeW   float64
	removable map[string]flexbpf.Demand
}

func (t *fakeTarget) Name() string                       { return t.name }
func (t *fakeTarget) Capabilities() flexbpf.Capabilities { return t.caps }
func (t *fakeTarget) Free() flexbpf.Demand               { return t.free }
func (t *fakeTarget) CanHost(p *flexbpf.Program) bool {
	return t.caps.Satisfies(p.Requires) && flexbpf.ProgramDemand(p).Fits(t.free)
}
func (t *fakeTarget) BaseLatencyNs() uint64                { return t.latNs }
func (t *fakeTarget) CapacityPPS() uint64                  { return t.pps }
func (t *fakeTarget) Active() bool                         { return t.active }
func (t *fakeTarget) IdleWatts() float64                   { return t.idleW }
func (t *fakeTarget) ActiveWatts() float64                 { return t.activeW }
func (t *fakeTarget) Removable() map[string]flexbpf.Demand { return t.removable }

func bigDemand() flexbpf.Demand {
	return flexbpf.Demand{SRAMBits: 1 << 20, TCAMBits: 1 << 16, ALUs: 256, Tables: 16, ParserStates: 16}
}

// segment builds a program with roughly the requested SRAM demand.
func segment(name string, sramBits int) *flexbpf.Program {
	entries := sramBits / (32 + 32 + 32) // key+param+overhead per entry
	if entries < 1 {
		entries = 1
	}
	act := flexbpf.NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	return flexbpf.NewProgram(name).
		Action("fwd", 1, act).
		Table(&flexbpf.TableSpec{
			Name:    name + "_t",
			Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions: []string{"fwd"},
			Size:    entries,
		}).
		Apply(name + "_t").
		MustBuild()
}

func dp(name string, segs ...*flexbpf.Program) *flexbpf.Datapath {
	return &flexbpf.Datapath{Name: name, Segments: segs}
}

func TestCompileSimple(t *testing.T) {
	targets := []Target{
		&fakeTarget{name: "s1", free: bigDemand(), latNs: 400, pps: 1e9},
		&fakeTarget{name: "s2", free: bigDemand(), latNs: 400, pps: 1e9},
	}
	c := New(StrategyBinPack)
	plan, err := c.Compile(dp("d", segment("a", 1000), segment("b", 1000)), targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 2 {
		t.Fatalf("assignments = %v", plan.Assignments)
	}
	if plan.Iterations != 1 {
		t.Fatalf("iterations = %d", plan.Iterations)
	}
}

func TestCompileRespectsCapabilities(t *testing.T) {
	host := &fakeTarget{name: "h", caps: flexbpf.Capabilities{Transport: true, GeneralCompute: true}, free: bigDemand(), pps: 1e6}
	sw := &fakeTarget{name: "sw", caps: flexbpf.Capabilities{TCAM: true}, free: bigDemand(), pps: 1e9}
	cc := segment("cc", 100)
	cc.Requires = flexbpf.Capabilities{Transport: true}
	plan, err := New(StrategyBinPack).Compile(dp("d", cc), []Target{sw, host}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.DeviceFor("cc") != "h" {
		t.Fatalf("cc placed on %s", plan.DeviceFor("cc"))
	}
}

func TestCompilePathOrdering(t *testing.T) {
	targets := []Target{
		&fakeTarget{name: "s1", free: bigDemand(), pps: 1e9},
		&fakeTarget{name: "s2", free: bigDemand(), pps: 1e9},
		&fakeTarget{name: "s3", free: bigDemand(), pps: 1e9},
	}
	path := []string{"s1", "s2", "s3"}
	// Three segments, the middle pinned by capacity to s2... instead,
	// verify ordering: assignments must be non-decreasing along path.
	plan, err := New(StrategyBinPack).Compile(
		dp("d", segment("a", 100), segment("b", 100), segment("c", 100)),
		targets, path)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{"s1": 0, "s2": 1, "s3": 2}
	last := -1
	for _, a := range plan.Assignments {
		if pos[a.Device] < last {
			t.Fatalf("path order violated: %v", plan.Assignments)
		}
		last = pos[a.Device]
	}
}

func TestBinPackFailsWhereFungibleSucceeds(t *testing.T) {
	// Device is full of a removable program; bin-packing fails, the
	// fungible compiler reclaims it and succeeds. This is E8's core
	// contrast.
	seg := segment("new", 1<<18)
	need := flexbpf.ProgramDemand(seg)
	tight := flexbpf.Demand{SRAMBits: need.SRAMBits / 2, TCAMBits: 1 << 12, ALUs: 64, Tables: 4, ParserStates: 8}
	mk := func() *fakeTarget {
		return &fakeTarget{
			name: "sw", free: tight, pps: 1e9,
			removable: map[string]flexbpf.Demand{"old_app": {SRAMBits: need.SRAMBits, Tables: 2}},
		}
	}
	if _, err := New(StrategyBinPack).Compile(dp("d", seg), []Target{mk()}, nil); err == nil {
		t.Fatal("bin-packing succeeded on a full device")
	}
	plan, err := New(StrategyFungible).Compile(dp("d", seg), []Target{mk()}, nil)
	if err != nil {
		t.Fatalf("fungible compile failed: %v", err)
	}
	if want := []Reclaim{{Device: "sw", Program: "old_app"}}; !reflect.DeepEqual(plan.Reclaims, want) {
		t.Fatalf("reclaims = %v, want %v", plan.Reclaims, want)
	}
	if plan.Iterations < 2 {
		t.Fatalf("iterations = %d, want >= 2", plan.Iterations)
	}
}

func TestEnergyStrategyConsolidates(t *testing.T) {
	activeDev := &fakeTarget{name: "on", free: bigDemand(), active: true, idleW: 150, activeW: 60, pps: 1e9}
	idleDev := &fakeTarget{name: "off", free: bigDemand(), active: false, idleW: 150, activeW: 60, pps: 1e9}
	plan, err := New(StrategyEnergy).Compile(
		dp("d", segment("a", 100), segment("b", 100)),
		[]Target{idleDev, activeDev}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		if a.Device != "on" {
			t.Fatalf("energy strategy woke an idle device: %v", plan.Assignments)
		}
	}
}

func TestSLAThroughputFilter(t *testing.T) {
	slow := &fakeTarget{name: "host", caps: flexbpf.Capabilities{GeneralCompute: true}, free: bigDemand(), pps: 1e6}
	fast := &fakeTarget{name: "asic", free: bigDemand(), pps: 1e9, latNs: 400}
	d := dp("d", segment("a", 100))
	d.SLA.MinThroughputPPS = 1e8
	plan, err := New(StrategyBinPack).Compile(d, []Target{slow, fast}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.DeviceFor("a") != "asic" {
		t.Fatalf("SLA-violating device chosen: %v", plan.Assignments)
	}
}

func TestCheckSLALatency(t *testing.T) {
	plan := &Plan{EstLatencyNs: 5000}
	d := &flexbpf.Datapath{SLA: flexbpf.SLA{MaxLatencyNs: 1000}}
	if err := CheckSLA(plan, d); err == nil {
		t.Fatal("SLA violation not detected")
	}
	d.SLA.MaxLatencyNs = 10000
	if err := CheckSLA(plan, d); err != nil {
		t.Fatal(err)
	}
}

func TestDiff(t *testing.T) {
	old := dp("d", segment("a", 100), segment("b", 100), segment("c", 100))
	new := dp("d", segment("a", 100), segment("b", 100000), segment("e", 100))
	delta := Diff(old, new)
	if len(delta.Same) != 1 || delta.Same[0] != "a" {
		t.Fatalf("same = %v", delta.Same)
	}
	if len(delta.Changed) != 1 || delta.Changed[0] != "b" {
		t.Fatalf("changed = %v", delta.Changed)
	}
	if len(delta.Added) != 1 || delta.Added[0] != "e" {
		t.Fatalf("added = %v", delta.Added)
	}
	if len(delta.Removed) != 1 || delta.Removed[0] != "c" {
		t.Fatalf("removed = %v", delta.Removed)
	}
}

func TestRecompileMinimalMoves(t *testing.T) {
	targets := []Target{
		&fakeTarget{name: "s1", free: bigDemand(), pps: 1e9},
		&fakeTarget{name: "s2", free: bigDemand(), pps: 1e9},
	}
	c := New(StrategyFungible)
	old := dp("d", segment("a", 1000), segment("b", 1000))
	plan, err := c.Compile(old, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Add one segment: nothing already placed may move.
	new := dp("d", segment("a", 1000), segment("b", 1000), segment("c", 1000))
	inc, err := c.Recompile(plan, old, new, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Moves != 0 {
		t.Fatalf("adding a segment moved %d existing segments", inc.Moves)
	}
	if len(inc.Place) != 1 || inc.Place[0].Segment != "c" {
		t.Fatalf("place = %v", inc.Place)
	}
	if len(inc.Keep) != 2 {
		t.Fatalf("keep = %v", inc.Keep)
	}
}

func TestRecompileGrowInPlace(t *testing.T) {
	targets := []Target{&fakeTarget{name: "s1", free: bigDemand(), pps: 1e9}}
	c := New(StrategyFungible)
	old := dp("d", segment("a", 1000))
	plan, err := c.Compile(old, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	new := dp("d", segment("a", 2000)) // grown but still fits
	inc, err := c.Recompile(plan, old, new, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Moves != 0 || len(inc.Keep) != 1 {
		t.Fatalf("grow-in-place failed: moves=%d keep=%v", inc.Moves, inc.Keep)
	}
}

func TestRecompileMoveWhenNoRoom(t *testing.T) {
	// s1 exactly fits the original segment; growth forces a move to s2.
	seg := segment("a", 1000)
	need := flexbpf.ProgramDemand(seg)
	tight := need
	tight.ParserStates++ // leave no spare SRAM
	targets := []Target{
		&fakeTarget{name: "s1", free: tight, pps: 1e9},
		&fakeTarget{name: "s2", free: bigDemand(), pps: 1e9},
	}
	c := New(StrategyFungible)
	old := dp("d", seg)
	plan, err := c.Compile(old, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.DeviceFor("a") != "s1" {
		t.Fatalf("setup: a on %s", plan.DeviceFor("a"))
	}
	new := dp("d", segment("a", 64000))
	inc, err := c.Recompile(plan, old, new, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Moves != 1 {
		t.Fatalf("moves = %d, want 1", inc.Moves)
	}
	if inc.EntriesMigrated == 0 {
		t.Fatal("no entry migration accounted")
	}
	if len(inc.Place) != 1 || inc.Place[0].Device != "s2" {
		t.Fatalf("place = %v", inc.Place)
	}
}

func TestRecompileRemovedFreesSpace(t *testing.T) {
	// Device exactly fits one segment; removing it and adding another of
	// the same size must succeed with zero moves.
	segA := segment("a", 1000)
	need := flexbpf.ProgramDemand(segA)
	targets := []Target{&fakeTarget{name: "s1", free: need, pps: 1e9}}
	c := New(StrategyFungible)
	old := dp("d", segA)
	plan, err := c.Compile(old, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the placement consuming the device.
	targets[0].(*fakeTarget).free = flexbpf.Demand{}
	new := dp("d", segment("b", 1000))
	inc, err := c.Recompile(plan, old, new, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Remove) != 1 || inc.Remove[0].Segment != "a" {
		t.Fatalf("remove = %v", inc.Remove)
	}
	if len(inc.Place) != 1 || inc.Place[0].Device != "s1" {
		t.Fatalf("place = %v", inc.Place)
	}
}

func mergeableProgram() *flexbpf.Program {
	setDSCP := flexbpf.NewAsm().LdParam(0, 0).StField("ipv4.dscp", 0).Ret().MustBuild()
	fwd := flexbpf.NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	noop := flexbpf.NewAsm().Ret().MustBuild()
	return flexbpf.NewProgram("qosroute").
		Action("mark", 1, setDSCP).
		Action("fwd", 1, fwd).
		Action("skip", 0, noop).
		Table(&flexbpf.TableSpec{
			Name:          "qos",
			Keys:          []flexbpf.TableKey{{Field: "ipv4.dscp", Kind: flexbpf.MatchExact, Bits: 6}},
			Actions:       []string{"mark"},
			DefaultAction: "skip",
			Size:          8,
		}).
		Table(&flexbpf.TableSpec{
			Name:          "route",
			Keys:          []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions:       []string{"fwd"},
			DefaultAction: "skip",
			Size:          64,
		}).
		Apply("qos").
		Apply("route").
		MustBuild()
}

func TestMergeTablesHazardRefused(t *testing.T) {
	// qos's "mark" action writes ipv4.dscp... route doesn't match dscp,
	// so that's fine. Build the hazardous direction: a table matching
	// dscp after a table whose action writes dscp.
	p := mergeableProgram()
	// Reorder: route then qos — route's fwd writes nothing qos reads?
	// fwd writes no fields. Use the original order but make route match
	// dscp to create the hazard.
	p2 := p.Clone()
	p2.Table("route").Keys = []flexbpf.TableKey{{Field: "ipv4.dscp", Kind: flexbpf.MatchExact, Bits: 6}}
	if _, err := MergeTables(p2, "qos", "route", 5); err == nil {
		t.Fatal("hazardous merge accepted")
	} else if !strings.Contains(err.Error(), "writes") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMergeTablesCrossProduct(t *testing.T) {
	p := mergeableProgram()
	m, err := MergeTables(p, "qos", "route", 5)
	if err != nil {
		t.Fatal(err)
	}
	merged, stats := m.Program, m.Stats
	if merged.Table("qos+route") == nil {
		t.Fatal("merged table missing")
	}
	if merged.Table("qos") != nil || merged.Table("route") != nil {
		t.Fatal("original tables not removed")
	}
	// Cross product: 8×64 pairs + 8 + 64 partial-hit rows.
	if got := merged.Table("qos+route").Size; got != 8*64+8+64 {
		t.Fatalf("merged size = %d", got)
	}
	if stats.MemFactor <= 1 {
		t.Fatalf("merge should cost memory, factor = %f", stats.MemFactor)
	}
	if stats.TCAMAfterBits <= stats.TCAMBeforeBits {
		t.Fatal("cross product should move memory into TCAM")
	}
	if stats.LookupsSaved != 1 || stats.LatencySavedNs != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	// The merged program must still verify (MergeTables checks, but be
	// explicit) and keep one apply.
	if err := flexbpf.Verify(merged); err != nil {
		t.Fatal(err)
	}
	applies := merged.AppliedTables()
	if len(applies) != 1 || applies[0] != "qos+route" {
		t.Fatalf("applies = %v", applies)
	}
}

func TestMergedSemanticsEquivalent(t *testing.T) {
	// Execute original and merged programs on the same packets with
	// equivalent entries; behaviour must match.
	orig := mergeableProgram()
	m, err := MergeTables(orig, "qos", "route", 0)
	if err != nil {
		t.Fatal(err)
	}
	merged := m.Program

	dev1 := dataplane.MustNew(dataplane.DefaultConfig("d1", dataplane.ArchDRMT))
	dev2 := dataplane.MustNew(dataplane.DefaultConfig("d2", dataplane.ArchDRMT))
	if err := dev1.InstallProgram(orig); err != nil {
		t.Fatal(err)
	}
	if err := dev2.InstallProgram(merged); err != nil {
		t.Fatal(err)
	}
	qosEntries := []*flexbpf.TableEntry{
		flexbpf.ExactEntry("mark", []uint64{7}, 0), // dscp 0 → mark 7
	}
	routeEntries := []*flexbpf.TableEntry{
		flexbpf.ExactEntry("fwd", []uint64{3}, uint64(packet.IP(10, 0, 0, 2))),
	}
	i1 := dev1.Instance("qosroute")
	for _, e := range qosEntries {
		if err := i1.Table("qos").Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range routeEntries {
		if err := i1.Table("route").Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// The cross product of those entries: hit×hit, then each table's hit
	// with the other's default action; a full miss runs skip+skip.
	dscp, dst := flexbpf.MatchValue{Value: 0, Mask: 1<<6 - 1}, flexbpf.MatchValue{Value: uint64(packet.IP(10, 0, 0, 2)), Mask: 1<<32 - 1}
	mergedEntries := []*flexbpf.TableEntry{
		{Priority: 2_000_000, Match: []flexbpf.MatchValue{dscp, dst}, Action: "mark+fwd", Params: []uint64{7, 3}},
		{Priority: 1_000_000, Match: []flexbpf.MatchValue{dscp, {}}, Action: "mark+skip", Params: []uint64{7}},
		{Priority: 1_000_000, Match: []flexbpf.MatchValue{{}, dst}, Action: "skip+fwd", Params: []uint64{3}},
	}
	i2 := dev2.Instance("qosroute")
	for _, e := range mergedEntries {
		if err := i2.Table("qos+route").Insert(e); err != nil {
			t.Fatal(err)
		}
	}

	for _, dst := range []uint32{packet.IP(10, 0, 0, 2), packet.IP(10, 0, 0, 9)} {
		p1 := packet.TCPPacket(1, packet.IP(10, 0, 0, 1), dst, 1, 80, 0, 0)
		p2 := p1.Clone()
		s1 := dev1.Process(p1)
		s2 := dev2.Process(p2)
		if s1.Verdict != s2.Verdict {
			t.Fatalf("dst %x: verdicts differ %v vs %v", dst, s1.Verdict, s2.Verdict)
		}
		if p1.EgressPort != p2.EgressPort {
			t.Fatalf("dst %x: egress differ %d vs %d", dst, p1.EgressPort, p2.EgressPort)
		}
		if p1.Field("ipv4.dscp") != p2.Field("ipv4.dscp") {
			t.Fatalf("dst %x: dscp differ %d vs %d", dst, p1.Field("ipv4.dscp"), p2.Field("ipv4.dscp"))
		}
		if s2.Lookups >= s1.Lookups {
			t.Fatalf("merged should use fewer lookups: %d vs %d", s2.Lookups, s1.Lookups)
		}
	}
}

func TestDeviceTargetAdapter(t *testing.T) {
	dev := dataplane.MustNew(dataplane.DefaultConfig("sw", dataplane.ArchDRMT))
	tgt := NewDeviceTarget(dev)
	if tgt.Active() {
		t.Fatal("fresh device active")
	}
	prog := segment("app", 1000)
	if err := dev.InstallProgram(prog); err != nil {
		t.Fatal(err)
	}
	if !tgt.Active() {
		t.Fatal("device with program not active")
	}
	if err := tgt.MarkRemovable("ghost"); err == nil {
		t.Fatal("marked missing program removable")
	}
	if err := tgt.MarkRemovable("app"); err != nil {
		t.Fatal(err)
	}
	if got, want := tgt.Removable()["app"], flexbpf.ProgramDemand(prog); got != want {
		t.Fatalf("removable demand = %v, want %v", got, want)
	}
}

// TestFungibleReclaimLeavesDeviceUntouched checks the garbage-collection
// round plans on the scratch view: the placement counts the removable
// program as freed and names it, but the device keeps running it.
func TestFungibleReclaimLeavesDeviceUntouched(t *testing.T) {
	dev := dataplane.MustNew(dataplane.DefaultConfig("sw", dataplane.ArchDRMT))
	tgt := NewDeviceTarget(dev)
	if err := dev.InstallProgram(segment("stale", dev.Capacity().SRAMBits*6/10)); err != nil {
		t.Fatal(err)
	}
	if err := tgt.MarkRemovable("stale"); err != nil {
		t.Fatal(err)
	}
	programs, epoch, free := dev.Programs(), dev.Epoch(), dev.Free()

	seg := segment("new", dev.Capacity().SRAMBits/2)
	plan, err := New(StrategyFungible).Compile(dp("d", seg), []Target{tgt}, nil)
	if err != nil {
		t.Fatalf("fungible compile failed: %v", err)
	}
	if want := []Reclaim{{Device: "sw", Program: "stale"}}; !reflect.DeepEqual(plan.Reclaims, want) {
		t.Fatalf("reclaims = %v, want %v", plan.Reclaims, want)
	}
	if !reflect.DeepEqual(dev.Programs(), programs) || dev.Epoch() != epoch || dev.Free() != free {
		t.Fatalf("planning changed the device: programs %v → %v, epoch %d → %d, free %v → %v",
			programs, dev.Programs(), epoch, dev.Epoch(), free, dev.Free())
	}
}
