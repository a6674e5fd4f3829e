package runtime

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// lineFabric builds h1 — sw1 — h2 with base routing and a CBR flow
// h1→h2, returning the fabric and the flow source.
func lineFabric(t *testing.T, arch dataplane.Arch) (*fabric.Fabric, *netsim.Source) {
	t.Helper()
	f := fabric.New(1)
	f.AddSwitch("sw1", arch)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "sw1", netsim.DefaultLink())
	f.Connect("sw1", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	src := h1.NewSource(netsim.FlowSpec{
		Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP,
		SrcPort: 1000, DstPort: 2000, PacketLen: 500,
	})
	return f, src
}

// aclProgram builds a small ACL extension program.
func aclProgram(name string) *flexbpf.Program {
	drop := flexbpf.NewAsm().Drop().MustBuild()
	return flexbpf.NewProgram(name).
		Action("deny", 0, drop).
		Table(&flexbpf.TableSpec{
			Name:    name + "_rules",
			Keys:    []flexbpf.TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32}},
			Actions: []string{"deny"},
			Size:    64,
		}).
		Apply(name + "_rules").
		MustBuild()
}

func TestBaseRoutingDelivers(t *testing.T) {
	f, src := lineFabric(t, dataplane.ArchDRMT)
	src.StartCBR(10000)
	f.Sim.RunUntil(100 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)
	h2 := f.Host("h2")
	if h2.Received == 0 {
		t.Fatal("no packets delivered")
	}
	if h2.Received != src.Sent {
		t.Fatalf("delivered %d of %d", h2.Received, src.Sent)
	}
	if f.InfrastructureDrops() != 0 {
		t.Fatalf("infrastructure drops = %d", f.InfrastructureDrops())
	}
}

func TestRuntimeChangeIsHitless(t *testing.T) {
	// §2: tables added/removed on-the-fly without packet loss. A CBR
	// flow runs while an ACL program is installed mid-stream; zero
	// packets may be lost and the change must commit in under a second.
	f, src := lineFabric(t, dataplane.ArchDRMT)
	eng := NewEngine(f.Sim, DefaultCosts())
	src.StartCBR(50000)

	var result Result
	f.Sim.At(50*time.Millisecond, func() {
		eng.ApplyRuntime(&Change{
			Device:   f.Device("sw1"),
			Installs: []Install{{Program: aclProgram("acl")}},
		}, func(r Result) { result = r })
	})
	f.Sim.RunUntil(500 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if result.Committed == 0 {
		t.Fatal("change never committed")
	}
	if result.Err != nil {
		t.Fatalf("change failed: %v", result.Err)
	}
	if result.Latency >= time.Second {
		t.Fatalf("runtime change took %v, want < 1s", result.Latency)
	}
	if f.Device("sw1").Instance("acl") == nil {
		t.Fatal("acl not installed")
	}
	if got, want := f.Host("h2").Received, src.Sent; got != want {
		t.Fatalf("lost packets during runtime change: %d of %d delivered", got, want)
	}
	if f.InfrastructureDrops() != 0 {
		t.Fatalf("infrastructure drops = %d", f.InfrastructureDrops())
	}
}

func TestCompileTimeChangeDropsTraffic(t *testing.T) {
	// The baseline: drain → reflash → redeploy loses every packet that
	// arrives during the outage window.
	f, src := lineFabric(t, dataplane.ArchDRMT)
	eng := NewEngine(f.Sim, DefaultCosts())
	src.StartCBR(10000)

	var result Result
	f.Sim.At(50*time.Millisecond, func() {
		eng.ApplyCompileTime(&Change{
			Device:   f.Device("sw1"),
			Installs: []Install{{Program: aclProgram("acl")}},
		}, func(r Result) { result = r })
	})
	f.Sim.RunUntil(11 * time.Second)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if result.Err != nil {
		t.Fatalf("baseline change failed: %v", result.Err)
	}
	if !result.Drained {
		t.Fatal("baseline did not drain")
	}
	outage := eng.Costs().DrainLead + eng.Costs().Reflash
	if result.Latency < outage {
		t.Fatalf("baseline latency %v < outage %v", result.Latency, outage)
	}
	drops := f.Device("sw1").Stats().DrainDrops
	if drops == 0 {
		t.Fatal("baseline lost no packets — drain not modelled")
	}
	// Expected drops ≈ rate × outage.
	expected := uint64(10000 * outage.Seconds())
	if drops < expected*8/10 || drops > expected*12/10 {
		t.Fatalf("drain drops = %d, expected ≈ %d", drops, expected)
	}
}

func TestEstimateLatencyScalesWithChangeSize(t *testing.T) {
	f, _ := lineFabric(t, dataplane.ArchDRMT)
	eng := NewEngine(f.Sim, DefaultCosts())
	small := &Change{Device: f.Device("sw1"), Installs: []Install{{Program: aclProgram("a")}}}
	bigProg := flexbpf.NewProgram("big").
		Action("deny", 0, flexbpf.NewAsm().Drop().MustBuild())
	for i := 0; i < 16; i++ {
		name := "t" + string(rune('a'+i))
		bigProg.Table(&flexbpf.TableSpec{
			Name:    name,
			Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions: []string{"deny"},
			Size:    16,
		}).Apply(name)
	}
	big := &Change{Device: f.Device("sw1"), Installs: []Install{{Program: bigProg.MustBuild()}}}
	ls, lb := eng.EstimateLatency(small), eng.EstimateLatency(big)
	if lb <= ls {
		t.Fatalf("16-table change (%v) not slower than 1-table (%v)", lb, ls)
	}
	if lb >= time.Second {
		t.Fatalf("even 16-table change should be sub-second, got %v", lb)
	}
}

func TestEntryOpsApply(t *testing.T) {
	f, src := lineFabric(t, dataplane.ArchDRMT)
	eng := NewEngine(f.Sim, DefaultCosts())
	// Install ACL and a rule blocking h1 in one change.
	blocked := packet.IP(10, 0, 0, 1)
	f.Sim.At(time.Millisecond, func() {
		eng.ApplyRuntime(&Change{
			Device:   f.Device("sw1"),
			Installs: []Install{{Program: aclProgram("acl")}},
			Entries: []EntryOp{{
				Program: "acl", Table: "acl_rules",
				Insert: &flexbpf.TableEntry{
					Match:  []flexbpf.MatchValue{{Value: uint64(blocked), Mask: ^uint64(0)}},
					Action: "deny",
				},
			}},
		}, nil)
	})
	f.Sim.RunUntil(200 * time.Millisecond)
	// ACL precedes routing? Installed after, so chain is routing first.
	// Routing forwards before ACL can drop — reorder: ACL programs are
	// appended after infra, so the packet is routed first. To test the
	// rule we query the table directly.
	inst := f.Device("sw1").Instance("acl")
	if inst == nil {
		t.Fatal("acl missing")
	}
	if inst.Table("acl_rules").Len() != 1 {
		t.Fatalf("entries = %d", inst.Table("acl_rules").Len())
	}
	act, _, hit := inst.Table("acl_rules").Lookup([]uint64{uint64(blocked)})
	if !hit || act != "deny" {
		t.Fatalf("rule lookup: %q %v", act, hit)
	}
	_ = src
}

func TestEntryOpErrors(t *testing.T) {
	f, _ := lineFabric(t, dataplane.ArchDRMT)
	eng := NewEngine(f.Sim, DefaultCosts())
	var r Result
	eng.ApplyRuntime(&Change{
		Device:  f.Device("sw1"),
		Entries: []EntryOp{{Program: "ghost", Table: "t"}},
	}, func(res Result) { r = res })
	f.Sim.RunFor(time.Second)
	if r.Err == nil {
		t.Fatal("entry op on missing program succeeded")
	}
}

func TestNetworkWideSimultaneous(t *testing.T) {
	// Three switches in a line; one network change installs ACLs on all;
	// all must commit and traffic must survive.
	f := fabric.New(2)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchRMT)
	f.AddSwitch("s3", dataplane.ArchTile)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	f.Connect("s2", "s3", netsim.DefaultLink())
	f.Connect("s3", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	src := h1.NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP, PacketLen: 200})
	src.StartCBR(20000)

	eng := NewEngine(f.Sim, DefaultCosts())
	var total netsim.Time
	var errs []error
	committed := false
	f.Sim.At(30*time.Millisecond, func() {
		nc := &NetworkChange{Mode: ConsistencySimultaneous}
		for i, sw := range []string{"s1", "s2", "s3"} {
			nc.Changes = append(nc.Changes, &Change{
				Device:   f.Device(sw),
				Installs: []Install{{Program: aclProgram("acl" + string(rune('0'+i)))}},
			})
		}
		eng.ApplyNetworkRuntime(nc, func(tt netsim.Time, ee []error) {
			total, errs, committed = tt, ee, true
		})
	})
	f.Sim.RunUntil(500 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if !committed {
		t.Fatal("network change did not complete")
	}
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if total >= time.Second {
		t.Fatalf("network-wide change took %v", total)
	}
	for i, sw := range []string{"s1", "s2", "s3"} {
		if f.Device(sw).Instance("acl"+string(rune('0'+i))) == nil {
			t.Fatalf("%s missing its acl", sw)
		}
	}
	if got, want := f.Host("h2").Received, src.Sent; got != want {
		t.Fatalf("lost packets during network-wide change: %d of %d", got, want)
	}
	// Simultaneous mode: all devices committed at the same instant.
	times := map[netsim.Time]bool{}
	for _, r := range eng.Log {
		times[r.Committed] = true
	}
	if len(times) != 1 {
		t.Fatalf("simultaneous commits at %d distinct times", len(times))
	}
}

func TestNetworkWideOrdered(t *testing.T) {
	f := fabric.New(2)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	f.Connect("s2", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(f.Sim, DefaultCosts())
	// Ordered: downstream (s2) first, then upstream (s1).
	nc := &NetworkChange{
		Mode:      ConsistencyOrdered,
		SettleGap: 5 * time.Millisecond,
		Changes: []*Change{
			{Device: f.Device("s2"), Installs: []Install{{Program: aclProgram("a2")}}},
			{Device: f.Device("s1"), Installs: []Install{{Program: aclProgram("a1")}}},
		},
	}
	eng.ApplyNetworkRuntime(nc, nil)
	f.Sim.RunFor(2 * time.Second)
	if len(eng.Log) != 2 {
		t.Fatalf("log = %d entries", len(eng.Log))
	}
	if !(eng.Log[0].Device == "s2" && eng.Log[1].Device == "s1") {
		t.Fatalf("commit order: %s then %s", eng.Log[0].Device, eng.Log[1].Device)
	}
	if eng.Log[1].Committed-eng.Log[0].Committed != 5*time.Millisecond {
		t.Fatalf("settle gap = %v", eng.Log[1].Committed-eng.Log[0].Committed)
	}
	_ = h1
}

func TestParserOpsInChange(t *testing.T) {
	f, _ := lineFabric(t, dataplane.ArchDRMT)
	eng := NewEngine(f.Sim, DefaultCosts())
	if err := packet.RegisterCustomHeader("ext_test", map[string]int{"v": 32}, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	defer packet.UnregisterCustomHeader("ext_test")
	var r Result
	eng.ApplyRuntime(&Change{
		Device: f.Device("sw1"),
		ParserOps: []ParserMutation{
			func(g *packet.ParseGraph) error {
				if err := g.AddState(&packet.ParseState{Name: "ext", Header: "ext_test"}); err != nil {
					return err
				}
				return g.AddTransition("ipv4", 199, "ext")
			},
		},
	}, func(res Result) { r = res })
	f.Sim.RunFor(time.Second)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if f.Device("sw1").Parser().State("ext") == nil {
		t.Fatal("parser state not added")
	}
}

// TestCyclicParserMutationRefused: a staged parse graph is validated
// before anything commits, whichever door the change comes through. A
// mutation that closes a loop (tcp → eth) rides along with a program
// install; the whole change must be refused with the device's epoch,
// parser, program set and free resources exactly as they were.
func TestCyclicParserMutationRefused(t *testing.T) {
	cycle := func(g *packet.ParseGraph) error { return g.AddTransition("tcp", 1, "eth") }
	doors := map[string]func(f *fabric.Fabric, dev *dataplane.Device) error{
		"ApplyRuntime": func(f *fabric.Fabric, dev *dataplane.Device) error {
			var r Result
			NewEngine(f.Sim, DefaultCosts()).ApplyRuntime(&Change{
				Device:    dev,
				Installs:  []Install{{Program: aclProgram("acl")}},
				ParserOps: []ParserMutation{cycle},
			}, func(res Result) { r = res })
			f.Sim.RunFor(time.Second)
			return r.Err
		},
		"PrepareChange": func(_ *fabric.Fabric, dev *dataplane.Device) error {
			pc, err := dev.PrepareChange(func(st *dataplane.StagedConfig) error {
				if err := st.Install(aclProgram("acl"), nil); err != nil {
					return err
				}
				return cycle(st.Parser())
			})
			if err == nil {
				pc.Abort()
			}
			return err
		},
	}
	for name, apply := range doors {
		t.Run(name, func(t *testing.T) {
			f, _ := lineFabric(t, dataplane.ArchDRMT)
			dev := f.Device("sw1")
			epoch, parser, free, progs := dev.Epoch(), dev.Parser(), dev.Free(), dev.Programs()
			err := apply(f, dev)
			if err == nil || !strings.Contains(err.Error(), "cycle") {
				t.Fatalf("cyclic parse graph accepted: err = %v", err)
			}
			if dev.Epoch() != epoch {
				t.Errorf("epoch moved %d -> %d", epoch, dev.Epoch())
			}
			if dev.Parser() != parser {
				t.Error("parse graph replaced")
			}
			if dev.Parser().Validate() != nil {
				t.Error("live parse graph no longer validates")
			}
			if got := dev.Free(); got != free {
				t.Errorf("free resources changed: %+v -> %+v", free, got)
			}
			if got := dev.Programs(); !reflect.DeepEqual(got, progs) {
				t.Errorf("programs changed: %v -> %v", progs, got)
			}
		})
	}
}

func TestMigrateLatencyMonotone(t *testing.T) {
	eng := NewEngine(netsim.New(1), DefaultCosts())
	if eng.MigrateLatency(1<<20) <= eng.MigrateLatency(1<<10) {
		t.Fatal("migrate latency not monotone in bytes")
	}
}
