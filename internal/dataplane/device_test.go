package dataplane

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

// fwdProgram forwards every packet out a fixed port.
func fwdProgram(name string, port uint64) *flexbpf.Program {
	code := flexbpf.NewAsm().MovImm(0, port).Forward(0).MustBuild()
	return flexbpf.NewProgram(name).Do(code).MustBuild()
}

// dropDportProgram drops packets to the given TCP port, else continues.
func dropDportProgram(name string, dport uint64) *flexbpf.Program {
	drop := flexbpf.NewAsm().Drop().MustBuild()
	return flexbpf.NewProgram(name).
		If(flexbpf.Cond{Field: "tcp.dport", Op: flexbpf.CmpEq, Value: dport},
			[]flexbpf.Stmt{flexbpf.SDo(drop)}, nil).
		MustBuild()
}

func testPkt(id uint64) *packet.Packet {
	return packet.TCPPacket(id, packet.IP(10, 0, 0, 1), packet.IP(10, 0, 0, 2), 1000, 80, 0, 100)
}

func TestDeviceInstallProcessRemove(t *testing.T) {
	for _, arch := range []Arch{ArchRMT, ArchDRMT, ArchTile, ArchElasticPipe, ArchSoC, ArchHost} {
		t.Run(arch.String(), func(t *testing.T) {
			d := MustNew(DefaultConfig("sw1", arch))
			if got := d.Arch(); got != arch {
				t.Fatalf("arch = %v", got)
			}
			before := d.Free()
			if err := d.InstallProgram(fwdProgram("fwd", 7)); err != nil {
				t.Fatalf("install: %v", err)
			}
			if d.Free() == before {
				t.Fatal("install did not consume resources")
			}
			st := d.Process(testPkt(1))
			if st.Verdict != packet.VerdictForward {
				t.Fatalf("verdict = %v", st.Verdict)
			}
			if st.LatencyNs < d.Perf().BaseLatencyNs {
				t.Fatalf("latency %d below base %d", st.LatencyNs, d.Perf().BaseLatencyNs)
			}
			if err := d.RemoveProgram("fwd"); err != nil {
				t.Fatalf("remove: %v", err)
			}
			if d.Free() != before {
				t.Fatalf("resources not reclaimed: %v != %v", d.Free(), before)
			}
			// With no program, packets fall through with Continue.
			st = d.Process(testPkt(2))
			if st.Verdict != packet.VerdictContinue {
				t.Fatalf("empty device verdict = %v", st.Verdict)
			}
		})
	}
}

func TestInstallDuplicateAndRemoveMissing(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	if err := d.InstallProgram(fwdProgram("p", 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.InstallProgram(fwdProgram("p", 2)); err == nil {
		t.Fatal("duplicate install succeeded")
	}
	if err := d.RemoveProgram("ghost"); err == nil {
		t.Fatal("removing missing program succeeded")
	}
}

func TestInstallRejectsUnverifiable(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	bad := &flexbpf.Program{Name: "bad", Actions: map[string]*flexbpf.Action{}}
	bad.Pipeline = []flexbpf.Stmt{{Apply: "ghost"}}
	if err := d.InstallProgram(bad); err == nil {
		t.Fatal("unverifiable program installed")
	}
}

// TestLinkFailureIsInstallError: a program that does not link is refused
// with ErrVerifyFailed and nothing retained — there is no interpreter to
// fall back to. The verifier catches every unlinkable program before the
// linker sees it (flexbpf's TestVerifierSoundnessFuzz), so the link step
// is driven directly with a hand-assembled unverified program.
func TestLinkFailureIsInstallError(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	ghost := flexbpf.NewAsm().MovImm(0, 1).MapStore("ghost", 0, 0).MustBuild()
	unlinkable := &flexbpf.Program{Name: "bad", Pipeline: []flexbpf.Stmt{{Do: ghost}}}
	inst, err := newInstance(unlinkable, nil, d.rng, d.now)
	if inst != nil || !errors.Is(err, errdefs.ErrVerifyFailed) {
		t.Fatalf("newInstance = (%v, %v), want nil instance and ErrVerifyFailed", inst, err)
	}
	if err := d.InstallProgram(unlinkable); !errors.Is(err, errdefs.ErrVerifyFailed) {
		t.Fatalf("install of unlinkable program: %v", err)
	}
}

// TestFailedInstanceBuildReleasesPlacement: when a program verifies and
// places but its instance cannot be built, the reservation is returned on
// every configuration door (they share one body). A map of unknown kind
// passes the verifier and fails in newInstance, after placement.
func TestFailedInstanceBuildReleasesPlacement(t *testing.T) {
	unbuildable := func() *flexbpf.Program {
		p := fwdProgram("odd", 1)
		p.Maps = append(p.Maps, &flexbpf.MapSpec{Name: "m", Kind: flexbpf.MapKind(99), MaxEntries: 8, ValueBits: 32})
		return p
	}
	doors := map[string]func(d *Device) error{
		"InstallProgram": func(d *Device) error { return d.InstallProgram(unbuildable()) },
		"Swap": func(d *Device) error {
			return d.Swap(func(st *StagedConfig) error { return st.Install(unbuildable(), nil) })
		},
		"PrepareChange": func(d *Device) error {
			_, err := d.PrepareChange(func(st *StagedConfig) error {
				// A good install staged first must be released too.
				if err := st.Install(fwdProgram("good", 2), nil); err != nil {
					return err
				}
				return st.Install(unbuildable(), nil)
			})
			return err
		},
	}
	for name, install := range doors {
		t.Run(name, func(t *testing.T) {
			d := MustNew(DefaultConfig("sw1", ArchDRMT))
			if err := d.InstallProgram(fwdProgram("keep", 1)); err != nil {
				t.Fatal(err)
			}
			free, epoch := d.Free(), d.Epoch()
			if err := install(d); err == nil {
				t.Fatal("unbuildable program installed")
			}
			if got := d.Free(); got != free {
				t.Fatalf("failed install leaked resources: %+v -> %+v", free, got)
			}
			if d.Epoch() != epoch {
				t.Fatal("failed install bumped epoch")
			}
			if got := d.Programs(); len(got) != 1 || got[0] != "keep" {
				t.Fatalf("programs after failed install: %v", got)
			}
			if d.InstalledDemand().Add(d.Free()) != d.Capacity() {
				t.Fatal("installed demand + free != capacity")
			}
		})
	}
}

func TestCapabilityGate(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchRMT))
	cc := flexbpf.NewProgram("cc").
		Requires(flexbpf.Capabilities{Transport: true}).
		Do(flexbpf.NewAsm().Ret().MustBuild()).
		MustBuild()
	if err := d.InstallProgram(cc); err == nil {
		t.Fatal("RMT switch accepted transport-requiring program")
	}
	h := MustNew(DefaultConfig("h1", ArchHost))
	if err := h.InstallProgram(cc); err != nil {
		t.Fatalf("host rejected transport program: %v", err)
	}
}

func TestProgramChainOrder(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	// First program drops port 80; second forwards everything.
	if err := d.InstallProgram(dropDportProgram("acl", 80)); err != nil {
		t.Fatal(err)
	}
	if err := d.InstallProgram(fwdProgram("fwd", 3)); err != nil {
		t.Fatal(err)
	}
	blocked := testPkt(1) // dport 80
	st := d.Process(blocked)
	if st.Verdict != packet.VerdictDrop {
		t.Fatalf("acl did not run first: %v", st.Verdict)
	}
	if len(st.Programs) != 1 || st.Programs[0] != "acl" {
		t.Fatalf("programs = %v", st.Programs)
	}
	ok := packet.TCPPacket(2, 1, 2, 3, 443, 0, 0)
	st = d.Process(ok)
	if st.Verdict != packet.VerdictForward || ok.EgressPort != 3 {
		t.Fatalf("allowed packet: %v egress=%d", st.Verdict, ok.EgressPort)
	}
	if len(st.Programs) != 2 {
		t.Fatalf("programs = %v", st.Programs)
	}
}

func TestTenantFilterIsolation(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	// Tenant program only sees VLAN 42 and drops its TCP 22.
	cond := &flexbpf.Cond{Field: "vlan.vid", Op: flexbpf.CmpEq, Value: 42}
	if err := d.InstallProgramOpt(dropDportProgram("tenant42", 22), InstallOptions{Filter: cond}); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	inVLAN := packet.NewBuilder(&seq).Eth(1, 2).VLAN(42).IPv4(1, 2).TCP(5, 22, 0).Build()
	st := d.Process(inVLAN)
	if st.Verdict != packet.VerdictDrop {
		t.Fatalf("tenant rule did not apply in its VLAN: %v", st.Verdict)
	}
	otherVLAN := packet.NewBuilder(&seq).Eth(1, 2).VLAN(7).IPv4(1, 2).TCP(5, 22, 0).Build()
	st = d.Process(otherVLAN)
	if st.Verdict == packet.VerdictDrop {
		t.Fatal("tenant rule leaked into another VLAN")
	}
}

func TestEpochAtomicity(t *testing.T) {
	// The §2 consistency claim: during reconfiguration each packet is
	// processed entirely by the old or entirely by the new program.
	// Device epoch is stamped per packet; concurrent reconfigurations
	// must never produce a packet observing two different epochs across
	// its programs. We run processing and reconfiguration concurrently
	// under -race and check verdict coherence.
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	if err := d.InstallProgram(fwdProgram("v1", 1)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		version := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			version++
			name := "v1"
			newName := "v2"
			if version%2 == 1 {
				name, newName = "v2", "v1"
			}
			_ = d.Swap(func(st *StagedConfig) error {
				if err := st.Remove(name); err != nil {
					return err
				}
				return st.Install(fwdProgram(newName, uint64(version%8)), nil)
			})
		}
	}()
	for i := 0; i < 5000; i++ {
		pkt := testPkt(uint64(i))
		st := d.Process(pkt)
		// Exactly one forwarding program must have run.
		if st.Verdict != packet.VerdictForward || len(st.Programs) != 1 {
			t.Fatalf("packet %d: verdict=%v programs=%v", i, st.Verdict, st.Programs)
		}
		if pkt.Epoch != st.Epoch {
			t.Fatalf("packet %d: epoch mismatch %d != %d", i, pkt.Epoch, st.Epoch)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSwapRollbackOnError(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	if err := d.InstallProgram(fwdProgram("keep", 1)); err != nil {
		t.Fatal(err)
	}
	free := d.Free()
	epoch := d.Epoch()
	err := d.Swap(func(st *StagedConfig) error {
		if err := st.Install(fwdProgram("new", 2), nil); err != nil {
			return err
		}
		return errFake
	})
	if err == nil {
		t.Fatal("swap should have failed")
	}
	if d.Free() != free {
		t.Fatal("failed swap leaked resources")
	}
	if d.Epoch() != epoch {
		t.Fatal("failed swap bumped epoch")
	}
	if got := d.Programs(); len(got) != 1 || got[0] != "keep" {
		t.Fatalf("programs after failed swap: %v", got)
	}
}

// TestSameNameReinstallFreesResources: a swap that removes a program and
// installs another under the same name (an in-place update) holds both
// placements until it commits. The resource model must tell them apart:
// the old one is released at commit, the new one when the program is
// finally removed, and the device ends with everything free again.
func TestSameNameReinstallFreesResources(t *testing.T) {
	for _, arch := range []Arch{ArchRMT, ArchDRMT, ArchTile, ArchElasticPipe, ArchSoC, ArchHost} {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := DefaultConfig("sw1", arch)
			cfg.CrossStageRealloc = true
			d := MustNew(cfg)
			before := d.Free()
			if err := d.InstallProgram(dropDportProgram("p", 80)); err != nil {
				t.Fatal(err)
			}
			held := d.Free()
			for i := 0; i < 3; i++ {
				if err := d.Swap(func(st *StagedConfig) error {
					if err := st.Remove("p"); err != nil {
						return err
					}
					return st.Install(dropDportProgram("p", 443), nil)
				}); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
				if d.Free() != held {
					t.Fatalf("update %d: free = %v, want %v as before it", i, d.Free(), held)
				}
			}
			if arch == ArchRMT {
				if _, err := d.Repack(); err != nil {
					t.Fatalf("repack after updates: %v", err)
				}
			}
			if err := d.RemoveProgram("p"); err != nil {
				t.Fatal(err)
			}
			if d.Free() != before {
				t.Fatalf("resources leaked: free = %v, want %v", d.Free(), before)
			}
		})
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake failure" }

func TestDrainingDropsPackets(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	d.InstallProgram(fwdProgram("fwd", 1))
	d.SetDraining(true)
	st := d.Process(testPkt(1))
	if st.Verdict != packet.VerdictDrop {
		t.Fatalf("draining device forwarded: %v", st.Verdict)
	}
	d.SetDraining(false)
	st = d.Process(testPkt(2))
	if st.Verdict != packet.VerdictForward {
		t.Fatalf("undrained device dropped: %v", st.Verdict)
	}
	c := d.Stats()
	if c.DrainDrops != 1 {
		t.Fatalf("drain drops = %d", c.DrainDrops)
	}
}

func TestParserRuntimeUpdate(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	if err := packet.RegisterCustomHeader("tun_test", map[string]int{"id": 32}, []string{"id"}); err != nil {
		t.Fatal(err)
	}
	defer packet.UnregisterCustomHeader("tun_test")

	epoch := d.Epoch()
	err := d.UpdateParser(func(g *packet.ParseGraph) error {
		if err := g.AddState(&packet.ParseState{Name: "tun", Header: "tun_test"}); err != nil {
			return err
		}
		return g.AddTransition("ipv4", 150, "tun")
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != epoch+1 {
		t.Fatal("parser update did not bump epoch")
	}
	// Invalid update is rejected and leaves parser unchanged.
	err = d.UpdateParser(func(g *packet.ParseGraph) error {
		return g.AddTransition("ipv4", 151, "ghost-state")
	})
	if err == nil {
		t.Fatal("invalid parser update accepted")
	}
	if d.Parser().State("tun") == nil {
		t.Fatal("valid state lost after rejected update")
	}
}

func TestRMTStagePlacementDependencies(t *testing.T) {
	cfg := DefaultConfig("sw1", ArchRMT)
	cfg.Stages = 3
	cfg.StageTables = 1 // force one table per stage
	d := MustNew(cfg)
	act := flexbpf.NewAsm().Ret().MustBuild()
	mk := func(n int) *flexbpf.Program {
		b := flexbpf.NewProgram("chain").Action("a", 0, act)
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			b.Table(&flexbpf.TableSpec{
				Name: "t" + name, Keys: []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
				Actions: []string{"a"}, Size: 16,
			})
			b.Apply("t" + name)
		}
		return b.MustBuild()
	}
	// 3 dependent tables fit in 3 stages.
	if err := d.InstallProgram(mk(3)); err != nil {
		t.Fatalf("3-chain: %v", err)
	}
	if err := d.RemoveProgram("chain"); err != nil {
		t.Fatal(err)
	}
	// 4 dependent tables cannot fit in 3 stages.
	if err := d.InstallProgram(mk(4)); err == nil {
		t.Fatal("4-table dependency chain placed in 3 stages")
	}
}

func TestRMTFragmentationAndRepack(t *testing.T) {
	cfg := DefaultConfig("sw1", ArchRMT)
	cfg.Stages = 4
	cfg.StageTables = 2
	cfg.CrossStageRealloc = true
	d := MustNew(cfg)
	act := flexbpf.NewAsm().Ret().MustBuild()
	single := func(name string) *flexbpf.Program {
		return flexbpf.NewProgram(name).
			Action("a", 0, act).
			Table(&flexbpf.TableSpec{Name: name + "_t",
				Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
				Actions: []string{"a"}, Size: 16}).
			Apply(name + "_t").
			MustBuild()
	}
	// Fill all 8 table slots, then remove alternating programs to
	// fragment, then repack and verify no moves needed for pool refill.
	for i := 0; i < 8; i++ {
		name := "p" + string(rune('0'+i))
		if err := d.InstallProgram(single(name)); err != nil {
			t.Fatalf("install %s: %v", name, err)
		}
	}
	for i := 0; i < 8; i += 2 {
		if err := d.RemoveProgram("p" + string(rune('0'+i))); err != nil {
			t.Fatal(err)
		}
	}
	moves, err := d.Repack()
	if err != nil {
		t.Fatalf("repack: %v", err)
	}
	if moves == 0 {
		t.Log("note: greedy placement left nothing to move (acceptable)")
	}
	// After repack the device still reports consistent resources.
	if d.Free().Tables != d.Capacity().Tables-4 {
		t.Fatalf("free tables = %d", d.Free().Tables)
	}
}

func TestRMTRepackRefusedWithoutCrossStage(t *testing.T) {
	cfg := DefaultConfig("sw1", ArchRMT)
	cfg.CrossStageRealloc = false
	d := MustNew(cfg)
	if _, err := d.Repack(); err == nil {
		t.Fatal("rigid RMT allowed repack")
	}
}

func TestTileTypedCapacity(t *testing.T) {
	cfg := DefaultConfig("sw1", ArchTile)
	cfg.TCAMTiles = 1
	cfg.TileBits = 1 << 12
	d := MustNew(cfg)
	act := flexbpf.NewAsm().Ret().MustBuild()
	tcamProg := func(name string, size int) *flexbpf.Program {
		return flexbpf.NewProgram(name).
			Action("a", 0, act).
			Table(&flexbpf.TableSpec{Name: name + "_t",
				Keys:    []flexbpf.TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32}},
				Actions: []string{"a"}, Size: size}).
			Apply(name + "_t").
			MustBuild()
	}
	// One small TCAM table fits in the single TCAM tile.
	if err := d.InstallProgram(tcamProg("t1", 16)); err != nil {
		t.Fatalf("small tcam: %v", err)
	}
	// A second one cannot, even though hash tiles are free: fungibility
	// is within tile type only (§3.3(iii)).
	if err := d.InstallProgram(tcamProg("t2", 16)); err == nil {
		t.Fatal("tcam demand satisfied by non-tcam tiles")
	} else if !strings.Contains(err.Error(), "TCAM tiles") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestElasticPipePEMLimit(t *testing.T) {
	cfg := DefaultConfig("sw1", ArchElasticPipe)
	cfg.PEMElements = 2
	d := MustNew(cfg)
	act := flexbpf.NewAsm().Ret().MustBuild()
	twoTables := flexbpf.NewProgram("two").
		Action("a", 0, act).
		Table(&flexbpf.TableSpec{Name: "x", Keys: []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}}, Actions: []string{"a"}, Size: 4}).
		Table(&flexbpf.TableSpec{Name: "y", Keys: []flexbpf.TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchExact, Bits: 32}}, Actions: []string{"a"}, Size: 4}).
		Apply("x").Apply("y").
		MustBuild()
	if err := d.InstallProgram(twoTables); err != nil {
		t.Fatalf("2 tables in 2 PEMs: %v", err)
	}
	oneMore := flexbpf.NewProgram("one").
		Action("a", 0, act).
		Table(&flexbpf.TableSpec{Name: "z", Keys: []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}}, Actions: []string{"a"}, Size: 4}).
		Apply("z").
		MustBuild()
	if err := d.InstallProgram(oneMore); err == nil {
		t.Fatal("PEM limit not enforced")
	}
}

func TestPoolFullyFungible(t *testing.T) {
	d := MustNew(DefaultConfig("nic1", ArchSoC))
	// A ternary table is fine on a pool device: TCAM is emulated.
	act := flexbpf.NewAsm().Ret().MustBuild()
	p := flexbpf.NewProgram("tern").
		Action("a", 0, act).
		Table(&flexbpf.TableSpec{Name: "t",
			Keys:    []flexbpf.TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32}},
			Actions: []string{"a"}, Size: 128}).
		Apply("t").
		MustBuild()
	if err := d.InstallProgram(p); err != nil {
		t.Fatalf("pool rejected ternary: %v", err)
	}
	if f := d.Fungibility(); f <= 0 || f > 1 {
		t.Fatalf("fungibility = %f", f)
	}
}

func TestInstanceStateMigrationRoundTrip(t *testing.T) {
	// Program with a shared map; install on two devices, mutate on one,
	// move logical state to the other.
	code := flexbpf.NewAsm().
		FlowHash(0).
		MapLoad(1, "st", 0).
		AddImm(1, 1).
		MapStore("st", 0, 1).
		Ret().
		MustBuild()
	prog := flexbpf.NewProgram("mon").HashMap("st", 256, 64).SharedMap().Do(code).MustBuild()

	src := MustNew(DefaultConfig("a", ArchDRMT))
	dst := MustNew(DefaultConfig("b", ArchSoC))
	if err := src.InstallProgram(prog); err != nil {
		t.Fatal(err)
	}
	if err := dst.InstallProgram(prog.Clone()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		src.Process(testPkt(uint64(i)))
	}
	si := src.Instance("mon")
	di := dst.Instance("mon")
	if err := di.ImportState(si.ExportState()); err != nil {
		t.Fatal(err)
	}
	sm, dm := si.Store().Map("st"), di.Store().Map("st")
	if sm.Len() == 0 || sm.Len() != dm.Len() {
		t.Fatalf("state not migrated: src=%d dst=%d", sm.Len(), dm.Len())
	}
}

func TestDeviceCounters(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	d.InstallProgram(dropDportProgram("acl", 80))
	d.Process(testPkt(1))                              // drop (dport 80)
	d.Process(packet.TCPPacket(2, 1, 2, 3, 443, 0, 0)) // continue
	c := d.Stats()
	if c.Processed != 2 || c.Dropped != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestEnergyModel(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchRMT))
	idle := d.EnergyJoules(1.0)
	d.InstallProgram(fwdProgram("f", 1))
	active := d.EnergyJoules(1.0)
	if active <= idle {
		t.Fatal("active device not more power hungry")
	}
	for i := 0; i < 1000; i++ {
		d.Process(testPkt(uint64(i)))
	}
	withTraffic := d.EnergyJoules(1.0)
	if withTraffic <= active {
		t.Fatal("traffic adds no dynamic energy")
	}
}

func TestUtilization(t *testing.T) {
	d := MustNew(DefaultConfig("sw1", ArchDRMT))
	u0 := d.Utilization()
	if u0["sram"] != 0 {
		t.Fatalf("fresh utilization = %v", u0)
	}
	d.InstallProgram(fwdProgram("f", 1))
	// fwd uses ALUs only (no tables/maps).
	u1 := d.Utilization()
	if u1["alus"] <= 0 {
		t.Fatalf("utilization after install = %v", u1)
	}
}
