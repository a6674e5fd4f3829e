package dataplane

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
	"flexnet/internal/telemetry"
)

// accountingGolden is the registry snapshot of the chain's run, captured
// when every line in it came from an atomic instrument. The views that
// replace those instruments must render the same bytes.
const accountingGolden = "testdata/accounting_snapshot.golden"

// accountingChain is three devices in a row, registered in one registry
// as a fabric registers its switches:
//
//   - c1 (cacheable): a marker, a dport-443 dropper, a dport-22 dropper
//     filtered to tcp.sport 5001, and an exact router;
//   - c2 (uncacheable): a flow counter in a hash map, a UDP punter, a
//     dport-8080 recirculator, and a router;
//   - c3 (cacheable): a router whose entry for 10.0.0.3 names an action
//     the program does not have, so those packets fail in execution.
type accountingChain struct {
	reg  *telemetry.Registry
	devs [3]*Device
}

func newAccountingChain(t *testing.T) *accountingChain {
	t.Helper()
	ch := &accountingChain{reg: telemetry.NewRegistry()}
	for i := range ch.devs {
		d := MustNew(DefaultConfig(fmt.Sprintf("c%d", i+1), ArchDRMT))
		d.SetMetrics(ch.reg)
		ch.devs[i] = d
	}
	install := func(d *Device, p *flexbpf.Program, opts InstallOptions) {
		t.Helper()
		if err := d.InstallProgramOpt(p, opts); err != nil {
			t.Fatalf("%s: install %s: %v", d.Name(), p.Name, err)
		}
	}
	route := func(d *Device, prog, table, action string, dst uint32, port uint64) {
		t.Helper()
		if err := d.Instance(prog).Table(table).Insert(flexbpf.ExactEntry(action, []uint64{port}, uint64(dst))); err != nil {
			t.Fatalf("%s: route: %v", d.Name(), err)
		}
	}
	dst2, dst3 := packet.IP(10, 0, 0, 2), packet.IP(10, 0, 0, 3)
	onlyUDP := flexbpf.Cond{Field: "ipv4.proto", Op: flexbpf.CmpEq, Value: uint64(packet.ProtoUDP)}
	to8080 := flexbpf.Cond{Field: "tcp.dport", Op: flexbpf.CmpEq, Value: 8080}

	c1 := ch.devs[0]
	install(c1, cacheMarker("mark"), InstallOptions{Priority: 10})
	install(c1, dropDportProgram("acl", 443), InstallOptions{Priority: 20})
	install(c1, dropDportProgram("tenant", 22), InstallOptions{
		Priority: 30, Filter: &flexbpf.Cond{Field: "tcp.sport", Op: flexbpf.CmpEq, Value: 5001}})
	install(c1, cacheRouter("rt"), InstallOptions{Priority: PriorityInfra})
	route(c1, "rt", "rt_t", "rt_fwd", dst2, 1)
	route(c1, "rt", "rt_t", "rt_fwd", dst3, 1)

	c2 := ch.devs[1]
	install(c2, flowCounterProgram("cnt"), InstallOptions{Priority: 10})
	install(c2, flexbpf.NewProgram("punt").
		If(onlyUDP, []flexbpf.Stmt{flexbpf.SDo(flexbpf.NewAsm().Punt().MustBuild())}, nil).
		MustBuild(), InstallOptions{Priority: 20})
	install(c2, flexbpf.NewProgram("recirc").
		If(to8080, []flexbpf.Stmt{flexbpf.SDo([]flexbpf.Instr{{Op: flexbpf.OpRecirc}})}, nil).
		MustBuild(), InstallOptions{Priority: 30})
	install(c2, cacheRouter("rt"), InstallOptions{Priority: PriorityInfra})
	route(c2, "rt", "rt_t", "rt_fwd", dst2, 2)
	route(c2, "rt", "rt_t", "rt_fwd", dst3, 2)

	c3 := ch.devs[2]
	fwd := flexbpf.NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	install(c3, flexbpf.NewProgram("rt3").
		Action("fwd3", 1, fwd).
		Table(&flexbpf.TableSpec{
			Name:          "rt3_t",
			Keys:          []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			DefaultAction: "fwd3",
			DefaultParams: []uint64{9},
			Size:          16,
		}).
		Apply("rt3_t").
		MustBuild(), InstallOptions{Priority: PriorityInfra})
	route(c3, "rt3", "rt3_t", "fwd3", dst2, 3)
	route(c3, "rt3", "rt3_t", "ghost", dst3, 3)
	return ch
}

// flowCounterProgram counts packets per flow in a hash map: per-flow
// state, so a chain carrying it is never cached.
func flowCounterProgram(name string) *flexbpf.Program {
	return flexbpf.NewProgram(name).
		HashMap(name+"_m", 64, 8).
		Do(flexbpf.NewAsm().
			FlowHash(0).
			MapLoad(1, name+"_m", 0).
			AddImm(1, 1).
			MapStore(name+"_m", 0, 1).
			Ret().MustBuild()).
		MustBuild()
}

// accountingPacket draws one packet of the run's mix: mostly repeating
// TCP flows to 10.0.0.2 (cache hits), with TTL variants, the dropped
// ports 443 and 22, the recirculated 8080, UDP (punted on c2) and
// 10.0.0.3 (an execution error on c3).
func accountingPacket(r *rand.Rand, id uint64) *packet.Packet {
	dst := packet.IP(10, 0, 0, 2)
	if r.Intn(10) == 0 {
		dst = packet.IP(10, 0, 0, 3)
	}
	src := packet.IP(10, 0, 1, byte(1+r.Intn(3)))
	sport := uint16(5000 + r.Intn(3))
	if r.Intn(8) == 0 {
		return packet.UDPPacket(id, src, dst, sport, 53, 64)
	}
	dport := uint16(80)
	switch r.Intn(10) {
	case 0:
		dport = 443
	case 1:
		dport = 22
	case 2:
		dport = 8080
	}
	p := packet.TCPPacket(id, src, dst, sport, dport, 0, 100)
	p.SetField("ipv4.ttl", uint64(60+r.Intn(2)))
	return p
}

// run sends n packets down the chain with the device changes the
// accounting has to survive: a swap on c1 every 150 packets, a window of
// drain drops on c2, and a route rewrite on c1 that moves table
// generations without a commit.
func (ch *accountingChain) run(t *testing.T, n int) {
	t.Helper()
	r := rand.New(rand.NewSource(22))
	ectx := flexbpf.NewExecContext()
	c1, c2 := ch.devs[0], ch.devs[1]
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && i%150 == 0:
			if err := c1.Swap(func(st *StagedConfig) error {
				if err := st.Remove("mark"); err != nil {
					return err
				}
				return st.Install(cacheMarker("mark"), nil)
			}); err != nil {
				t.Fatalf("swap at %d: %v", i, err)
			}
		case i == 700:
			if err := c1.Instance("rt").Table("rt_t").ReplaceAll([]*flexbpf.TableEntry{
				flexbpf.ExactEntry("rt_fwd", []uint64{1}, uint64(packet.IP(10, 0, 0, 2))),
				flexbpf.ExactEntry("rt_fwd", []uint64{1}, uint64(packet.IP(10, 0, 0, 3))),
			}); err != nil {
				t.Fatal(err)
			}
		case i == 1000:
			c2.SetDraining(true)
		case i == 1100:
			c2.SetDraining(false)
		}
		pkt := accountingPacket(r, uint64(i))
		for hop, d := range ch.devs {
			pkt.IngressPort = hop
			st := d.ProcessCtx(pkt, ectx)
			for recircs := 0; st.Verdict == packet.VerdictRecirculate && recircs < 2; recircs++ {
				st = d.ProcessCtx(pkt, ectx)
			}
			if st.Verdict != packet.VerdictForward {
				break
			}
		}
	}
}

// TestAccountingViewsMatchInstruments is the differential for the
// device's accounting block: a seeded mixed run — cache hits and misses,
// drain drops, execution errors, policy drops, punts,
// recirculations and more than twenty commits — must render the registry
// snapshot byte for byte as the atomic instruments it replaced did, and
// Stats, FlowCacheStats and EnergyJoules must agree with its lines.
func TestAccountingViewsMatchInstruments(t *testing.T) {
	ch := newAccountingChain(t)
	ch.run(t, 3000)
	snap := ch.reg.Snapshot()
	got := snap.Format()
	want, err := os.ReadFile(accountingGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("registry snapshot differs from %s:\n%s", accountingGolden, got)
	}

	counter := func(name string) uint64 {
		for _, p := range snap.Counters {
			if p.Name == name {
				return uint64(p.Value)
			}
		}
		t.Fatalf("snapshot has no counter %s", name)
		return 0
	}
	var epochs, hits, misses, punts, recircs, drains, errs, policy uint64
	for _, d := range ch.devs {
		n := d.Name()
		st := d.Stats()
		if p := counter("dev." + n + ".packets_processed"); st.Processed != p {
			t.Errorf("%s: Stats().Processed = %d, snapshot %d", n, st.Processed, p)
		}
		if p := counter("dev." + n + ".packets_dropped"); st.Dropped != p {
			t.Errorf("%s: Stats().Dropped = %d, snapshot %d", n, st.Dropped, p)
		}
		fc := d.FlowCacheStats()
		for _, c := range []struct {
			name string
			v    uint64
		}{{"hits", fc.Hits}, {"misses", fc.Misses}, {"inserts", fc.Inserts}, {"invalidations", fc.Invalidations}} {
			if p := counter("flowcache." + n + "." + c.name); c.v != p {
				t.Errorf("%s: FlowCacheStats().%s = %d, snapshot %d", n, c.name, c.v, p)
			}
		}
		e := d.Energy()
		wantJ := e.IdleWatts + e.ActiveWatts + float64(counter("dev."+n+".packets_processed"))*e.PerPacketNanojoule*1e-9
		if gotJ := d.EnergyJoules(1); math.Abs(gotJ-wantJ) > 1e-12 {
			t.Errorf("%s: EnergyJoules(1) = %v, want %v from the snapshot", n, gotJ, wantJ)
		}
		epochs += counter("dev." + n + ".epoch_flips")
		hits, misses = hits+fc.Hits, misses+fc.Misses
		punts, recircs, drains, errs = punts+st.Punted, recircs+st.Recircs, drains+st.DrainDrops, errs+st.Errors
		policy += st.Dropped - st.DrainDrops - st.Errors
	}
	// The run must cover every path the block counts, or the golden
	// proves less than it claims.
	for _, c := range []struct {
		what string
		n    uint64
	}{{"commits", epochs}, {"cache hits", hits}, {"cache misses", misses}, {"punts", punts},
		{"recirculations", recircs}, {"drain drops", drains}, {"policy drops", policy},
		{"execution errors", errs}} {
		if c.n == 0 {
			t.Errorf("run produced no %s", c.what)
		}
	}
	if epochs < 20 {
		t.Errorf("run committed %d times, want ≥ 20", epochs)
	}
}
