package dataplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
	"flexnet/internal/telemetry"
)

// cacheRouter builds an exact-match router on ipv4.dst whose action
// forwards to its parameter port; a miss falls through with Continue.
func cacheRouter(name string) *flexbpf.Program {
	act := flexbpf.NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	return flexbpf.NewProgram(name).
		Action(name+"_fwd", 1, act).
		Table(&flexbpf.TableSpec{
			Name:    name + "_t",
			Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions: []string{name + "_fwd"},
			Size:    16,
		}).
		Apply(name + "_t").
		MustBuild()
}

// cacheMarker builds a stateless classifier whose write set (meta.mark)
// depends on validated read fields, exercising the cache's pre/post
// field bookkeeping.
func cacheMarker(name string) *flexbpf.Program {
	code := flexbpf.NewAsm().
		LdField(1, "ipv4.ttl").
		LdField(2, "tcp.dport").
		Hash(1, 1).
		Add(1, 2).
		StField("meta.mark", 1).
		Ret().MustBuild()
	return flexbpf.NewProgram(name).Do(code).MustBuild()
}

// tenantFilter admits SYN packets only. Its field, tcp.flags, is outside
// the flow key and read by no other stage of cacheTestPipeline, so only
// the filter puts it in the cache's validation set.
var tenantFilter = flexbpf.Cond{Field: "tcp.flags", Op: flexbpf.CmpEq, Value: packet.TCPSyn}

// cacheTestPipeline installs the identical four-stage pipeline on d:
// marker, conditional dropper (tcp.dport == 443), a tenant's dropper of
// tcp.dport 8080 behind tenantFilter, then the router.
func cacheTestPipeline(t *testing.T, d *Device, port uint64) {
	t.Helper()
	install := func(p *flexbpf.Program, opts InstallOptions) {
		if err := d.InstallProgramOpt(p, opts); err != nil {
			t.Fatalf("install %s: %v", p.Name, err)
		}
	}
	install(cacheMarker("mark"), InstallOptions{Priority: 10})
	install(dropDportProgram("guard", 443), InstallOptions{Priority: 20})
	install(dropDportProgram("tenant", 8080), InstallOptions{Filter: &tenantFilter, Priority: 30})
	install(cacheRouter("rt"), InstallOptions{Priority: PriorityInfra})
	if err := d.Instance("rt").Table("rt_t").Insert(
		flexbpf.ExactEntry("rt_fwd", []uint64{port}, uint64(packet.IP(10, 0, 0, 2)))); err != nil {
		t.Fatal(err)
	}
}

// randomCachePacket draws from a small flow pool with per-packet field
// jitter so the cache sees hits, misses, and same-key variants. Half
// the packets are SYNs, so one flow to port 8080 is dropped by the
// tenant or forwarded by turns.
func randomCachePacket(r *rand.Rand, id uint64) *packet.Packet {
	dport := uint16(80)
	switch r.Intn(4) {
	case 0:
		dport = 443 // dropped by the guard
	case 1:
		dport = 8080 // dropped by the tenant when its filter admits
	}
	p := packet.TCPPacket(id,
		packet.IP(10, 0, 1, byte(1+r.Intn(3))), packet.IP(10, 0, 0, 2),
		uint16(5000+r.Intn(4)), dport, uint64(r.Intn(2))*packet.TCPSyn, 100+10*r.Intn(3))
	p.SetField("ipv4.ttl", uint64(1+r.Intn(3)))
	return p
}

// diffPacketState explains the first observable difference between two
// processed packets ("" when identical), scanning every interned field.
func diffPacketState(a, b *packet.Packet) string {
	if a.EgressPort != b.EgressPort {
		return fmt.Sprintf("egress %d != %d", a.EgressPort, b.EgressPort)
	}
	if a.Epoch != b.Epoch {
		return fmt.Sprintf("epoch %d != %d", a.Epoch, b.Epoch)
	}
	if a.PayloadLen != b.PayloadLen {
		return fmt.Sprintf("payload %d != %d", a.PayloadLen, b.PayloadLen)
	}
	if !reflect.DeepEqual(a.Headers, b.Headers) {
		return fmt.Sprintf("headers %v != %v", a.Headers, b.Headers)
	}
	for id := 0; id < packet.NumFieldIDs(); id++ {
		fid := packet.FieldID(id)
		va, oka := a.FieldOKByID(fid)
		vb, okb := b.FieldOKByID(fid)
		if oka != okb || va != vb {
			return fmt.Sprintf("field %s: %d/%v != %d/%v",
				packet.FieldIDName(fid), va, oka, vb, okb)
		}
	}
	return ""
}

func diffStats(a, b ProcStats) string {
	if a.Verdict != b.Verdict || a.Epoch != b.Epoch || a.LatencyNs != b.LatencyNs ||
		a.Instrs != b.Instrs || a.Lookups != b.Lookups {
		return fmt.Sprintf("%+v != %+v", a, b)
	}
	return ""
}

// TestFlowCacheEquivalenceProperty is the per-packet equivalence
// property behind E17's dev telemetry column (TestE17Shape): a cached
// device and an uncached twin fed the same packet stream produce
// identical ProcStats (verdict, epoch, latency, Instrs/Lookups) and
// identical packet state — including across a config swap
// landing mid-stream and a table mutation that bumps generations
// without an epoch change.
func TestFlowCacheEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cached := MustNew(DefaultConfig("sw", ArchDRMT))
	cached.SetMetrics(telemetry.NewRegistry())
	plain := MustNew(DefaultConfig("sw", ArchDRMT))
	plain.DisableFlowCache()
	cacheTestPipeline(t, cached, 7)
	cacheTestPipeline(t, plain, 7)

	swapBoth := func(step int) {
		for _, d := range []*Device{cached, plain} {
			if err := d.Swap(func(st *StagedConfig) error {
				if err := st.Remove("mark"); err != nil {
					return err
				}
				return st.Install(cacheMarker("mark"), nil)
			}); err != nil {
				t.Fatalf("swap at %d: %v", step, err)
			}
		}
	}
	mutateBoth := func(step int) {
		for _, d := range []*Device{cached, plain} {
			ti := d.Instance("rt").Table("rt_t")
			if err := ti.ReplaceAll([]*flexbpf.TableEntry{
				flexbpf.ExactEntry("rt_fwd", []uint64{uint64(3 + step%5)}, uint64(packet.IP(10, 0, 0, 2))),
			}); err != nil {
				t.Fatalf("replace at %d: %v", step, err)
			}
		}
	}

	for i := 0; i < 4000; i++ {
		switch {
		case i%997 == 500:
			swapBoth(i) // epoch-atomic commit mid-stream
		case i%613 == 300:
			mutateBoth(i) // generation bump, same epoch
		}
		src := randomCachePacket(r, uint64(i))
		pc, pp := src.Clone(), src.Clone()
		sc := cached.Process(pc)
		sp := plain.Process(pp)
		if d := diffStats(sc, sp); d != "" {
			t.Fatalf("packet %d: stats diverge: %s", i, d)
		}
		if d := diffPacketState(pc, pp); d != "" {
			t.Fatalf("packet %d: packet state diverges: %s", i, d)
		}
		if pc.Epoch != cached.Epoch() {
			t.Fatalf("packet %d: stale epoch %d served at epoch %d", i, pc.Epoch, cached.Epoch())
		}
	}
	st := cached.FlowCacheStats()
	if st.Hits == 0 {
		t.Fatal("property test never exercised a cache hit")
	}
	if st.Invalidations == 0 {
		t.Fatal("property test never exercised an epoch invalidation")
	}
}

// TestFlowCacheUncacheableBypass: a pipeline containing per-flow state
// (a map) must never be served from the cache, and stays equivalent.
func TestFlowCacheUncacheableBypass(t *testing.T) {
	stateful := flexbpf.NewProgram("hh").
		HashMap("hh_m", 64, 8).
		Do(flexbpf.NewAsm().
			FlowHash(0).
			MapLoad(1, "hh_m", 0).
			AddImm(1, 1).
			MapStore("hh_m", 0, 1).
			Ret().MustBuild()).
		MustBuild()
	cached := MustNew(DefaultConfig("sw", ArchDRMT))
	cached.SetMetrics(telemetry.NewRegistry())
	plain := MustNew(DefaultConfig("sw", ArchDRMT))
	plain.DisableFlowCache()
	for _, d := range []*Device{cached, plain} {
		if err := d.InstallProgram(stateful); err != nil {
			t.Fatal(err)
		}
		if err := d.InstallProgramOpt(cacheRouter("rt"), InstallOptions{Priority: PriorityInfra}); err != nil {
			t.Fatal(err)
		}
		if err := d.Instance("rt").Table("rt_t").Insert(
			flexbpf.ExactEntry("rt_fwd", []uint64{7}, uint64(packet.IP(10, 0, 0, 2)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		src := testPkt(uint64(i))
		pc, pp := src.Clone(), src.Clone()
		if d := diffStats(cached.Process(pc), plain.Process(pp)); d != "" {
			t.Fatalf("packet %d: stats diverge: %s", i, d)
		}
	}
	st := cached.FlowCacheStats()
	if st.Hits != 0 || st.Misses != 0 || st.Inserts != 0 {
		t.Fatalf("uncacheable pipeline touched the cache: %+v", st)
	}
}

// cacheTestPipelineSwap installs the four-stage pipeline of
// cacheTestPipeline in one commit, with its route in place before the
// commit publishes it: how a restarted device gets its pipeline back
// without a window in which the router has no route.
func cacheTestPipelineSwap(d *Device, port uint64) error {
	return d.Swap(func(st *StagedConfig) error {
		if err := st.InstallOpt(cacheMarker("mark"), InstallOptions{Priority: 10}); err != nil {
			return err
		}
		if err := st.InstallOpt(dropDportProgram("guard", 443), InstallOptions{Priority: 20}); err != nil {
			return err
		}
		if err := st.InstallOpt(dropDportProgram("tenant", 8080), InstallOptions{Filter: &tenantFilter, Priority: 30}); err != nil {
			return err
		}
		if err := st.InstallOpt(cacheRouter("rt"), InstallOptions{Priority: PriorityInfra}); err != nil {
			return err
		}
		for _, inst := range st.instances {
			if inst.prog.Name == "rt" {
				return inst.Table("rt_t").Insert(
					flexbpf.ExactEntry("rt_fwd", []uint64{port}, uint64(packet.IP(10, 0, 0, 2))))
			}
		}
		return fmt.Errorf("staged chain has no router")
	})
}

// TestFlowCacheSwapHammer drives four devices the way ProcessCtx's
// contract allows: each has one goroutine processing packets with its own
// ExecContext and one goroutine committing config swaps as fast as it
// can, and the first device is also crashed and restarted (then given its
// pipeline back) every few swaps. Run under -race this is the CI hammer
// for the commit/lookup boundary — the config-owned cache, the accounting
// block, the swap — and in any mode it checks that every packet is
// served by one configuration that was live while it was processed:
// its epoch lies between the device's epoch before and after the call.
func TestFlowCacheSwapHammer(t *testing.T) {
	const devices, packets = 4, 3000
	devs := make([]*Device, devices)
	reg := telemetry.NewRegistry()
	for i := range devs {
		devs[i] = MustNew(DefaultConfig(fmt.Sprintf("sw%d", i), ArchDRMT))
		devs[i].SetMetrics(reg)
		cacheTestPipeline(t, devs[i], 7)
	}

	stop := make(chan struct{})
	var swappers sync.WaitGroup
	for i, d := range devs {
		swappers.Add(1)
		go func(crashes bool, d *Device) {
			defer swappers.Done()
			for v := 1; ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				if crashes && v%10 == 0 {
					d.Crash()
					d.Restart()
					if err := cacheTestPipelineSwap(d, 7); err != nil {
						t.Errorf("%s: reinstall after crash: %v", d.Name(), err)
						return
					}
					continue
				}
				_ = d.Swap(func(st *StagedConfig) error {
					if err := st.Remove("mark"); err != nil {
						return err
					}
					return st.Install(cacheMarker("mark"), nil)
				})
			}
		}(i == 0, d)
	}

	errs := make(chan error, devices)
	for i, d := range devs {
		go func(g int, d *Device) {
			r := rand.New(rand.NewSource(int64(g)))
			ectx := flexbpf.NewExecContext()
			for i := 0; i < packets; i++ {
				// Two flows, one forwarded and one dropped by the guard, so
				// that packets hit the cache between commits.
				dport := uint16(80)
				if r.Intn(2) == 0 {
					dport = 443
				}
				pkt := packet.TCPPacket(uint64(g*1_000_000+i), packet.IP(10, 0, 1, 1), packet.IP(10, 0, 0, 2), 5000, dport, 0, 100)
				before := d.Epoch()
				st := d.ProcessCtx(pkt, ectx)
				after := d.Epoch()
				if pkt.Epoch != st.Epoch {
					errs <- fmt.Errorf("%s packet %d: epoch mismatch %d != %d", d.Name(), i, pkt.Epoch, st.Epoch)
					return
				}
				// Epoch 0 is a drop while the device is down.
				if st.Epoch != 0 && (st.Epoch < before || st.Epoch > after) {
					errs <- fmt.Errorf("%s packet %d: served by epoch %d outside its processing window [%d, %d]",
						d.Name(), i, st.Epoch, before, after)
					return
				}
				switch {
				case st.Verdict == packet.VerdictForward, st.Verdict == packet.VerdictDrop:
				case st.Verdict == packet.VerdictContinue && st.Instrs == 0 && st.Lookups == 0 && d == devs[0]:
					// Between a restart and the reinstall the chain is empty.
				default:
					errs <- fmt.Errorf("%s packet %d: verdict %v after %d instructions, %d lookups", d.Name(), i, st.Verdict, st.Instrs, st.Lookups)
					return
				}
			}
			errs <- nil
		}(i, d)
	}
	for range devs {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	swappers.Wait()
	if devs[0].DownGen() == 0 {
		t.Error("the hammer never crashed sw0")
	}
	// Readers are serialized with the packet path: every processor is done.
	var hits uint64
	for _, d := range devs {
		if got := d.Stats().Processed + d.Stats().DrainDrops; got != packets {
			t.Errorf("%s: accounted %d of %d packets", d.Name(), got, packets)
		}
		hits += d.FlowCacheStats().Hits
	}
	if hits == 0 {
		t.Error("the hammer never hit the flow cache")
	}
}

// FuzzFlowCacheEquivalence fuzzes the record→replay round trip: for an
// arbitrary packet shape, a cached device's miss and its follower on the
// same flow must match an uncached device bit-for-bit in stats and
// packet state, and must keep matching after an epoch commit retires
// the entry. The follower's TCP flags are the first packet's XOR flip,
// so the tenant filter can refuse one and admit the other.
func FuzzFlowCacheEquivalence(f *testing.F) {
	f.Add(uint16(5000), uint16(80), uint8(64), uint8(100), uint8(0), uint8(0), false)
	f.Add(uint16(5001), uint16(443), uint8(1), uint8(0), uint8(2), uint8(0), true)
	f.Add(uint16(0), uint16(0), uint8(0), uint8(255), uint8(0), uint8(0), false)
	f.Add(uint16(5002), uint16(8080), uint8(64), uint8(100), uint8(0), uint8(2), true)
	f.Fuzz(func(t *testing.T, sport, dport uint16, ttl, plen, flags, flip uint8, swap bool) {
		cached := MustNew(DefaultConfig("sw", ArchDRMT))
		cached.SetMetrics(telemetry.NewRegistry())
		plain := MustNew(DefaultConfig("sw", ArchDRMT))
		plain.DisableFlowCache()
		cacheTestPipeline(t, cached, 7)
		cacheTestPipeline(t, plain, 7)

		mk := func(id uint64, flags uint8) *packet.Packet {
			p := packet.TCPPacket(id, packet.IP(10, 0, 1, 1), packet.IP(10, 0, 0, 2),
				sport, dport, uint64(flags), int(plen))
			p.SetField("ipv4.ttl", uint64(ttl))
			return p
		}
		check := func(round string, id uint64, flags uint8) {
			src := mk(id, flags)
			pc, pp := src.Clone(), src.Clone()
			if d := diffStats(cached.Process(pc), plain.Process(pp)); d != "" {
				t.Fatalf("%s: stats diverge: %s", round, d)
			}
			if d := diffPacketState(pc, pp); d != "" {
				t.Fatalf("%s: packet state diverges: %s", round, d)
			}
		}
		check("miss", 1, flags)
		check("follower", 2, flags^flip)
		if swap {
			for _, d := range []*Device{cached, plain} {
				if err := d.Swap(func(st *StagedConfig) error {
					if err := st.Remove("mark"); err != nil {
						return err
					}
					return st.Install(cacheMarker("mark"), nil)
				}); err != nil {
					t.Fatal(err)
				}
			}
			check("post-swap", 3, flags)
		}
	})
}
