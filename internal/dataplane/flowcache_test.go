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

// cacheTestPipeline installs the identical three-stage pipeline on d:
// marker, conditional dropper (tcp.dport == 443), then the router.
func cacheTestPipeline(t *testing.T, d *Device, port uint64) {
	t.Helper()
	install := func(p *flexbpf.Program, prio int) {
		if err := d.InstallProgramOpt(p, InstallOptions{Priority: prio}); err != nil {
			t.Fatalf("install %s: %v", p.Name, err)
		}
	}
	install(cacheMarker("mark"), 10)
	install(dropDportProgram("guard", 443), 20)
	install(cacheRouter("rt"), PriorityInfra)
	if err := d.Instance("rt").Table("rt_t").Insert(
		flexbpf.ExactEntry("rt_fwd", []uint64{port}, uint64(packet.IP(10, 0, 0, 2)))); err != nil {
		t.Fatal(err)
	}
}

// randomCachePacket draws from a small flow pool with per-packet field
// jitter so the cache sees hits, misses, and same-key variants.
func randomCachePacket(r *rand.Rand, id uint64) *packet.Packet {
	dport := uint16(80)
	switch r.Intn(4) {
	case 0:
		dport = 443 // dropped by the guard
	case 1:
		dport = 8080
	}
	p := packet.TCPPacket(id,
		packet.IP(10, 0, 1, byte(1+r.Intn(3))), packet.IP(10, 0, 0, 2),
		uint16(5000+r.Intn(4)), dport, 0, 100+10*r.Intn(3))
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
		a.Instrs != b.Instrs || a.Lookups != b.Lookups ||
		!reflect.DeepEqual(a.Programs, b.Programs) {
		return fmt.Sprintf("%+v != %+v", a, b)
	}
	return ""
}

// TestFlowCacheEquivalenceProperty is the per-packet equivalence
// property behind the benchdiff gate: a cached device and an uncached
// twin fed the same packet stream produce identical ProcStats (verdict,
// epoch, latency, Instrs/Lookups, program list) and identical packet
// state — including across a config swap landing mid-stream and a table
// mutation that bumps generations without an epoch change.
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

// TestFlowCacheSwapHammer drives cached processing from several
// goroutines while another goroutine commits config swaps as fast as it
// can. Run under -race this is the CI hammer for the commit/lookup
// overlap; in any mode it checks that no packet is ever served an
// outcome from a superseded epoch.
func TestFlowCacheSwapHammer(t *testing.T) {
	d := MustNew(DefaultConfig("sw", ArchDRMT))
	d.SetMetrics(telemetry.NewRegistry())
	cacheTestPipeline(t, d, 7)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 0; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = d.Swap(func(st *StagedConfig) error {
				if err := st.Remove("mark"); err != nil {
					return err
				}
				return st.Install(cacheMarker("mark"), nil)
			})
		}
	}()

	const procs = 4
	errs := make(chan error, procs)
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			// One ExecContext per goroutine: Process's nil context is the
			// instance's private scratch, which concurrent callers must
			// not share.
			ectx := flexbpf.NewExecContext()
			for i := 0; i < 3000; i++ {
				pkt := randomCachePacket(r, uint64(g*1_000_000+i))
				st := d.ProcessCtx(pkt, ectx)
				if pkt.Epoch != st.Epoch {
					errs <- fmt.Errorf("goroutine %d packet %d: epoch mismatch %d != %d",
						g, i, pkt.Epoch, st.Epoch)
					return
				}
				if st.Verdict != packet.VerdictForward && st.Verdict != packet.VerdictDrop {
					errs <- fmt.Errorf("goroutine %d packet %d: verdict %v", g, i, st.Verdict)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < procs; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

// FuzzFlowCacheEquivalence fuzzes the record→replay round trip: for an
// arbitrary packet shape, a cached device's miss-then-hit pair must
// match an uncached device bit-for-bit in stats and packet state, and
// must keep matching after an epoch commit retires the entry.
func FuzzFlowCacheEquivalence(f *testing.F) {
	f.Add(uint16(5000), uint16(80), uint8(64), uint8(100), false)
	f.Add(uint16(5001), uint16(443), uint8(1), uint8(0), true)
	f.Add(uint16(0), uint16(0), uint8(0), uint8(255), false)
	f.Fuzz(func(t *testing.T, sport, dport uint16, ttl, plen uint8, swap bool) {
		cached := MustNew(DefaultConfig("sw", ArchDRMT))
		cached.SetMetrics(telemetry.NewRegistry())
		plain := MustNew(DefaultConfig("sw", ArchDRMT))
		plain.DisableFlowCache()
		cacheTestPipeline(t, cached, 7)
		cacheTestPipeline(t, plain, 7)

		mk := func(id uint64) *packet.Packet {
			p := packet.TCPPacket(id, packet.IP(10, 0, 1, 1), packet.IP(10, 0, 0, 2),
				sport, dport, 0, int(plen))
			p.SetField("ipv4.ttl", uint64(ttl))
			return p
		}
		check := func(round string, id uint64) {
			src := mk(id)
			pc, pp := src.Clone(), src.Clone()
			if d := diffStats(cached.Process(pc), plain.Process(pp)); d != "" {
				t.Fatalf("%s: stats diverge: %s", round, d)
			}
			if d := diffPacketState(pc, pp); d != "" {
				t.Fatalf("%s: packet state diverges: %s", round, d)
			}
		}
		check("miss", 1)
		check("hit", 2)
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
			check("post-swap", 3)
		}
	})
}
