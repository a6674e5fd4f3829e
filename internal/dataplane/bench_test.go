package dataplane

import (
	"testing"

	"flexnet/internal/apps"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
	"flexnet/internal/telemetry"
)

// BenchmarkInstall measures what one program install costs a device —
// verify, place, build the instance, link, commit — as the executor
// drives it: one PrepareChange + Activate per program, over the six
// builtins the control-plane storm deploys (benchmark/ctl_ops.go), each
// removed again outside the timer.
func BenchmarkInstall(b *testing.B) {
	var progs []*flexbpf.Program
	for _, k := range []struct {
		kind string
		args []uint64
	}{
		{"syn-defense", []uint64{256, 10}},
		{"heavy-hitter", []uint64{2, 128, 1000}},
		{"rate-limiter", []uint64{4, 1000000, 2000000}},
		{"firewall", []uint64{16, 128, 0}},
		{"l2", []uint64{32}},
		{"int", []uint64{1}},
	} {
		p, err := apps.Builtin(k.kind, k.kind, k.args)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	d := MustNew(DefaultConfig("sw", ArchDRMT))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := progs[i%len(progs)]
		pc, err := d.PrepareChange(func(st *StagedConfig) error { return st.Install(prog, nil) })
		if err == nil {
			err = pc.Activate()
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := d.RemoveProgram(prog.Name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// processCtxCases are the two warm device visits the packet path budgets
// hold to zero allocations: a flow-cache hit through a cacheable chain
// (a guard and an exact router, neither writing a field, so one packet
// can be replayed over and over), and an uncached visit through a
// stateful flow counter, a filtered instance whose filter admits the
// packet, and the router.
var processCtxCases = []struct {
	name  string
	build func(tb testing.TB) *Device
}{
	{"hit", func(tb testing.TB) *Device {
		return budgetDevice(tb, dropDportProgram("guard", 443))
	}},
	{"miss-stateful", func(tb testing.TB) *Device {
		d := budgetDevice(tb, flowCounterProgram("cnt"))
		filter := &flexbpf.Cond{Field: "tcp.dport", Op: flexbpf.CmpEq, Value: 80}
		if err := d.InstallProgramOpt(dropDportProgram("tenant", 22), InstallOptions{Filter: filter, Priority: 20}); err != nil {
			tb.Fatal(err)
		}
		return d
	}},
}

// budgetDevice is a device running first, then an exact router with a
// route for testPkt's destination.
func budgetDevice(tb testing.TB, first *flexbpf.Program) *Device {
	tb.Helper()
	d := MustNew(DefaultConfig("sw", ArchDRMT))
	d.SetMetrics(telemetry.NewRegistry())
	if err := d.InstallProgramOpt(first, InstallOptions{Priority: 10}); err != nil {
		tb.Fatal(err)
	}
	if err := d.InstallProgramOpt(cacheRouter("rt"), InstallOptions{Priority: PriorityInfra}); err != nil {
		tb.Fatal(err)
	}
	if err := d.Instance("rt").Table("rt_t").Insert(
		flexbpf.ExactEntry("rt_fwd", []uint64{7}, uint64(packet.IP(10, 0, 0, 2)))); err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestProcessCtxAllocBudget: a warm device visit allocates nothing,
// whether the flow cache serves it or the chain runs (stateful program,
// filtered instance, router): the accounting is plain fields.
func TestProcessCtxAllocBudget(t *testing.T) {
	for _, c := range processCtxCases {
		t.Run(c.name, func(t *testing.T) {
			d := c.build(t)
			ectx := flexbpf.NewExecContext()
			pkt := testPkt(1)
			d.ProcessCtx(pkt, ectx) // warm: record the flow, size the map
			var st ProcStats
			allocs := testing.AllocsPerRun(1000, func() { st = d.ProcessCtx(pkt, ectx) })
			// One lookup is the router's: the chain ran to its end.
			if st.Verdict != packet.VerdictForward || pkt.EgressPort != 7 || st.Lookups != 1 {
				t.Fatalf("visit: %v to port %d after %d lookups", st.Verdict, pkt.EgressPort, st.Lookups)
			}
			if allocs != 0 {
				t.Fatalf("warm %s visit allocates %.2f times, want 0", c.name, allocs)
			}
			hits := d.FlowCacheStats().Hits
			if want := c.name == "hit"; (hits > 0) != want {
				t.Fatalf("cache hits = %d on the %s case", hits, c.name)
			}
		})
	}
}

// BenchmarkProcessCtx measures one warm device visit on each budget case
// (`make bench` reports its allocations).
func BenchmarkProcessCtx(b *testing.B) {
	for _, c := range processCtxCases {
		b.Run(c.name, func(b *testing.B) {
			d := c.build(b)
			ectx := flexbpf.NewExecContext()
			pkt := testPkt(1)
			d.ProcessCtx(pkt, ectx)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.ProcessCtx(pkt, ectx)
			}
		})
	}
}
