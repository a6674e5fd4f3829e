package flexnet

// The benchmark harness regenerates every experiment table (E1–E20, see
// DESIGN.md §3 for the experiment index) plus micro-benchmarks of the
// core data path. Run:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkEx runs the corresponding experiment end-to-end per
// iteration; reported ns/op is harness wall time (the experiments
// themselves run in simulated time — their results are in the tables,
// printed by cmd/flexbench or recorded in EXPERIMENTS.md).

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/compiler"
	"flexnet/internal/controller"
	"flexnet/internal/dataplane"
	"flexnet/internal/experiments"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
	"flexnet/internal/spec"
)

func benchTable(b *testing.B, fn func(int64) *experiments.Table) {
	b.Helper()
	var sink *experiments.Table
	for i := 0; i < b.N; i++ {
		sink = fn(1)
	}
	if sink == nil || len(sink.Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
}

// BenchmarkE1HitlessReconfig regenerates E1 (hitless vs drain).
func BenchmarkE1HitlessReconfig(b *testing.B) { benchTable(b, experiments.E1Hitless) }

// BenchmarkE2ReconfigLatency regenerates E2 (sub-second change latency).
func BenchmarkE2ReconfigLatency(b *testing.B) { benchTable(b, experiments.E2ReconfigLatency) }

// BenchmarkE3Consistency regenerates E3 (per-packet consistency).
func BenchmarkE3Consistency(b *testing.B) { benchTable(b, experiments.E3Consistency) }

// BenchmarkE4DynamicApps regenerates E4 (FlexNet vs Mantis/HyPer4/static).
func BenchmarkE4DynamicApps(b *testing.B) { benchTable(b, experiments.E4DynamicApps) }

// BenchmarkE5SecurityElastic regenerates E5 (elastic DDoS defense).
func BenchmarkE5SecurityElastic(b *testing.B) { benchTable(b, experiments.E5SecurityElastic) }

// BenchmarkE6CCSwap regenerates E6 (live CC swap).
func BenchmarkE6CCSwap(b *testing.B) { benchTable(b, experiments.E6CCSwap) }

// BenchmarkE7TenantChurn regenerates E7 (tenant churn reclamation).
func BenchmarkE7TenantChurn(b *testing.B) { benchTable(b, experiments.E7TenantChurn) }

// BenchmarkE8FungibleCompile regenerates E8 (fungible vs bin-packing).
func BenchmarkE8FungibleCompile(b *testing.B) { benchTable(b, experiments.E8FungibleCompile) }

// BenchmarkE9Incremental regenerates E9 (incremental recompilation).
func BenchmarkE9Incremental(b *testing.B) { benchTable(b, experiments.E9Incremental) }

// BenchmarkE10TableMerge regenerates E10 (cross-product merge trade).
func BenchmarkE10TableMerge(b *testing.B) { benchTable(b, experiments.E10TableMerge) }

// BenchmarkE11StateMigration regenerates E11 (dp vs cp migration).
func BenchmarkE11StateMigration(b *testing.B) { benchTable(b, experiments.E11StateMigration) }

// BenchmarkE12FaultTolerance regenerates E12 (consensus + reroute).
func BenchmarkE12FaultTolerance(b *testing.B) { benchTable(b, experiments.E12FaultTolerance) }

// BenchmarkE13Energy regenerates E13 (energy-aware consolidation).
func BenchmarkE13Energy(b *testing.B) { benchTable(b, experiments.E13Energy) }

// BenchmarkE14DRPC regenerates E14 (dRPC vs controller ops).
func BenchmarkE14DRPC(b *testing.B) { benchTable(b, experiments.E14DRPC) }

// BenchmarkE15FaultRecovery regenerates E15 (MTTR vs crash rate).
func BenchmarkE15FaultRecovery(b *testing.B) { benchTable(b, experiments.E15FaultRecovery) }

// BenchmarkE16ScaleOut regenerates E16 (incremental routing at scale).
func BenchmarkE16ScaleOut(b *testing.B) { benchTable(b, experiments.E16ScaleOut) }

// BenchmarkE17FastPath regenerates E17 (batched execution + flow cache).
func BenchmarkE17FastPath(b *testing.B) { benchTable(b, experiments.E17FastPath) }

// BenchmarkE18ControlPlane regenerates E18 (control-plane fast path).
func BenchmarkE18ControlPlane(b *testing.B) { benchTable(b, experiments.E18ControlPlane) }

// BenchmarkE19SpecReconcile regenerates E19 (declarative spec reconcile).
func BenchmarkE19SpecReconcile(b *testing.B) { benchTable(b, experiments.E19SpecReconcile) }

// BenchmarkE20HAFailover regenerates E20 (controller failover mid-plan).
func BenchmarkE20HAFailover(b *testing.B) { benchTable(b, experiments.E20HAFailover) }

// benchControlPlaneOps measures harness wall time per control-plane
// update op on a k=8 fat-tree (80 switches) — the planning work itself,
// not the simulated latency E18 reports. The incremental/full split
// shows the real CPU cost of replanning over the whole fabric per op.
func benchControlPlaneOps(b *testing.B, incremental bool) {
	b.Helper()
	f := fabric.New(1)
	if err := fabric.BuildFatTree(f, fabric.FatTreeSpec{K: 8, HostsPerEdge: 1}); err != nil {
		b.Fatal(err)
	}
	ctl := controller.New(f)
	ctl.SetIncrementalPlacement(incremental)
	ctx := context.Background()
	mkSeg := func(entries int) *Program {
		return NewProgram("seg").
			HashMap("seg_m", entries, 8).SharedMap().
			Do(NewAsm().Ret().MustBuild()).
			MustBuild()
	}
	settle := func(op func(done func(error))) {
		var opErr error
		settled := false
		op(func(err error) { opErr, settled = err, true })
		for i := 0; i < 100 && !settled; i++ {
			f.Sim.RunFor(100 * time.Millisecond)
		}
		if !settled || opErr != nil {
			b.Fatalf("control-plane op: settled=%v err=%v", settled, opErr)
		}
	}
	uri := "flexnet://bench/app"
	dp := &flexbpf.Datapath{Name: uri, Segments: []*Program{mkSeg(512)}}
	settle(func(done func(error)) {
		ctl.Deploy(ctx, uri, dp, controller.DeployOptions{Path: []string{"p0-e0"}}, done)
	})
	size := 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if size == 512 {
			size = 1024
		} else {
			size = 512
		}
		d := &Delta{Name: "resize", Ops: []DeltaOp{
			{RemoveMaps: "seg_m"},
			{AddMap: &flexbpf.MapSpec{Name: "seg_m", Kind: flexbpf.MapHash, MaxEntries: size, ValueBits: 8, Shared: true}},
		}}
		settle(func(done func(error)) {
			ctl.UpdateApp(ctx, uri, "seg", d, func(_ *DeltaReport, err error) { done(err) })
		})
	}
}

// BenchmarkControlPlaneOps compares per-op controller planning cost with
// incremental placement (default) against the full-recompute baseline.
func BenchmarkControlPlaneOps(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { benchControlPlaneOps(b, true) })
	b.Run("full", func(b *testing.B) { benchControlPlaneOps(b, false) })
}

// BenchmarkSpecOps measures the declarative-spec operations on the
// shape the control-plane storm (benchmark/ctl_storm.go) gives them: a
// k=8 fat-tree carrying 70 single-segment apps over the six builtin
// kinds, and two revisions of the whole-network spec that differ in six
// apps' table size and replica count. load reads the first revision's
// JSON document; fingerprint hashes one program of each builtin kind;
// resolve, diff and status leave the network alone; apply alternates
// the revisions, so every iteration swaps and rescales those six apps.
func BenchmarkSpecOps(b *testing.B) {
	n, err := New(1).Topo("fat-tree:k=8").Build()
	if err != nil {
		b.Fatal(err)
	}
	kinds := []struct {
		app, seg string
		args     []uint64
	}{
		{"syn-defense", "syn", []uint64{256, 10}},
		{"heavy-hitter", "hh", []uint64{2, 128, 1000}},
		{"rate-limiter", "rl", []uint64{4, 1000000, 2000000}},
		{"firewall", "fw", []uint64{16, 128, 0}},
		{"l2", "l2", []uint64{32}},
		{"int", "int", []uint64{1}},
	}
	var specs [2]*NetworkSpec
	for rev := range specs {
		s := &NetworkSpec{Version: fmt.Sprintf("rev-%d", rev)}
		for t := 0; t < 8; t++ {
			s.Tenants = append(s.Tenants, spec.TenantSpec{Name: fmt.Sprintf("t%d", t)})
		}
		for i := 0; i < 64; i++ {
			k := kinds[i%len(kinds)]
			s.Apps = append(s.Apps, spec.AppSpec{
				URI: fmt.Sprintf("flexnet://t%d/a%d", i%8, i), Tenant: fmt.Sprintf("t%d", i%8),
				Path:     []string{fmt.Sprintf("p%d-e%d", i%8, i/8%4)},
				Segments: []spec.SegmentSpec{{Name: k.seg, App: k.app, Args: k.args}},
			})
		}
		for i := 0; i < 6; i++ {
			s.Apps = append(s.Apps, spec.AppSpec{
				URI: fmt.Sprintf("flexnet://t%d/declared%d", i, i), Tenant: fmt.Sprintf("t%d", i),
				Path: []string{fmt.Sprintf("p%d-e0", i), fmt.Sprintf("p%d-e1", i)},
				Segments: []spec.SegmentSpec{{
					Name: "hh", App: "heavy-hitter", Args: []uint64{2, uint64(128 << rev), 1000}, Scale: 1 + rev,
				}},
			})
		}
		specs[rev] = s
	}
	var resolved [2]*ResolvedSpec
	for rev, s := range specs {
		if resolved[rev], err = ResolveSpec(s); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := n.ApplySpec(ctx, SpecApplyRequest{Resolved: resolved[0]}); err != nil {
		b.Fatal(err)
	}
	doc, err := json.Marshal(specs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := LoadSpec(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fingerprint", func(b *testing.B) {
		for _, k := range kinds {
			prog, err := apps.Builtin(k.app, k.seg, k.args)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(k.app, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					compiler.Fingerprint(prog)
				}
			})
		}
	})
	b.Run("resolve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ResolveSpec(specs[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := n.DiffSpec(SpecDiffRequest{Resolved: resolved[i%2]}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("status", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if st := n.SpecStatus(); !st.InSync {
				b.Fatalf("drift: %v", st.Drift)
			}
		}
	})
	rev := 0 // outlives the sub-benchmark's calls, which share the network
	b.Run("apply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rev = 1 - rev
			rep, err := n.ApplySpec(ctx, SpecApplyRequest{Resolved: resolved[rev]})
			if err != nil || len(rep.Diff.Swap) != 6 {
				b.Fatalf("apply %d: %v (diff %v)", i, err, rep.Diff.Summary())
			}
		}
	})
}

// --- Micro-benchmarks of the core data path. ---

func benchDevice(b *testing.B, arch dataplane.Arch) {
	d := dataplane.MustNew(dataplane.DefaultConfig("sw", arch))
	if err := d.InstallProgram(SYNDefense("syn", 4096, 100)); err != nil {
		b.Fatal(err)
	}
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = packet.TCPPacket(uint64(i), packet.IP(1, 0, 0, byte(i)), packet.IP(2, 0, 0, 1),
			uint16(i), 80, packet.TCPSyn, 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(pkts[i%len(pkts)])
	}
}

// BenchmarkDeviceProcess measures the end-to-end per-packet device path
// (parse check, filters, linked program execution, telemetry) on the
// default dRMT architecture.
func BenchmarkDeviceProcess(b *testing.B) { benchDevice(b, dataplane.ArchDRMT) }

// BenchmarkProcessDRMT measures per-packet processing on a dRMT device.
func BenchmarkProcessDRMT(b *testing.B) { benchDevice(b, dataplane.ArchDRMT) }

// BenchmarkProcessRMT measures per-packet processing on an RMT device.
func BenchmarkProcessRMT(b *testing.B) { benchDevice(b, dataplane.ArchRMT) }

// BenchmarkProcessHost measures per-packet processing on a host device.
func BenchmarkProcessHost(b *testing.B) { benchDevice(b, dataplane.ArchHost) }

// BenchmarkInterpreter measures raw FlexBPF execution.
func BenchmarkInterpreter(b *testing.B) {
	prog := HeavyHitter("hh", 4, 4096, 1<<62)
	d := dataplane.MustNew(dataplane.DefaultConfig("sw", dataplane.ArchSoC))
	if err := d.InstallProgram(prog); err != nil {
		b.Fatal(err)
	}
	p := packet.TCPPacket(1, 1, 2, 3, 4, 0, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(p)
	}
}

// BenchmarkTableLookupExact measures exact-match table lookup.
func BenchmarkTableLookupExact(b *testing.B) {
	spec := &flexbpf.TableSpec{
		Name: "t",
		Keys: []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
		Size: 1 << 16,
	}
	ti := flexbpf.NewTableInstance(spec)
	for i := 0; i < 10000; i++ {
		ti.Insert(flexbpf.ExactEntry("a", nil, uint64(i)))
	}
	keys := []uint64{42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys[0] = uint64(i % 10000)
		ti.Lookup(keys)
	}
}

// BenchmarkTableLookupLPM measures LPM lookup over 1k prefixes.
func BenchmarkTableLookupLPM(b *testing.B) {
	spec := &flexbpf.TableSpec{
		Name: "rt",
		Keys: []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchLPM, Bits: 32}},
		Size: 4096,
	}
	ti := flexbpf.NewTableInstance(spec)
	for i := 0; i < 1000; i++ {
		ti.Insert(flexbpf.LPMEntry("a", nil, uint64(packet.IP(10, byte(i>>8), byte(i), 0)), 24))
	}
	keys := []uint64{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys[0] = uint64(packet.IP(10, byte(i>>8), byte(i), 7))
		ti.Lookup(keys)
	}
}

// BenchmarkParseWire measures wire-format parsing.
func BenchmarkParseWire(b *testing.B) {
	p := packet.TCPPacket(1, 1, 2, 3, 4, 0, 100)
	raw, err := packet.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	g := packet.StandardParseGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := packet.New(uint64(i))
		if err := g.Parse(raw, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeSwap measures the atomic program-swap primitive.
func BenchmarkRuntimeSwap(b *testing.B) {
	d := dataplane.MustNew(dataplane.DefaultConfig("sw", dataplane.ArchDRMT))
	mk := func(name string) *Program {
		return NewProgram(name).Do(NewAsm().Drop().MustBuild()).MustBuild()
	}
	if err := d.InstallProgram(mk("v0")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := "v" + itoa(i%2)
		next := "v" + itoa((i+1)%2)
		err := d.Swap(func(st *dataplane.StagedConfig) error {
			if err := st.Remove(old); err != nil {
				return err
			}
			return st.Install(mk(next), nil)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	return "1"
}

// steadyClassifier builds a stateless, cacheable classification program:
// straight-line field loads plus `rounds` hash/ALU mixing rounds, with
// no per-flow state, time, or randomness. Its CacheProfile is cacheable,
// so the megaflow flow cache (DESIGN.md §12) can replay its entire
// effect — verdict, field writes, and Instrs/Lookups accounting — from
// one exact-match lookup.
func steadyClassifier(name string, rounds int) *Program {
	a := flexbpf.NewAsm().
		LdField(1, "ipv4.src").
		LdField(2, "ipv4.dst").
		LdField(3, "tcp.sport").
		LdField(4, "tcp.dport").
		Mov(5, 1)
	for i := 0; i < rounds; i++ {
		a.Hash(5, 5).
			Xor(5, 2).
			Add(5, 3).
			ShlImm(5, 1).
			Or(5, 4)
	}
	a.StField("meta.mark", 5).Ret()
	return NewProgram(name).Headers("eth", "ipv4", "tcp").Do(a.MustBuild()).MustBuild()
}

// benchSteadyState drives a steady 16-flow TCP load through one DRMT
// switch running base routing plus a four-stage stateless classifier
// pipeline (~2000 instructions per packet), and reports aggregate
// throughput. One ingress host (and link) per flow keeps the flows' CBR
// arrivals on identical timestamps.
func benchSteadyState(b *testing.B, cache bool) {
	b.Helper()
	const flows = 16
	bld := New(1).FlowCache(cache)
	bld.Switch("sw", DRMT).Host("dst", "10.0.255.2").Link("sw", "dst")
	for i := 0; i < flows; i++ {
		h := fmt.Sprintf("h%d", i)
		bld.Host(h, fmt.Sprintf("10.0.%d.1", i)).Link(h, "sw")
	}
	n, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := n.Deploy(context.Background(), fmt.Sprintf("flexnet://bench/steady%d", i), AppSpec{
			Programs: []*Program{steadyClassifier(fmt.Sprintf("cls%d", i), 96)},
			Path:     []string{"sw"},
		}, DeployOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < flows; i++ {
		src, err := n.NewSource(fmt.Sprintf("h%d", i), FlowSpec{
			Dst: MustParseIP("10.0.255.2"), Proto: 6,
			SrcPort: uint16(5000 + i), DstPort: 80, PacketLen: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		src.StartCBR(100000)
	}
	n.RunFor(time.Millisecond) // warm-up: fill the pipeline and the cache
	processed := func() uint64 {
		return n.Metrics().CounterValue("dev.sw.packets_processed")
	}
	start := processed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RunFor(5 * time.Millisecond)
	}
	b.StopTimer()
	total := processed() - start
	if total == 0 {
		b.Fatal("no packets processed")
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkSteadyStatePipeline measures the megaflow flow cache on the
// steady-state pipeline workload: serial is the FlowCache(false) oracle,
// which runs the linked pipeline for every packet; cache is the default
// device, which replays recorded outcomes. Simulation output is
// byte-identical across both (E17 and TestChaosSoakFlowCache prove it);
// only wall clock moves. BENCH_PR7.md records the measured table.
func BenchmarkSteadyStatePipeline(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchSteadyState(b, false) })
	b.Run("cache", func(b *testing.B) { benchSteadyState(b, true) })
}

// BenchmarkVerifier measures FlexBPF verification of a mid-size program.
func BenchmarkVerifier(b *testing.B) {
	prog := Firewall("fw", 64, 1024, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(prog); err != nil {
			b.Fatal(err)
		}
	}
}
