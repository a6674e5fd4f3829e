package experiments

import (
	"fmt"
	"sort"

	"flexnet/internal/compiler"
	"flexnet/internal/dataplane"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

// exactTableProgram builds a single-exact-table program with the given
// entry capacity (placement workload unit).
func exactTableProgram(name string, entries int) *flexbpf.Program {
	act := flexbpf.NewAsm().LdParam(0, 0).Forward(0).MustBuild()
	return flexbpf.NewProgram(name).
		Action(name+"_fwd", 1, act).
		Table(&flexbpf.TableSpec{
			Name:    name + "_t",
			Keys:    []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions: []string{name + "_fwd"},
			Size:    entries,
		}).
		Apply(name + "_t").
		MustBuild()
}

// E8FungibleCompile sweeps offered program load against devices that are
// partially filled with *removable* programs, comparing the bin-packing
// baseline with the fungible compiler (one garbage-collection round).
func E8FungibleCompile(seed int64) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Fungible compilation vs bin-packing under load",
		Claim:   "\"since a runtime programmable network can dynamically remove unused functions, device resources become fungible ... the compiler recursively invokes optimization primitives ... before attempting another round of compilation\" (§3.3)",
		Columns: []string{"offered load (x capacity)", "binpack success %", "fungible success %", "fungible iterations", "reclaims"},
	}
	// Each trial: a DRMT device 70% filled with stale (removable) apps,
	// then a stream of new programs sized to an offered-load fraction.
	const trials = 20
	for _, load := range []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2} {
		var okBin, okFun, iters, reclaims int
		for trial := 0; trial < trials; trial++ {
			mk := func() (*dataplane.Device, []*compiler.DeviceTarget) {
				dev := dataplane.MustNew(dataplane.DefaultConfig("sw", dataplane.ArchDRMT))
				tgt := compiler.NewDeviceTarget(dev)
				// Fill ~70% of SRAM with stale programs.
				total := dev.Capacity().SRAMBits
				per := total / 10
				for i := 0; i < 7; i++ {
					name := fmt.Sprintf("stale%d", i)
					p := exactTableProgram(name, per/96)
					if err := dev.InstallProgram(p); err != nil {
						panic(err)
					}
					if err := tgt.MarkRemovable(name); err != nil {
						panic(err)
					}
				}
				return dev, []*compiler.DeviceTarget{tgt}
			}
			// New program sized to `load` of remaining capacity... offered
			// load is relative to TOTAL capacity.
			devB, tgtB := mk()
			size := int(load * float64(devB.Capacity().SRAMBits) / 96)
			if size < 1 {
				size = 1
			}
			newApp := func(n string) *flexbpf.Datapath {
				return &flexbpf.Datapath{Name: n, Segments: []*flexbpf.Program{exactTableProgram(n, size)}}
			}
			if _, err := compiler.New(compiler.StrategyBinPack).Compile(newApp(fmt.Sprintf("b%d", trial)), []compiler.Target{tgtB[0]}, nil); err == nil {
				okBin++
			}
			_, tgtF := mk()
			plan, err := compiler.New(compiler.StrategyFungible).Compile(newApp(fmt.Sprintf("f%d", trial)), []compiler.Target{tgtF[0]}, nil)
			if err == nil {
				okFun++
				iters += plan.Iterations
				reclaims += len(plan.Reclaims)
			}
		}
		t.Rows = append(t.Rows, []string{
			f2(load),
			f2(100 * float64(okBin) / trials),
			f2(100 * float64(okFun) / trials),
			f2(float64(iters) / float64(maxi(okFun, 1))),
			f2(float64(reclaims) / float64(maxi(okFun, 1))),
		})
	}
	t.Finding = "bin-packing fails as soon as offered programs exceed the ~30% free space; the fungible compiler garbage-collects removable programs and keeps succeeding up to full device capacity"
	return t
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// E9Incremental compares incremental recompilation against full
// recompilation as the change size grows.
func E9Incremental(seed int64) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Incremental recompilation: moved segments and migrated entries",
		Claim:   "\"FlexNet ... needs to minimize the amount of resource reshuffling by identifying 'maximally adjacent reconfigurations' that lead to non-intrusive redistribution\" (§3.3)",
		Columns: []string{"change (added segments)", "incremental moves", "incremental entries migrated", "full-recompile moves", "full entries migrated"},
	}
	const baseSegs = 8
	// Small devices force placements to spread: each holds ~10 base-size
	// segments worth of SRAM, so reshuffles are visible.
	mkTargets := func() []compiler.Target {
		var out []compiler.Target
		for i := 0; i < 4; i++ {
			cfg := dataplane.DefaultConfig(fmt.Sprintf("sw%d", i), dataplane.ArchDRMT)
			cfg.PoolSRAMBits = 2 << 20
			dev := dataplane.MustNew(cfg)
			out = append(out, compiler.NewDeviceTarget(dev))
		}
		return out
	}
	baseDP := func() *flexbpf.Datapath {
		dp := &flexbpf.Datapath{Name: "base"}
		for i := 0; i < baseSegs; i++ {
			dp.Segments = append(dp.Segments, exactTableProgram(fmt.Sprintf("seg%02d", i), 2000))
		}
		return dp
	}
	for _, added := range []int{1, 2, 4, 8} {
		targets := mkTargets()
		c := compiler.New(compiler.StrategyFungible)
		old := baseDP()
		plan, err := c.Compile(old, targets, nil)
		if err != nil {
			panic(err)
		}
		// Reserve the placements on the devices so Free() reflects them.
		for _, a := range plan.Assignments {
			for _, tg := range targets {
				if tg.Name() == a.Device {
					dt := tg.(*compiler.DeviceTarget)
					if err := dt.Dev.InstallProgram(old.Segment(a.Segment)); err != nil {
						panic(err)
					}
				}
			}
		}
		// New segments are larger than existing ones (monitoring tables
		// grow), the common case where naive recompilation reshuffles.
		new := baseDP()
		for i := 0; i < added; i++ {
			new.Segments = append(new.Segments, exactTableProgram(fmt.Sprintf("new%02d", i), 6000))
		}
		inc, err := c.Recompile(plan, old, new, targets, nil)
		if err != nil {
			panic(err)
		}
		// Full-recompile baseline: a from-scratch compiler is free to
		// rearrange everything and, like real pipeline compilers, places
		// big elements first (first-fit decreasing) — so previously
		// placed segments land elsewhere and their entries must migrate.
		ffd := new.Clone()
		sortSegmentsByDemandDesc(ffd)
		fullPlan, err := c.Compile(ffd, mkTargets(), nil)
		if err != nil {
			panic(err)
		}
		fullMoves, fullEntries := 0, 0
		for _, a := range fullPlan.Assignments {
			prev := plan.DeviceFor(a.Segment)
			if prev != "" && prev != a.Device {
				fullMoves++
				fullEntries += entryCount(new, a.Segment)
			}
		}
		t.Rows = append(t.Rows, []string{
			di(added), di(inc.Moves), di(inc.EntriesMigrated), di(fullMoves), di(fullEntries),
		})
	}
	t.Finding = "incremental recompilation adds segments without moving any placed segment (0 moves, 0 migrated entries); full recompilation reshuffles previously-placed segments and would migrate their entries"
	return t
}

// E10TableMerge quantifies the table-merge optimization: memory cost
// (cross product, paid in TCAM) vs per-packet lookup/latency savings.
func E10TableMerge(seed int64) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Table merging: memory cross-product vs lookup savings",
		Claim:   "\"Merging two match/action tables ... will lead to increased memory usage due to a table 'cross product', but it saves one table lookup time and reduces latency\" (§3.3)",
		Columns: []string{"t1×t2 sizes", "mem before (bits)", "mem after (bits)", "mem factor", "lookups/pkt before", "after", "latency saved/pkt"},
	}
	for _, sz := range [][2]int{{4, 16}, {8, 64}, {16, 256}, {32, 1024}} {
		prog := qosRouteProgram(sz[0], sz[1])
		dev := dataplane.MustNew(dataplane.DefaultConfig("sw", dataplane.ArchDRMT))
		if err := dev.InstallProgram(prog.Clone()); err != nil {
			panic(err)
		}
		p := packet.TCPPacket(1, 1, packet.IP(10, 0, 0, 2), 1, 80, 0, 0)
		before := dev.Process(p.Clone())

		m, err := compiler.MergeTables(prog, "qos", "route", dev.Perf().PerLookupNs)
		if err != nil {
			panic(err)
		}
		dev2 := dataplane.MustNew(dataplane.DefaultConfig("sw2", dataplane.ArchDRMT))
		if err := dev2.InstallProgram(m.Program); err != nil {
			panic(err)
		}
		after := dev2.Process(p.Clone())
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", sz[0], sz[1]),
			di(m.Stats.MemBeforeBits), di(m.Stats.MemAfterBits), f2(m.Stats.MemFactor),
			di(before.Lookups), di(after.Lookups), ns(m.Stats.LatencySavedNs),
		})
	}
	t.Finding = "merging always saves exactly one lookup per packet but memory grows multiplicatively with table sizes (and moves into TCAM); profitable only for small tables or latency-critical paths — matching the paper's framing of merge as a resource-for-latency trade"
	return t
}

// sortSegmentsByDemandDesc orders a datapath's segments by descending
// resource demand (the classical first-fit-decreasing compiler order).
func sortSegmentsByDemandDesc(dp *flexbpf.Datapath) {
	sort.SliceStable(dp.Segments, func(i, j int) bool {
		return flexbpf.ProgramDemand(dp.Segments[i]).SRAMBits > flexbpf.ProgramDemand(dp.Segments[j]).SRAMBits
	})
}

func entryCount(dp *flexbpf.Datapath, segment string) int {
	seg := dp.Segment(segment)
	if seg == nil {
		return 0
	}
	n := 0
	for _, t := range seg.Tables {
		n += t.Size
	}
	return n
}

func qosRouteProgram(qosSize, routeSize int) *flexbpf.Program {
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
			Size:          qosSize,
		}).
		Table(&flexbpf.TableSpec{
			Name:          "route",
			Keys:          []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions:       []string{"fwd"},
			DefaultAction: "skip",
			Size:          routeSize,
		}).
		Apply("qos").
		Apply("route").
		MustBuild()
}
