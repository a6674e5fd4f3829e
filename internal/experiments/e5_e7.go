package experiments

import (
	"context"
	"fmt"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/controller"
	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
	"flexnet/internal/transport"
)

// E5SecurityElastic runs the real-time security use case: a SYN-flood
// whose intensity follows a sine wave; the controller detects it from
// victim-side arrival rate, summons the defense to the ingress switch at
// runtime, and retires it when the attack subsides.
func E5SecurityElastic(seed int64) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Real-time security: defense summoned and retired with attack",
		Claim:   "\"Runtime programmable defenses can be summoned into the network on-the-fly and retired when attacks subside\" (§1.1)",
		Columns: []string{"policy", "attack SYNs", "SYNs reaching victim", "blocked %", "time-to-mitigation", "defense uptime %"},
	}
	const (
		horizon    = 6 * time.Second
		peakPPS    = 30000
		detectHi   = 2000.0 // victim SYN/s to trigger deployment
		detectLo   = 200.0
		sampleTick = 50 * time.Millisecond
	)

	type outcome struct {
		attackSent, victimSYNs uint64
		mitigatedAt            netsim.Time
		uptime                 netsim.Time
	}
	run := func(policy string) outcome {
		f := fabric.New(seed)
		f.AddSwitch("ingress", dataplane.ArchDRMT)
		f.AddSwitch("core", dataplane.ArchDRMT)
		atk := f.AddHost("attacker", packet.IP(66, 0, 0, 1))
		f.AddHost("victim", packet.IP(10, 0, 0, 9))
		f.Connect("attacker", "ingress", netsim.DefaultLink())
		f.Connect("ingress", "core", netsim.DefaultLink())
		f.Connect("core", "victim", netsim.DefaultLink())
		if err := f.InstallBaseRouting(); err != nil {
			panic(err)
		}
		x := newExecutor(f)

		var o outcome
		// Victim-side SYN rate sensing.
		var synArrivals uint64
		f.Host("victim").Recv = func(p *packet.Packet) {
			if p.Has("tcp") && p.Field("tcp.flags")&packet.TCPSyn != 0 {
				synArrivals++
				o.victimSYNs++
			}
		}

		defense := func() *flexbpf.Program { return apps.SYNDefense("def", 4096, 3) }
		deployed := false
		deployedAt := netsim.Time(0)
		switch policy {
		case "static-always-on":
			if err := f.Device("ingress").InstallProgram(defense()); err != nil {
				panic(err)
			}
			deployed = true
			deployedAt = 0
			o.mitigatedAt = 0
		case "none":
		case "elastic":
		}

		// Attack: sine between 0 and peak, period 3 s → two bursts.
		src := atk.NewSource(netsim.FlowSpec{
			Dst: packet.IP(10, 0, 0, 9), Proto: packet.ProtoTCP,
			SrcPort: 6666, DstPort: 80, PacketLen: 40,
		})
		wave := netsim.NewSineRate(src, 0, peakPPS, 3*time.Second, 10*time.Millisecond)
		wave.Start()

		if policy == "elastic" {
			// Offered-rate sensing: victim arrivals plus defense drops
			// (a working defense erases the victim-side signal).
			var lastWindow, lastDrops uint64
			f.Sim.Every(sampleTick, func() {
				drops := uint64(0)
				if inst := f.Device("ingress").Instance("def"); inst != nil {
					drops = inst.Store().Counter("def_dropped").Value(0)
				}
				rate := float64((synArrivals-lastWindow)+(drops-lastDrops)) / sampleTick.Seconds()
				lastWindow = synArrivals
				lastDrops = drops
				switch {
				case !deployed && rate > detectHi:
					deployed = true
					deployedAt = f.Sim.Now()
					x.Execute(installPlan("ingress", defense()), func(r *plan.Report) {
						if r.Err == nil && o.mitigatedAt == 0 {
							o.mitigatedAt = f.Sim.Now()
						}
					})
				case deployed && rate < detectLo && f.Sim.Now()-deployedAt > 200*time.Millisecond:
					deployed = false
					lastDrops = 0
					o.uptime += f.Sim.Now() - deployedAt
					x.Execute(plan.New("remove def").Remove("ingress", "def"), nil)
				}
			})
		}
		f.Sim.RunUntil(horizon)
		wave.Stop()
		f.Sim.RunFor(20 * time.Millisecond)
		if deployed {
			o.uptime += f.Sim.Now() - deployedAt
		}
		if o.uptime > horizon {
			o.uptime = horizon
		}
		o.attackSent = src.Sent
		return o
	}

	mk := func(name string, o outcome) []string {
		blocked := 100 * (1 - float64(o.victimSYNs)/float64(o.attackSent))
		mit := "-"
		if o.mitigatedAt > 0 {
			mit = ns(uint64(o.mitigatedAt - 100*time.Millisecond)) // first burst ramp starts ~0; report absolute
			mit = ns(uint64(o.mitigatedAt))
		} else if name == "static-always-on" {
			mit = "0 (pre-provisioned)"
		}
		uptimePct := 100 * float64(o.uptime) / float64(6*time.Second)
		return []string{name, d(o.attackSent), d(o.victimSYNs), f2(blocked), mit, f2(uptimePct)}
	}
	noDef := run("none")
	static := run("static-always-on")
	elastic := run("elastic")
	t.Rows = [][]string{mk("no defense", noDef), mk("static-always-on", static), mk("elastic (FlexNet)", elastic)}
	t.Finding = fmt.Sprintf(
		"elastic defense blocks %.1f%% of attack SYNs (static blocks %.1f%%) while occupying the switch only %.0f%% of the time; mitigation begins %s after the attack crosses the detection threshold",
		100*(1-float64(elastic.victimSYNs)/float64(elastic.attackSent)),
		100*(1-float64(static.victimSYNs)/float64(static.attackSent)),
		100*float64(elastic.uptime)/float64(6*time.Second),
		ns(uint64(elastic.mitigatedAt)))
	return t
}

// E6CCSwap performs the live-infrastructure-customization experiment:
// an incast workload starts under Reno, and at mid-run every host swaps
// to DCTCP at runtime (with ECN enabled at the bottleneck).
func E6CCSwap(seed int64) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Live CC algorithm swap across hosts",
		Claim:   "\"FlexNet enables quick, incremental upgrades of the end-to-end infrastructure at runtime\" — transport/CC example (§1.1)",
		Columns: []string{"phase", "CC", "mean RTT", "p-est queue delay", "timeouts"},
	}
	const nSenders = 4
	f := fabric.New(seed)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	edge := netsim.LinkParams{BandwidthBps: 10_000_000_000, Delay: 2 * time.Microsecond, QueueBytes: 1 << 20}
	bottleneck := netsim.LinkParams{BandwidthBps: 1_000_000_000, Delay: 10 * time.Microsecond, QueueBytes: 256 << 10}
	var eps []*transport.Endpoint
	for i := 0; i < nSenders; i++ {
		name := fmt.Sprintf("h%d", i+1)
		h := f.AddHost(name, packet.IP(10, 0, 1, byte(i+1)))
		f.Connect(name, "s1", edge)
		eps = append(eps, transport.NewEndpoint(h))
	}
	recv := f.AddHost("r", packet.IP(10, 0, 2, 1))
	transport.NewEndpoint(recv) // the receiver must ACK
	f.Connect("s1", "s2", bottleneck)
	f.Connect("s2", "r", edge)
	f.Net.LinkBetween("s1", "s2").ECNThresholdBytes = 30 << 10
	if err := f.InstallBaseRouting(); err != nil {
		panic(err)
	}

	var flows []*transport.Flow
	for i, ep := range eps {
		fl, err := ep.NewFlow(packet.IP(10, 0, 2, 1), uint16(5000+i), 80, transport.Reno{})
		if err != nil {
			panic(err)
		}
		fl.Total = 0
		fl.Start(nil)
		flows = append(flows, fl)
	}

	phase := func() (rtt float64, timeouts uint64) {
		var sum, n float64
		var to uint64
		for _, fl := range flows {
			st := fl.Stats()
			sum += float64(st.MeanRTTNs())
			n++
			to += st.Timeouts
		}
		return sum / n, to
	}
	// Phase 1: Reno for 2 s.
	f.Sim.RunUntil(2 * time.Second)
	renoRTT, renoTO := phase()
	baseRTT := flows[0].Stats().MinRTTNs

	// Live swap (resetting stats windows by deltas: recompute from new
	// samples only is complex; run a fresh measurement window by reading
	// deltas of sums — simpler: snapshot and subtract).
	type snap struct{ sum, cnt, to uint64 }
	var before []snap
	for _, fl := range flows {
		st := fl.Stats()
		before = append(before, snap{st.SumRTTNs, st.RTTSamples, st.Timeouts})
		fl.SwapCC(transport.DCTCP{})
	}
	f.Sim.RunUntil(4 * time.Second)
	var sum2, n2 float64
	var to2 uint64
	for i, fl := range flows {
		st := fl.Stats()
		ds := st.SumRTTNs - before[i].sum
		dc := st.RTTSamples - before[i].cnt
		if dc > 0 {
			sum2 += float64(ds / dc)
			n2++
		}
		to2 += st.Timeouts - before[i].to
	}
	dctcpRTT := sum2 / n2

	t.Rows = [][]string{
		{"0-2s", "reno", ns(uint64(renoRTT)), ns(uint64(renoRTT - float64(baseRTT))), d(renoTO)},
		{"2-4s (after live swap)", "dctcp", ns(uint64(dctcpRTT)), ns(uint64(dctcpRTT - float64(baseRTT))), d(to2)},
	}
	t.Finding = fmt.Sprintf("swapping Reno→DCTCP at runtime cuts mean RTT from %s to %s (%.1fx queue-delay reduction) without restarting flows",
		ns(uint64(renoRTT)), ns(uint64(dctcpRTT)), (renoRTT-float64(baseRTT))/(dctcpRTT-float64(baseRTT)))
	for _, fl := range flows {
		fl.Stop()
	}
	return t
}

// E7TenantChurn runs the tenant-extension use case: tenants arrive and
// depart; FlexNet reclaims resources on departure while the static
// policy accumulates dead programs until placements fail.
func E7TenantChurn(seed int64) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Tenant churn: runtime reclamation vs static accumulation",
		Claim:   "\"Tenant departures trigger program removal to trim the network and release unused resources\" (§1.1)",
		Columns: []string{"policy", "arrivals", "deploy failures", "final SRAM util %", "final tenants"},
	}
	const (
		horizon   = 20 * time.Second
		interTime = 250 * time.Millisecond
		lifetime  = 2 * time.Second
	)
	run := func(reclaim bool) (arrivals, failures int, util float64, live int) {
		f := fabric.New(seed)
		f.AddSwitch("sw", dataplane.ArchDRMT)
		f.AddHost("h1", packet.IP(10, 0, 0, 1))
		f.AddHost("h2", packet.IP(10, 0, 0, 2))
		f.Connect("h1", "sw", netsim.DefaultLink())
		f.Connect("sw", "h2", netsim.DefaultLink())
		if err := f.InstallBaseRouting(); err != nil {
			panic(err)
		}
		ctl := controller.New(f)
		liveTenants := map[string]bool{}
		id := 0
		var schedule func()
		schedule = func() {
			gap := netsim.Time(float64(interTime) * (0.5 + f.Sim.Rand().Float64()))
			f.Sim.After(gap, func() {
				if f.Sim.Now() > horizon-2*time.Second {
					return
				}
				id++
				arrivals++
				name := fmt.Sprintf("t%03d", id)
				if _, err := ctl.AddTenant(name); err != nil {
					failures++
					schedule()
					return
				}
				uri := "flexnet://" + name + "/app"
				dp := &flexbpf.Datapath{Name: uri, Segments: []*flexbpf.Program{
					apps.SYNDefense("sd_"+name, 512, 5),
				}}
				ctl.Deploy(context.Background(), uri, dp, controller.DeployOptions{Tenant: name, Path: []string{"sw"}}, func(err error) {
					if err != nil {
						failures++
						return
					}
					liveTenants[name] = true
					// Departure after an exponential lifetime.
					life := netsim.Time(f.Sim.Rand().ExpFloat64() * float64(lifetime))
					f.Sim.After(life, func() {
						delete(liveTenants, name)
						if reclaim {
							ctl.RemoveTenant(context.Background(), name, func(error) {})
						}
						// Static policy: tenant gone but program stays.
					})
				})
				schedule()
			})
		}
		schedule()
		f.Sim.RunUntil(horizon)
		u := f.Device("sw").Utilization()
		return arrivals, failures, 100 * u["sram"], len(liveTenants)
	}
	a1, f1, u1, l1 := run(true)
	a2, f2v, u2, l2 := run(false)
	t.Rows = [][]string{
		{"FlexNet (reclaim on departure)", di(a1), di(f1), f2(u1), di(l1)},
		{"static (never remove)", di(a2), di(f2v), f2(u2), di(l2)},
	}
	t.Finding = fmt.Sprintf("with reclamation %d/%d tenant deployments fail and steady-state utilization tracks live tenants (%.0f%%); without it dead programs accumulate to %.0f%% utilization and %d deployments fail",
		f1, a1, u1, u2, f2v)
	return t
}
