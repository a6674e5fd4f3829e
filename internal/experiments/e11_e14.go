package experiments

import (
	"context"
	"fmt"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/compiler"
	"flexnet/internal/controller"
	"flexnet/internal/controller/cluster"
	"flexnet/internal/dataplane"
	"flexnet/internal/drpc"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
)

// migrationBed builds h1 — s1 — s2 — h2 with dRPC on both switches and a
// controller that deploys a heavy-hitter monitor on s1 as the app monURI
// (the deploy commits once the simulator runs, and panics if it fails).
func migrationBed(seed int64) (*fabric.Fabric, *controller.Controller, *netsim.Source) {
	f := fabric.New(seed)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	f.Connect("s2", "h2", netsim.DefaultLink())
	if _, err := f.EnableDRPC("s1", packet.IP(172, 16, 0, 1)); err != nil {
		panic(err)
	}
	if _, err := f.EnableDRPC("s2", packet.IP(172, 16, 0, 2)); err != nil {
		panic(err)
	}
	if err := f.InstallBaseRouting(); err != nil {
		panic(err)
	}
	ctl := controller.New(f)
	dp := &flexbpf.Datapath{Name: monURI, Segments: []*flexbpf.Program{apps.HeavyHitter("mon", 2, 512, 1<<62)}}
	ctl.Deploy(context.Background(), monURI, dp, controller.DeployOptions{Path: []string{"s1"}}, func(err error) {
		if err != nil {
			panic(err)
		}
	})
	src := h1.NewSource(netsim.FlowSpec{
		Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoTCP,
		SrcPort: 1111, DstPort: 80, PacketLen: 200,
	})
	return f, ctl, src
}

// monURI is the heavy-hitter app E11 migrates.
const monURI = "flexnet://infra/mon"

// E11StateMigration sweeps traffic rate and compares data-plane
// (packet-carried) migration against the control-plane copy baseline.
func E11StateMigration(seed int64) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Live state migration of a per-packet-mutating sketch",
		Claim:   "\"As the sketch state is updated for each packet, copying state via control plane software is impossible\" (§3.4)",
		Columns: []string{"traffic (pps)", "method", "migration time", "chunks", "updates during migration", "updates lost"},
	}
	for _, pps := range []float64{10000, 50000, 200000} {
		for _, dp := range []bool{false, true} {
			f, ctl, src := migrationBed(seed)
			src.StartCBR(pps)
			// The migration is one Controller.Migrate plan: install mon on
			// s2, then move its state; its time runs from submission to
			// the mover's Done.
			var started netsim.Time
			var rep plan.MoveReport
			f.Sim.At(50*time.Millisecond, func() {
				started = f.Sim.Now()
				ctl.Migrate(context.Background(), controller.MigrateRequest{URI: monURI, Segment: "mon", Dst: "s2", DataPlane: dp},
					func(r plan.MoveReport) { rep = r })
			})
			f.Sim.RunUntil(time.Second)
			src.Stop()
			f.Sim.RunFor(20 * time.Millisecond)
			if rep.Err != nil || rep.Done == 0 {
				panic(fmt.Sprintf("E11: migration did not complete: %v", rep.Err))
			}
			method := "control-plane copy"
			if dp {
				method = "data-plane (dRPC)"
			}
			t.Rows = append(t.Rows, []string{
				f2(pps), method, ns(uint64(rep.Done - started)),
				di(rep.ChunksSent), d(rep.UpdatesDuringMigration), d(rep.LostUpdates),
			})
		}
	}
	t.Finding = "control-plane copy loses exactly the updates that land during its snapshot window — loss grows linearly with traffic rate; packet-carried data-plane migration merges the residual delta and loses zero at every rate"
	return t
}

// E12FaultTolerance measures controller failover (the HA replica group)
// and data-path failover (replication + reroute).
func E12FaultTolerance(seed int64) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Fault tolerance: controller consensus failover and datapath reroute",
		Claim:   "\"Consensus, availability, and fault tolerance also need to be revisited for developing logically centralized but physically distributed controllers\" (§3.4)",
		Columns: []string{"scenario", "detection+recovery time", "state lost", "post-failure consistency"},
	}
	// Part 1: the replica group's active leader crashes; the recovery
	// time runs from the kill to the successor's activation.
	{
		const records = 30
		sim := netsim.New(seed)
		g := cluster.NewHA(sim, 5, cluster.HAConfig{Seed: seed})
		var killAt, recovered netsim.Time
		g.OnActivate = func(int, uint64) {
			if recovered == 0 {
				recovered = sim.Now() - killAt
			}
		}
		appendN := func(n int) {
			act := g.Active()
			if act == nil {
				panic("E12: no active replica to append through")
			}
			for range n {
				if err := g.Append(act.ID(), nil); err != nil {
					panic(err)
				}
			}
		}
		appendN(20)
		sim.RunFor(time.Second)
		dead := g.Active()
		killAt = sim.Now()
		dead.Kill()
		sim.RunFor(time.Second)
		appendN(records - 20)
		sim.RunFor(time.Second)
		consistent := "yes"
		lowest := g.LogLen()
		for i := 0; i < g.Size(); i++ {
			rep := g.Replica(i)
			if rep == dead {
				continue
			}
			lowest = min(lowest, rep.Known())
			if rep.Known() != g.LogLen() {
				consistent = "NO"
			}
		}
		t.Rows = append(t.Rows, []string{
			"controller leader crash (5 replicas)", ns(uint64(recovered)), di(records - int(lowest)), consistent,
		})
	}
	// Part 2: datapath failover — app replicated on two paths, primary
	// link dies, routing reroutes through the replica.
	{
		f := fabric.New(seed)
		f.AddSwitch("sA", dataplane.ArchDRMT)
		f.AddSwitch("sB", dataplane.ArchDRMT)
		h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
		f.AddHost("h2", packet.IP(10, 0, 0, 2))
		// Primary path h1—sA—h2; alternate via the replica switch sB.
		f.Connect("h1", "sA", netsim.DefaultLink())
		f.Connect("sA", "h2", netsim.DefaultLink())
		f.Connect("sA", "sB", netsim.DefaultLink())
		f.Connect("sB", "h2", netsim.DefaultLink())
		if err := f.InstallBaseRouting(); err != nil {
			panic(err)
		}
		// Defense replicated on both switches (state replication).
		for _, sw := range []string{"sA", "sB"} {
			if err := f.Device(sw).InstallProgram(apps.SYNDefense("def", 1024, 3)); err != nil {
				panic(err)
			}
		}
		src := h1.NewSource(netsim.FlowSpec{Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP, SrcPort: 1, DstPort: 2, PacketLen: 200})
		src.StartCBR(20000)
		f.Sim.RunUntil(500 * time.Millisecond)
		deliveredBefore := f.Host("h2").Received
		// The primary egress (sA—h2) dies; the controller detects the
		// failure and reroutes through the replica switch sB.
		failAt := f.Sim.Now()
		f.Net.LinkBetween("sA", "h2").SetDown(true)
		detect := 50 * time.Millisecond // failure-detection interval
		var recoveredAt netsim.Time
		f.Sim.After(detect, func() {
			if err := f.RefreshRoutes(); err != nil {
				panic(err)
			}
			recoveredAt = f.Sim.Now()
		})
		f.Sim.RunUntil(time.Second)
		src.Stop()
		f.Sim.RunFor(20 * time.Millisecond)
		lost := src.Sent - f.Host("h2").Received
		// Traffic resumed after reroute?
		resumed := f.Host("h2").Received > deliveredBefore
		consistency := "replica active, traffic resumed"
		if !resumed {
			consistency = "NO TRAFFIC AFTER FAILOVER"
		}
		t.Rows = append(t.Rows, []string{
			"ingress link failure (replicated app)",
			ns(uint64(recoveredAt - failAt)),
			di(int(lost)),
			consistency,
		})
	}
	t.Finding = "the replica group elects a serving successor within the election-timeout envelope and no replicated controller record is lost; with a replicated defense and reroute, the datapath loses only the packets in the detection window"
	return t
}

// E13Energy compares placement strategies under a diurnal load: the
// energy-aware compiler consolidates apps onto already-active devices
// off-peak.
func E13Energy(seed int64) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "Energy-aware placement via resource fungibility",
		Claim:   "\"By leveraging this fungibility layer, FlexNet is able to shuffle resources around and optimize for the current workload regarding network energy consumption\" (§3.3, [57])",
		Columns: []string{"strategy", "apps", "devices active", "static power (W)", "energy over period (J)"},
	}
	run := func(strategy int) (appsN, active int, watts, joules float64) {
		f := fabric.New(seed)
		for i := 0; i < 4; i++ {
			f.AddSwitch(fmt.Sprintf("sw%d", i), dataplane.ArchDRMT)
		}
		// Off-peak: only 3 small apps to place.
		progs := []string{"a", "b", "c"}
		var targets []*dataplane.Device
		var views []compiler.Target
		for i := 0; i < 4; i++ {
			dev := f.Device(fmt.Sprintf("sw%d", i))
			targets = append(targets, dev)
			views = append(views, compiler.NewDeviceTarget(dev))
		}
		energy := compiler.New(compiler.StrategyEnergy)
		place := func(i int, prog *flexbpf.Program) *dataplane.Device {
			if strategy == 0 { // spread: app i on switch i mod 4, no compiler
				return targets[i%len(targets)]
			}
			dp := &flexbpf.Datapath{Name: prog.Name, Segments: []*flexbpf.Program{prog}}
			plan, err := energy.Compile(dp, views, nil)
			if err != nil {
				panic(err)
			}
			return f.Device(plan.DeviceFor(prog.Name))
		}
		for i, p := range progs {
			prog := exactTableProgram(p, 1000)
			if err := place(i, prog).InstallProgram(prog); err != nil {
				panic(err)
			}
		}
		const hours = 1.0
		seconds := hours * 3600
		for _, dev := range targets {
			joules += dev.EnergyJoules(seconds)
			if len(dev.Programs()) > 0 {
				active++
				watts += dev.Energy().IdleWatts + dev.Energy().ActiveWatts
			} else {
				watts += dev.Energy().IdleWatts
			}
		}
		return len(progs), active, watts, joules
	}
	a1, act1, w1, j1 := run(0)
	a2, act2, w2, j2 := run(1)
	t.Rows = [][]string{
		{"spread (hand-placed)", di(a1), di(act1), f2(w1), f2(j1)},
		{"consolidate (energy-aware)", di(a2), di(act2), f2(w2), f2(j2)},
	}
	t.Finding = fmt.Sprintf("consolidating off-peak apps onto one device activates %d instead of %d devices, saving %.0f W of active power (%.1f%% of period energy) — idle devices could then be powered down entirely",
		act2, act1, w1-w2, 100*(j1-j2)/j1)
	return t
}

// E14DRPC compares control operations executed through data-plane RPC
// against the software-controller path.
func E14DRPC(seed int64) *Table {
	t := &Table{
		ID:      "E14",
		Title:   "Data-plane RPC vs controller-mediated control operations",
		Claim:   "\"network control operations are invoked by the control plane, but their execution may take place partially or entirely in the data plane\" (§3.4)",
		Columns: []string{"operation", "path", "latency", "messages"},
	}
	f := fabric.New(seed)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	f.AddHost("ctl", packet.IP(10, 0, 0, 100))
	f.Connect("ctl", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	r1, err := f.EnableDRPC("s1", packet.IP(172, 16, 0, 1))
	if err != nil {
		panic(err)
	}
	r2, err := f.EnableDRPC("s2", packet.IP(172, 16, 0, 2))
	if err != nil {
		panic(err)
	}
	rc, err := f.EnableHostDRPC("ctl")
	if err != nil {
		panic(err)
	}
	if err := f.InstallBaseRouting(); err != nil {
		panic(err)
	}
	r2.Register(drpc.ServicePing, drpc.PingHandler())
	r1.Register(drpc.ServicePing, drpc.PingHandler())

	measure := func(fn func(done func())) netsim.Time {
		start := f.Sim.Now()
		var end netsim.Time
		fn(func() { end = f.Sim.Now() })
		f.Sim.RunFor(100 * time.Millisecond)
		return end - start
	}

	// Device-to-device state read via dRPC (1 RTT s1↔s2).
	dpLat := measure(func(done func()) {
		r1.Call(r2.IP, drpc.ServicePing, 0, [3]uint64{1, 0, 0}, func(drpc.Message, bool) { done() })
	})
	// Controller-mediated: ctl asks s1, then ctl asks s2, then ctl tells
	// s1 (three software round trips).
	cpLat := measure(func(done func()) {
		rc.Call(r1.IP, drpc.ServicePing, 0, [3]uint64{1, 0, 0}, func(drpc.Message, bool) {
			rc.Call(r2.IP, drpc.ServicePing, 0, [3]uint64{2, 0, 0}, func(drpc.Message, bool) {
				rc.Call(r1.IP, drpc.ServicePing, 0, [3]uint64{3, 0, 0}, func(drpc.Message, bool) { done() })
			})
		})
	})
	t.Rows = [][]string{
		{"device→device state exchange", "dRPC (in-network)", ns(uint64(dpLat)), "2"},
		{"same, controller-mediated", "software controller", ns(uint64(cpLat)), "6"},
	}
	t.Finding = fmt.Sprintf("executing the exchange in the data plane takes %s vs %s through the controller (%.1fx) and third the messages — and E11 shows dRPC migration preserves per-packet state that the controller path cannot",
		ns(uint64(dpLat)), ns(uint64(cpLat)), float64(cpLat)/float64(dpLat))
	return t
}
