package main

import (
	"fmt"
	"runtime"
	"time"

	"flexnet"
	"flexnet/internal/dataplane"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/flowcache"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/telemetry"
)

// arrival is one of the workload's packets as it reaches one device on
// its path: the unit every per-packet data-plane probe works on, so
// "per packet" in the probe metrics means per packet per device.
type arrival struct {
	dev    *flexnet.Device
	insts  []*dataplane.ProgramInstance // the device's chain, in processing order
	tpl    *flexnet.Packet              // the packet as it arrives (never processed; cloned)
	inPort int
	flow   int
}

// buildPacket makes the flow's packet the way the simulator's Source does.
func buildPacket(f flowTuple, id uint64) *flexnet.Packet {
	if f.proto == packet.ProtoUDP {
		return packet.UDPPacket(id, f.src, f.dst, f.sport, f.dport, f.payload)
	}
	return packet.TCPPacket(id, f.src, f.dst, f.sport, f.dport, 0, f.payload)
}

// walkFlows sends one packet of every flow through the workload's live
// devices by hand (Device.Process and the topology's port map, outside
// the simulator) and records it on arrival at each device.
func walkFlows(r *dpRun) ([]arrival, error) {
	net := r.net.Fabric().Net
	var out []arrival
	for fi, f := range r.flows {
		pkt := buildPacket(f, uint64(fi))
		prev, cur := f.srcHost, net.Node(f.srcHost).Neighbors()[0]
		for hop := 0; ; hop++ {
			dev := r.net.Device(cur)
			if dev == nil {
				break // reached a host
			}
			if hop > 16 {
				return nil, fmt.Errorf("flow %d loops at %s", fi, cur)
			}
			a := arrival{dev: dev, tpl: pkt.Clone(), inPort: net.Node(cur).PortToward(prev), flow: fi}
			for _, name := range dev.Programs() {
				a.insts = append(a.insts, dev.Instance(name))
			}
			out = append(out, a)
			pkt.IngressPort = a.inPort
			if st := dev.Process(pkt); st.Verdict != packet.VerdictForward {
				return nil, fmt.Errorf("flow %d: %s at %s", fi, st.Verdict, cur)
			}
			prev, cur = cur, net.Node(cur).Neighbors()[pkt.EgressPort]
		}
		if r.net.Fabric().Host(cur) == nil || r.net.Fabric().Host(cur).IP != f.dst {
			return nil, fmt.Errorf("flow %d ended at %s, not at its destination", fi, cur)
		}
	}
	return out, nil
}

// clones returns fresh copies of every arrival's packet, repeated until
// there are at least min of them. Programs mutate packets (TTL, headers),
// so a probe never runs one packet twice.
func clones(arr []arrival, min int) (pkts []*flexnet.Packet, idx []int) {
	for len(pkts) < min {
		for i := range arr {
			p := arr[i].tpl.Clone()
			p.IngressPort = arr[i].inPort
			pkts = append(pkts, p)
			idx = append(idx, i)
		}
	}
	return pkts, idx
}

const probeIters = 10_000

// probeDataPlane times each data-plane layer's public entry point on
// the workload's own programs and packets, after the run has been
// checked (the probes disturb device counters and program state).
func probeDataPlane(rep *report, tr *tracer, r *dpRun, c dpCounts) {
	root := tr.begin("probes", -1, 0)
	defer func() { tr.end(root, 0) }()
	arr, err := walkFlows(r)
	if err != nil || len(arr) == 0 {
		rep.failf("data-plane probe: walk: %v", err)
		return
	}
	// packet: build, flow key, wire round trip.
	d, allocs := probe(tr, root, "packet.Build", probeIters, nil, func(i int) { buildPacket(r.flows[i%len(r.flows)], uint64(i)) })
	rep.set("packet.build_ns", d)
	rep.set("packet.build_allocs", allocs)
	d, _ = probe(tr, root, "packet.FlowKey", probeIters, nil, func(i int) { arr[i%len(arr)].tpl.FlowKey() })
	rep.set("packet.flowkey_ns", d)
	graph := packet.StandardParseGraph()
	d, allocs = probe(tr, root, "packet.Marshal+Parse", probeIters, nil, func(i int) {
		raw, err := packet.Marshal(arr[i%len(arr)].tpl)
		if err == nil {
			err = graph.Parse(raw, packet.New(uint64(i)))
		}
		if err != nil {
			rep.failf("data-plane probe: wire round trip: %v", err)
		}
	})
	rep.set("packet.parse_ns", d)
	rep.set("packet.parse_allocs", allocs)

	procNS := probeDevicePath(rep, tr, root, arr)

	// Tables: the workload's own LPM routing table and a 10k-entry exact one.
	route := arr[0].dev.Instance(fabric.InfraProgramName).Table(fabric.RouteTableName)
	keys := []uint64{0}
	d, _ = probe(tr, root, "flexbpf.TableInstance.Lookup.lpm", probeIters, nil, func(i int) {
		keys[0] = uint64(r.flows[i%len(r.flows)].dst)
		if _, _, hit := route.Lookup(keys); !hit {
			rep.failf("data-plane probe: no route for flow %d", i%len(r.flows))
		}
	})
	rep.set("flexbpf.table_lpm_ns", d)
	exact := flexbpf.NewTableInstance(&flexbpf.TableSpec{
		Name: "exact", Size: 1 << 16,
		Keys: []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
	})
	for i := 0; i < 10_000; i++ {
		if err := exact.Insert(flexbpf.ExactEntry("a", nil, uint64(i))); err != nil {
			rep.failf("data-plane probe: exact insert: %v", err)
			return
		}
	}
	d, _ = probe(tr, root, "flexbpf.TableInstance.Lookup.exact", probeIters, nil, func(i int) {
		keys[0] = uint64(i % 10_000)
		exact.Lookup(keys)
	})
	rep.set("flexbpf.table_exact_ns", d)

	probeFlowCache(rep, tr, root, arr)
	eventNS := probeNetsim(rep, tr, root, r)
	probeTelemetry(rep, tr, root, arr[0])

	// The residual row of the budget: what a hop costs beyond the device
	// and the events it schedules (link model, deliver, closures).
	hopNS := rep.Values["fabric.hop_ns_per_pkt"]
	eventsPerHop := ratio(float64(c.stats["fabric.batch.events"]), float64(c.hops))
	rep.set("fabric.self_ns_per_hop", hopNS-procNS-eventNS*eventsPerHop)
}

// probeDevicePath times the three nested layers of one device visit on
// the same packets, back to back in every repeat, so that drift between
// repeats cancels in the difference: the parser check, the installed
// programs in chain order until one decides the packet, and the whole of
// Device.ProcessCtx, which contains both (one packet at a time, outside
// the simulator's batch mode). It returns the ProcessCtx time.
func probeDevicePath(rep *report, tr *tracer, root int, arr []arrival) float64 {
	ectx := flexbpf.NewExecContext()
	var check, run, proc, self []float64
	var instrs, lookups, ran int
	var mallocs uint64
	for r := 0; r < probeReps; r++ {
		forRun, idx := clones(arr, probeIters)
		forProc, _ := clones(arr, probeIters)
		n := float64(len(forRun))
		ran += len(forRun)
		runtime.GC()
		c := once(tr, root, "packet.ParseGraph.CheckFields", func() {
			for _, i := range idx {
				if err := arr[i].dev.Parser().CheckFields(arr[i].tpl); err != nil {
					rep.failf("data-plane probe: CheckFields: %v", err)
					return
				}
			}
		}) / n
		x := once(tr, root, "flexbpf.LinkedProgram.Run", func() {
			for j, p := range forRun {
				for _, inst := range arr[idx[j]].insts {
					res, err := inst.Linked().Run(p, inst, ectx)
					instrs, lookups = instrs+res.Instrs, lookups+res.Lookups
					if err != nil {
						rep.failf("data-plane probe: run %s: %v", inst.Program().Name, err)
						return
					}
					if res.Verdict != packet.VerdictContinue {
						break
					}
				}
			}
		}) / n
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p := once(tr, root, "dataplane.Device.ProcessCtx", func() {
			for j, pkt := range forProc {
				arr[idx[j]].dev.ProcessCtx(pkt, ectx)
			}
		}) / n
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		check, run, proc, self = append(check, c), append(run, x), append(proc, p), append(self, p-x-c)
	}
	rep.set("packet.checkfields_ns", median(check))
	rep.set("flexbpf.run_ns_per_pkt", median(run))
	rep.set("flexbpf.instrs_per_pkt", float64(instrs)/float64(ran))
	rep.set("flexbpf.lookups_per_pkt", float64(lookups)/float64(ran))
	rep.set("flexbpf.ns_per_instr", ratio(median(run)*float64(ran), float64(instrs)))
	rep.set("dataplane.process_ns_per_pkt", median(proc))
	rep.set("dataplane.process_allocs_per_pkt", float64(mallocs)/float64(ran))
	rep.set("dataplane.self_ns_per_pkt", median(self))
	return median(proc)
}

// probeFlowCache times a cache lookup and a replay on entries recorded
// from the workload's own packets. It runs whether or not the cache is
// on by default, so its cost is known before anyone turns it on.
func probeFlowCache(rep *report, tr *tracer, root int, arr []arrival) {
	const epoch = 1
	caches := map[*flexnet.Device]*flowcache.Cache{} // one per device, as in the program
	depNames := []string{"eth.type", "ipv4.src", "ipv4.dst", "ipv4.proto", "ipv4.ttl", "tcp.sport", "tcp.dport", "udp.sport", "udp.dport", "meta.ingress"}
	ttl := packet.InternField("ipv4.ttl")
	for i := range arr {
		a := &arr[i]
		e := &flowcache.Entry{Epoch: epoch, Headers: a.tpl.Headers, Verdict: packet.VerdictForward, Egress: 1, Instrs: 8, Lookups: 1}
		for _, name := range depNames {
			fid := packet.InternField(name)
			v, ok := a.tpl.FieldOKByID(fid)
			e.Pre = append(e.Pre, flowcache.FieldVal{FID: fid, Val: v, Present: ok})
		}
		e.Post = []flowcache.FieldVal{{FID: ttl, Val: a.tpl.FieldByID(ttl) - 1, Present: true}}
		if caches[a.dev] == nil {
			caches[a.dev] = flowcache.New(epoch)
		}
		caches[a.dev].Insert(a.tpl.FlowKey(), e)
	}
	var pkts []*flexnet.Packet
	var idx []int
	fresh := func() { pkts, idx = clones(arr, probeIters) }
	fresh()
	entries := make([]*flowcache.Entry, len(pkts))
	misses := 0
	d, _ := probe(tr, root, "flowcache.Cache.Lookup", len(pkts), nil, func(i int) {
		var hit bool
		if entries[i], hit = caches[arr[idx[i]].dev].Lookup(pkts[i].FlowKey(), epoch, pkts[i]); !hit {
			misses++
		}
	})
	if misses != 0 {
		rep.failf("data-plane probe: the flow cache missed %d of %d packets it holds entries for", misses, len(pkts))
		entries = nil
	}
	rep.set("flowcache.lookup_ns", d)
	d, _ = probe(tr, root, "flowcache.Entry.Replay", len(entries), fresh, func(i int) { entries[i].Replay(pkts[i]) })
	rep.set("flowcache.replay_ns", d)
}

// probeNetsim times the simulator alone: scheduling and running no-op
// events, and a Source emitting the workload's first flow into a sink
// that does nothing. It returns the cost of one event.
func probeNetsim(rep *report, tr *tracer, root int, r *dpRun) float64 {
	const events = 100_000
	sim := netsim.New(1)
	var fired int
	// Events are scheduled and run a few hundred at a time, so the queue
	// is as deep as a workload's, not as deep as the probe is long.
	const depth = 250
	d, allocs := probe(tr, root, "netsim.Sim.At+RunFor", events/depth, nil, func(int) {
		for i := 1; i <= depth; i++ {
			sim.After(netsim.Time(i), func() { fired++ })
		}
		sim.RunFor(depth)
	})
	d, allocs = d/depth, allocs/depth
	if fired != events*probeReps {
		rep.failf("data-plane probe: %d of %d events fired", fired, events)
	}
	eventNS := d
	rep.set("netsim.event_ns", eventNS)
	rep.set("netsim.event_allocs", allocs)

	f := r.flows[0]
	var seq uint64
	var got int
	src := netsim.NewSource(sim, netsim.FlowSpec{Src: f.src, Dst: f.dst, SrcPort: f.sport, DstPort: f.dport, Proto: f.proto, PacketLen: f.payload},
		&seq, func(*packet.Packet) { got++ })
	src.StartCBR(1e6)
	d, _ = probe(tr, root, "netsim.Source", 1, nil, func(int) { sim.RunFor(10 * time.Millisecond) })
	src.Stop()
	rep.set("netsim.source_ns_per_pkt", ratio(d*probeReps, float64(got)))
	return eventNS
}

// probeTelemetry processes the same packets on two stand-alone routing
// devices, one with a metrics registry wired and one without, in
// alternation; the median difference is what watching costs a packet.
func probeTelemetry(rep *report, tr *tracer, root int, a arrival) {
	var devs [2]*dataplane.Device
	for i := range devs {
		dev := dataplane.MustNew(dataplane.DefaultConfig("probe", a.dev.Arch()))
		if i == 1 {
			dev.SetMetrics(telemetry.NewRegistry())
		}
		if err := dev.InstallProgram(fabric.InfraRoutingProgram()); err != nil {
			rep.failf("data-plane probe: telemetry device: %v", err)
			return
		}
		dst := uint64(a.tpl.Field("ipv4.dst"))
		if err := dev.Instance(fabric.InfraProgramName).Table(fabric.RouteTableName).Insert(flexbpf.LPMEntry("route", []uint64{1}, dst, 32)); err != nil {
			rep.failf("data-plane probe: telemetry route: %v", err)
			return
		}
		devs[i] = dev
	}
	// Many short alternations, so that a burst of noise lands on both
	// devices alike and cancels in the difference.
	const block, pairs = 1000, 41
	var diffs []float64
	for r := 0; r < pairs; r++ {
		var ns [2]float64
		for i, dev := range devs {
			pkts, _ := clones([]arrival{a}, block)
			ns[i] = once(tr, root, fmt.Sprintf("dataplane.Device.ProcessCtx.metrics=%v", i == 1), func() {
				for _, p := range pkts {
					dev.ProcessCtx(p, nil)
				}
			}) / float64(len(pkts))
		}
		diffs = append(diffs, ns[1]-ns[0])
	}
	rep.set("telemetry.overhead_ns_per_pkt", median(diffs))
}
