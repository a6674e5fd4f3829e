// Package fabric assembles simulated networks of runtime-programmable
// devices: it wires dataplane.Device instances into netsim topology
// nodes, provides hosts with IPs, and installs the base "infrastructure
// program" that implements routing as a FlexBPF LPM table — so even
// plain forwarding runs through the same runtime-reprogrammable machinery
// the paper describes (§3 scenario: "The network provider maintains an
// 'infrastructure' program, which implements basic functions for the
// network").
//
// DESIGN.md §2 (S16) places the fabric in the stack; §10.3 explains how routing behaves around crashed and restarted devices; §11 covers the incremental routing engine.
package fabric

import (
	"fmt"
	"runtime"
	"sort"

	"flexnet/internal/dataplane"
	"flexnet/internal/drpc"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/routing"
	"flexnet/internal/telemetry"
)

// InfraProgramName is the name of the base routing program installed on
// every switch.
const InfraProgramName = "infra.routing"

// RouteTableName is the LPM routing table within the infra program.
const RouteTableName = "ipv4_lpm"

// Host is an end host attached to the fabric.
type Host struct {
	Name string
	IP   uint32
	Node *netsim.Node
	// Recv is invoked for every packet delivered to this host.
	Recv func(*packet.Packet)
	// Received counts delivered packets.
	Received uint64
	fab      *Fabric
}

// Fabric is a simulated network of programmable devices and hosts.
type Fabric struct {
	Sim *netsim.Sim
	Net *netsim.Network

	// Metrics is the fabric-wide telemetry registry: every device
	// registers its instruments here at creation, and the control plane
	// (executor, controller, migrator) emits through it too.
	Metrics *telemetry.Registry
	// Tracer records plan-scoped execution traces on the simulated
	// clock, keyed by plan ID.
	Tracer *telemetry.Tracer

	switches map[string]*swtch
	hosts    map[string]*Host
	// devNames/hostNames cache the sorted name lists; membership only
	// grows, so they are maintained by sorted insertion on Add.
	devNames  []string
	hostNames []string
	// routers are per-device dRPC endpoints; routerIPs their control IPs.
	routers   map[string]*drpc.Router
	routerIPs map[string]uint32
	// seq issues unique packet IDs for all sources on this fabric.
	seq uint64

	// routing is the incremental route engine (DESIGN.md §11). It
	// mirrors the topology via the netsim event stream (linkID maps
	// links to mirror indices) and holds per-destination route state;
	// applied tracks, per device, the table instance the desired routes
	// were last written to — a pointer mismatch (crash + reinstall,
	// program swap) forces a full resync of that device.
	routing        *routing.Engine
	linkID         map[*netsim.Link]int
	applied        map[string]*flexbpf.TableInstance
	lastRouteStats routing.Stats
	routeConverges *telemetry.Counter
	routeDests     *telemetry.Counter
	routeEntries   *telemetry.Counter
	routeWrites    *telemetry.Counter

	// ContinueDrops counts packets that no program claimed (fell off the
	// end of the chain with VerdictContinue).
	ContinueDrops uint64
	// Punted receives packets sent to the controller.
	Punted func(dev string, pkt *packet.Packet)
	// recircLimit bounds recirculation loops.
	recircLimit int

	// events counts device visits, egress transmits and host deliveries.
	// It keeps the registry name fabric.batch.events, though nothing is
	// batched, because benchmark/ reads netsim.events_per_pkt and the
	// fabric.self_ns_per_hop budget row from it.
	events *telemetry.Counter
	// ectx is the FlexBPF execution context (scratch registers, key
	// buffer) every device visit on this fabric reuses.
	ectx *flexbpf.ExecContext

	// flowCache is false only on an oracle fabric (SetFlowCache): switches
	// added while it is false have their megaflow cache removed. The
	// cache never changes simulation output (DESIGN.md §12).
	flowCache bool
}

// New creates an empty fabric on a seeded simulator.
func New(seed int64) *Fabric {
	sim := netsim.New(seed)
	f := &Fabric{
		Sim:         sim,
		Net:         netsim.NewNetwork(sim),
		Metrics:     telemetry.NewRegistry(),
		Tracer:      telemetry.NewTracer(func() int64 { return int64(sim.Now()) }),
		switches:    map[string]*swtch{},
		hosts:       map[string]*Host{},
		routers:     map[string]*drpc.Router{},
		routerIPs:   map[string]uint32{},
		recircLimit: 4,
		routing:     routing.New(),
		linkID:      map[*netsim.Link]int{},
		applied:     map[string]*flexbpf.TableInstance{},
		flowCache:   true,
		ectx:        flexbpf.NewExecContext(),
	}
	f.events = f.Metrics.Counter("fabric.batch.events")
	f.routeConverges = f.Metrics.Counter("fabric.routes.converges")
	f.routeDests = f.Metrics.Counter("fabric.routes.recomputed_dests")
	f.routeEntries = f.Metrics.Counter("fabric.routes.recomputed_entries")
	f.routeWrites = f.Metrics.Counter("fabric.routes.delta_writes")
	f.Net.Subscribe(f.onTopoEvent)
	return f
}

// SetFlowCache(false) builds the differential oracle: switches added
// after the call run the linked pipeline for every packet, with no
// megaflow cache and no flowcache.* instruments. It is what tests, E17
// and the serial benchmarks compare the default fabric against, not a
// tuning flag: device-level processing output (verdicts,
// packet mutations, dev.* telemetry) is identical either way.
func (f *Fabric) SetFlowCache(v bool) { f.flowCache = v }

// Seq returns the shared packet-ID sequence pointer for traffic sources.
func (f *Fabric) Seq() *uint64 { return &f.seq }

// AddSwitch creates a device of the given architecture and attaches it to
// a new topology node.
func (f *Fabric) AddSwitch(name string, arch dataplane.Arch) *dataplane.Device {
	return f.AddSwitchCfg(dataplane.DefaultConfig(name, arch))
}

// AddSwitchCfg creates a device from an explicit config. When the config
// leaves Seed at zero, the device's random source is derived from the
// fabric simulator's seeded rng, so all per-device randomness descends
// from the single simulation seed and runs replay bit-for-bit.
func (f *Fabric) AddSwitchCfg(cfg dataplane.Config) *dataplane.Device {
	if cfg.Seed == 0 {
		cfg.Seed = f.Sim.Rand().Int63()
	}
	d := dataplane.MustNew(cfg)
	if !f.flowCache {
		d.DisableFlowCache()
	}
	d.SetClock(func() uint64 { return uint64(f.Sim.Now()) })
	d.SetMetrics(f.Metrics)
	node := f.Net.AddNode(cfg.Name)
	f.routing.MarkDevice(cfg.Name)
	sw := &swtch{Device: d}
	sw.transmit = func(pkt *packet.Packet, _ int) {
		f.events.Inc()
		node.Send(pkt, pkt.EgressPort)
	}
	sw.recirculate = func(pkt *packet.Packet, recirc int) {
		f.deviceVisit(sw, pkt, pkt.IngressPort, recirc)
	}
	f.switches[cfg.Name] = sw
	f.devNames = sortedInsert(f.devNames, cfg.Name)
	node.SetHandler(func(pkt *packet.Packet, inPort int) {
		f.deviceVisit(sw, pkt, inPort, 0)
	})
	return d
}

// swtch is a device with the handlers of the two events a visit to it
// can schedule. They are bound once, at AddSwitchCfg, and take the packet
// as their argument (netsim.Sim.AtPacket), so scheduling one allocates
// nothing; what varies per packet is read from the packet when the event
// fires.
type swtch struct {
	*dataplane.Device
	// transmit sends the packet out of its EgressPort.
	transmit netsim.Handler
	// recirculate revisits the device on the packet's IngressPort; its
	// int argument counts the recirculations so far.
	recirculate netsim.Handler
}

// deviceVisit is a packet's visit to a device: it runs the program
// chain and acts on the verdict. The egress transmit and a recirculation
// are events of their own, LatencyNs later even when that is 0: folding
// either into the visit would renumber the event stream and with it
// every seeded output.
func (f *Fabric) deviceVisit(sw *swtch, pkt *packet.Packet, inPort, recirc int) {
	f.events.Inc()
	d := sw.Device
	// dRPC packets addressed to this device's control IP terminate here.
	if inPort >= 0 && pkt.Has("drpc") {
		if r := f.routers[d.Name()]; r != nil && uint32(pkt.Field("ipv4.dst")) == r.IP {
			r.Deliver(pkt)
			return
		}
	}
	pkt.IngressPort = inPort
	st := d.ProcessCtx(pkt, f.ectx)
	switch st.Verdict {
	case packet.VerdictForward:
		f.Sim.AtPacket(f.Sim.Now()+netsim.Time(st.LatencyNs), sw.transmit, pkt, 0)
	case packet.VerdictRecirculate:
		if recirc >= f.recircLimit {
			f.ContinueDrops++
			return
		}
		f.Sim.AtPacket(f.Sim.Now()+netsim.Time(st.LatencyNs), sw.recirculate, pkt, recirc+1)
	case packet.VerdictToController:
		if f.Punted != nil {
			f.Punted(d.Name(), pkt)
		}
	case packet.VerdictContinue:
		f.ContinueDrops++
	case packet.VerdictDrop:
		// Dropped by policy; counted by the device.
	}
}

// onTopoEvent mirrors topology changes into the routing engine. Node
// and link adds keep the dense mirror aligned (port numbering matches
// because every Connect fires exactly one event, in order); up/down
// transitions mark affected destinations dirty for the next converge.
func (f *Fabric) onTopoEvent(ev netsim.TopoEvent) {
	switch ev.Kind {
	case netsim.TopoNodeAdded:
		f.routing.AddNode(ev.Node.Name)
	case netsim.TopoLinkAdded:
		a, b := ev.Link.Ends()
		f.linkID[ev.Link] = f.routing.AddLink(a, b)
	case netsim.TopoLinkUp:
		f.routing.SetLinkState(f.linkID[ev.Link], true)
	case netsim.TopoLinkDown, netsim.TopoLinkRemoved:
		f.routing.SetLinkState(f.linkID[ev.Link], false)
	}
}

// sortedInsert inserts v into sorted slice s, keeping it sorted.
func sortedInsert(s []string, v string) []string {
	i := sort.SearchStrings(s, v)
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// AddHost attaches a host with the given IP to a new node.
func (f *Fabric) AddHost(name string, ip uint32) *Host {
	return f.addHost(name, ip, -1)
}

// addHost is AddHost with an explicit routing shard: destinations with
// the same shard (a pod, for generated fabrics) recompute as one unit
// of parallel work; -1 gives the destination its own group.
func (f *Fabric) addHost(name string, ip uint32, routeShard int) *Host {
	node := f.Net.AddNode(name)
	f.routing.AddDest(name, ip, name, "", routeShard)
	h := &Host{Name: name, IP: ip, Node: node, fab: f}
	f.hosts[name] = h
	f.hostNames = sortedInsert(f.hostNames, name)
	node.SetHandler(func(pkt *packet.Packet, _ int) {
		f.events.Inc()
		h.Received++
		if h.Recv != nil {
			h.Recv(pkt)
		}
	})
	return h
}

// Connect wires two fabric members with the given link parameters.
func (f *Fabric) Connect(a, b string, p netsim.LinkParams) *netsim.Link {
	l, _, _ := f.Net.Connect(a, b, p)
	return l
}

// Device returns the named device, or nil.
func (f *Fabric) Device(name string) *dataplane.Device {
	if sw := f.switches[name]; sw != nil {
		return sw.Device
	}
	return nil
}

// Host returns the named host, or nil.
func (f *Fabric) Host(name string) *Host { return f.hosts[name] }

// Devices returns device names in sorted order. The returned slice is
// the fabric's cached copy (membership only grows, so it is maintained
// incrementally rather than re-sorted per call): callers must treat it
// as read-only.
func (f *Fabric) Devices() []string { return f.devNames }

// Hosts returns host names in sorted order. Read-only, like Devices.
func (f *Fabric) Hosts() []string { return f.hostNames }

// Send injects a packet from a host into the fabric (via the host's
// first port).
func (h *Host) Send(pkt *packet.Packet) {
	pkt.StampSent(uint64(h.fab.Sim.Now()))
	h.Node.Send(pkt, 0)
}

// NewSource creates a traffic source whose packets enter the fabric at
// this host.
func (h *Host) NewSource(spec netsim.FlowSpec) *netsim.Source {
	if spec.Src == 0 {
		spec.Src = h.IP
	}
	return netsim.NewSource(h.fab.Sim, spec, h.fab.Seq(), func(p *packet.Packet) {
		h.Node.Send(p, 0)
	})
}

// InfraRoutingProgram builds the base routing program with the default
// 1024-entry route table, enough for every hand-built topology.
func InfraRoutingProgram() *flexbpf.Program {
	return InfraRoutingProgramSized(1024)
}

// InfraRoutingProgramSized builds the base routing program: an LPM
// table on ipv4.dst whose entries forward out a port, plus a TTL
// decrement. size caps the route table; generated fabrics (fat-tree
// k=16 routes >1k hosts) need more than the 1024 default.
func InfraRoutingProgramSized(size int) *flexbpf.Program {
	fwd := flexbpf.NewAsm().
		LdField(0, "ipv4.ttl").
		JGtImm(0, 0, "alive").
		Drop().
		Label("alive").
		SubImm(0, 1).
		StField("ipv4.ttl", 0).
		LdParam(1, 0).
		Forward(1).
		MustBuild()
	drop := flexbpf.NewAsm().Drop().MustBuild()
	return flexbpf.NewProgram(InfraProgramName).
		Headers("eth", "ipv4").
		Action("route", 1, fwd).
		Action("unroutable", 0, drop).
		Table(&flexbpf.TableSpec{
			Name:          RouteTableName,
			Keys:          []flexbpf.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchLPM, Bits: 32}},
			Actions:       []string{"route", "unroutable"},
			DefaultAction: "unroutable",
			Size:          size,
		}).
		Apply(RouteTableName).
		MustBuild()
}

// InstallBaseRouting installs the infrastructure routing program on every
// switch and populates routes to every host via shortest paths. It must
// be called after the topology is built. The route table is sized to
// the destination count (minimum 1024, then next power of two).
func (f *Fabric) InstallBaseRouting() error {
	size := 1024
	if n := len(f.hosts) + len(f.routerIPs); n > size {
		for size < n {
			size <<= 1
		}
	}
	for name, d := range f.switches {
		if d.Instance(InfraProgramName) == nil {
			// Each device gets its own program instance: table instances
			// bind to their spec copy. Routing runs last in the chain so
			// extensions see traffic first.
			if err := d.InstallProgramOpt(InfraRoutingProgramSized(size), dataplane.InstallOptions{Priority: dataplane.PriorityInfra}); err != nil {
				return fmt.Errorf("fabric: install routing on %s: %w", name, err)
			}
		}
	}
	return f.RefreshRoutes()
}

// RefreshRoutes converges the incremental routing engine and publishes
// per-device route tables. Only destinations dirtied by topology events
// since the last refresh are recomputed, and only devices whose routes
// changed (or whose table instance was replaced, e.g. by crash-and-heal
// reinstall) are rewritten. Each rewrite is a single atomic table-state
// publish (flexbpf.TableInstance.ReplaceAll): in-flight lookups see
// either the old table or the new one, never an empty window.
func (f *Fabric) RefreshRoutes() error {
	return f.refreshRoutes(nil)
}

// RefreshRoutesTouched is RefreshRoutes scoped to a change plan's
// touched devices: routing deltas still reach every affected device,
// but the full-fleet scan for replaced table instances is limited to
// devs. The runtime executor uses this for plan-scoped RouteUpdate
// steps (plan.ScopedRouteUpdater).
func (f *Fabric) RefreshRoutesTouched(devs []string) error {
	if len(devs) == 0 {
		return f.refreshRoutes(nil)
	}
	scope := append([]string(nil), devs...)
	sort.Strings(scope)
	return f.refreshRoutes(scope)
}

// RefreshRoutesFull recomputes every destination from scratch and
// rewrites every device, ignoring the engine's dirtiness tracking. The
// equivalence tests use it as the ground-truth baseline; it is also the
// escape hatch if route state is ever suspected stale.
func (f *Fabric) RefreshRoutesFull() error {
	f.routing.MarkAllDirty()
	return f.refreshRoutes(nil)
}

// refreshRoutes converges the engine and applies table deltas. scope
// (sorted, nil = all devices) bounds only the resync scan; devices the
// engine touched are always rewritten.
func (f *Fabric) refreshRoutes(scope []string) error {
	stats := f.routing.Converge(runtime.GOMAXPROCS(0))
	f.lastRouteStats = stats
	f.routeConverges.Add(1)
	f.routeDests.Add(uint64(stats.RecomputedDests))
	f.routeEntries.Add(uint64(stats.RecomputedRoutes))
	f.routeWrites.Add(uint64(stats.DeltaWrites))

	touched := f.routing.DrainTouched()
	scan := f.devNames
	if scope != nil {
		scan = scope
	}
	for _, dev := range mergeSorted(touched, scan) {
		d := f.Device(dev)
		if d == nil {
			continue
		}
		if d.Down() {
			// A crashed device has lost its tables anyway; the healer's
			// reconciliation plan rewrites them once it is back up.
			// Forget what we applied so the reinstalled instance gets a
			// full snapshot.
			delete(f.applied, dev)
			continue
		}
		inst := d.Instance(InfraProgramName)
		if inst == nil {
			if d.DownGen() > 0 {
				// Restarted after a crash but not yet reconciled: it has
				// no tables to write and cannot forward anyway. Route
				// around it; its own reconciliation plan ends with a
				// RouteUpdate that brings it back into the mesh.
				delete(f.applied, dev)
				continue
			}
			return f.routeError(fmt.Errorf("fabric: device %s has no routing program", dev))
		}
		table := inst.Table(RouteTableName)
		if f.applied[dev] == table && !contains(touched, dev) {
			continue // routes unchanged and same instance: nothing to write
		}
		rs := f.routing.RoutesFor(dev)
		entries := make([]*flexbpf.TableEntry, len(rs))
		for i, r := range rs {
			entries[i] = flexbpf.LPMEntry("route", []uint64{uint64(r.Port)}, uint64(r.IP), 32)
		}
		if err := table.ReplaceAll(entries); err != nil {
			return f.routeError(fmt.Errorf("fabric: route update on %s: %w", dev, err))
		}
		f.applied[dev] = table
	}
	return nil
}

// routeError drops the applied-state cache so the next refresh rewrites
// every device: a partial apply must not leave a device marked current.
func (f *Fabric) routeError(err error) error {
	f.applied = map[string]*flexbpf.TableInstance{}
	return err
}

// RouteStats returns the routing engine's work counters for the most
// recent refresh (experiment E16 reads these).
func (f *Fabric) RouteStats() routing.Stats { return f.lastRouteStats }

// TotalRoutes returns the number of route entries currently held by the
// routing engine across all devices.
func (f *Fabric) TotalRoutes() int { return f.routing.TotalRoutes() }

// mergeSorted merges two sorted string slices, deduplicating.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func contains(sorted []string, v string) bool {
	i := sort.SearchStrings(sorted, v)
	return i < len(sorted) && sorted[i] == v
}

// TotalDrops sums packet drops across links, devices, and unclaimed
// packets. The hitless-reconfiguration experiments use this to verify
// zero loss.
func (f *Fabric) TotalDrops() uint64 {
	total := f.Net.Drops + f.ContinueDrops
	for _, d := range f.switches {
		total += d.Stats().Dropped
	}
	return total
}

// InfrastructureDrops sums drops excluding intentional policy drops
// (Drop verdicts in programs): link losses + unclaimed packets + drain
// drops + execution errors. Hitless-reconfiguration experiments check
// this stays zero during a change.
func (f *Fabric) InfrastructureDrops() uint64 {
	total := f.Net.Drops + f.ContinueDrops
	for _, d := range f.switches {
		st := d.Stats()
		total += st.DrainDrops + st.Errors
	}
	return total
}

// Sim returns the fabric simulator owning this host (convenience for
// higher layers like transport).
func (h *Host) Sim() *netsim.Sim { return h.fab.Sim }
