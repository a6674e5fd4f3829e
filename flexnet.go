// Package flexnet is a runtime-programmable network framework — a
// working implementation of the FlexNet vision from "A Vision for
// Runtime Programmable Networks" (HotNets '21).
//
// FlexNet models an end-to-end network whose devices (RMT/dRMT/tiled
// switch ASICs, SmartNICs, host stacks) can be reprogrammed *while
// serving traffic*: match/action tables and whole programs are added
// and removed hitlessly (the parser is fixed), programs migrate between
// devices carrying their state, security defenses scale elastically
// with attack volume, and a central controller manages applications by
// URI. The network substrate is a deterministic discrete-event
// simulator, so every experiment replays bit-for-bit.
//
// # Quick start
//
//	net, _ := flexnet.New(1).
//		Switch("s1", flexnet.DRMT).
//		Host("h1", "10.0.0.1").
//		Host("h2", "10.0.0.2").
//		Link("h1", "s1").
//		Link("s1", "h2").
//		Build()
//
//	defense := flexnet.SYNDefense("syn", 1024, 10)
//	net.Deploy(context.Background(), "flexnet://infra/defense", flexnet.AppSpec{
//		Programs: []*flexnet.Program{defense},
//	}, flexnet.DeployOptions{})
//	net.RunFor(time.Second)
//
// Programs are written in FlexBPF (see NewProgram and NewAsm), verified
// for bounded execution before installation, compiled onto devices by a
// fungibility-aware placer, and reconfigured at runtime through hitless
// epoch-atomic swaps.
package flexnet

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/controller"
	"flexnet/internal/dataplane"
	"flexnet/internal/errdefs"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/flexbpf/delta"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
	"flexnet/internal/runtime"
	"flexnet/internal/telemetry"
	"flexnet/internal/transport"
)

// Sentinel errors. Internal failures wrap these, so callers can classify
// outcomes with errors.Is regardless of the layer that produced them.
var (
	// ErrNoSuchApp: the URI (or one of its segments/replicas) is unknown.
	ErrNoSuchApp = errdefs.ErrNoSuchApp
	// ErrInsufficientResources: placement or growth does not fit.
	ErrInsufficientResources = errdefs.ErrInsufficientResources
	// ErrVerifyFailed: a program failed FlexBPF verification.
	ErrVerifyFailed = errdefs.ErrVerifyFailed
	// ErrDeviceDown: the target device is marked down.
	ErrDeviceDown = errdefs.ErrDeviceDown
	// ErrFailover: the plan was interrupted by a controller failover
	// before it committed, and was rolled back (DESIGN.md §15.3).
	ErrFailover = errdefs.ErrFailover
)

// Architecture classes (§3.3 of the paper).
const (
	// RMT is a fixed-stage reconfigurable match-table pipeline (Tofino).
	RMT = dataplane.ArchRMT
	// DRMT is disaggregated RMT (Nvidia Spectrum class).
	DRMT = dataplane.ArchDRMT
	// Tile is a tiled architecture (Broadcom Trident4 class).
	Tile = dataplane.ArchTile
	// ElasticPipe is a fixed pipe plus programmable elements (Jericho2).
	ElasticPipe = dataplane.ArchElasticPipe
	// SoC is a SmartNIC/FPGA with fully fungible resources.
	SoC = dataplane.ArchSoC
	// Host is a host kernel stack (eBPF class).
	Host = dataplane.ArchHost
)

// Re-exported core types. The internal packages carry the full
// implementation; these aliases are the supported public surface.
type (
	// Arch identifies a device architecture class.
	Arch = dataplane.Arch
	// Device is a runtime-programmable device.
	Device = dataplane.Device
	// Program is a verified FlexBPF program.
	Program = flexbpf.Program
	// ProgramBuilder builds Programs fluently.
	ProgramBuilder = flexbpf.ProgramBuilder
	// Asm assembles FlexBPF instruction blocks.
	Asm = flexbpf.Asm
	// Datapath is a logical chain of program segments.
	Datapath = flexbpf.Datapath
	// SLA constrains placement.
	SLA = flexbpf.SLA
	// TableSpec declares a match/action table.
	TableSpec = flexbpf.TableSpec
	// TableKey is one table key component.
	TableKey = flexbpf.TableKey
	// TableEntry is an installed rule.
	TableEntry = flexbpf.TableEntry
	// Cond is a packet-field condition (used for isolation filters).
	Cond = flexbpf.Cond
	// Capabilities declares what a program needs from its device.
	Capabilities = flexbpf.Capabilities
	// Demand quantifies device resources.
	Demand = flexbpf.Demand
	// Packet is a simulated packet.
	Packet = packet.Packet
	// FlowSpec describes synthetic traffic.
	FlowSpec = netsim.FlowSpec
	// LinkParams configures a link (bandwidth, delay, buffer).
	LinkParams = netsim.LinkParams
	// Source generates traffic.
	Source = netsim.Source
	// MigrationReport describes a completed state migration.
	MigrationReport = plan.MoveReport
	// App is a managed application.
	App = controller.App
	// Tenant is an admitted tenant.
	Tenant = controller.Tenant
	// ChangePlan is a transactional network change: typed steps with a
	// validate → prepare → commit lifecycle and automatic rollback.
	ChangePlan = plan.ChangePlan
	// PlanStep is one typed operation within a ChangePlan.
	PlanStep = plan.Step
	// PlanReport describes a plan's execution or dry run.
	PlanReport = plan.Report
	// TelemetrySnapshot is a deterministic point-in-time copy of every
	// metric in the network's registry.
	TelemetrySnapshot = telemetry.Snapshot
	// TraceSnapshot is a wire-friendly copy of one plan's execution trace.
	TraceSnapshot = telemetry.TraceSnapshot
)

// Program constructors re-exported from the library.
var (
	// NewProgram starts a FlexBPF program builder.
	NewProgram = flexbpf.NewProgram
	// NewAsm starts an instruction assembler.
	NewAsm = flexbpf.NewAsm
	// Verify checks a program's safety rules.
	Verify = flexbpf.Verify
	// Firewall builds a stateful firewall app.
	Firewall = apps.Firewall
	// HeavyHitter builds a count-min heavy-hitter monitor app.
	HeavyHitter = apps.HeavyHitter
	// SYNDefense builds the elastic SYN-flood defense app.
	SYNDefense = apps.SYNDefense
	// RateLimiter builds a meter-based rate limiter app.
	RateLimiter = apps.RateLimiter
	// INTTelemetry builds an in-band telemetry app.
	INTTelemetry = apps.INTTelemetry
	// L2Forwarder builds a MAC forwarding app.
	L2Forwarder = apps.L2Forwarder
)

// ParseIP converts dotted-quad notation to the uint32 address form used
// throughout the library.
func ParseIP(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("flexnet: malformed IPv4 address %q", s)
	}
	var out uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("flexnet: malformed IPv4 address %q", s)
		}
		out = out<<8 | uint32(v)
	}
	return out, nil
}

// MustParseIP is ParseIP that panics on malformed input.
func MustParseIP(s string) uint32 {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Builder assembles a Network topology.
type Builder struct {
	fab   *fabric.Fabric
	costs runtime.Costs
	drpc  map[string]string // device → control IP
	err   error
}

// New starts building a network with the given random seed.
func New(seed int64) *Builder {
	return &Builder{
		fab:   fabric.New(seed),
		costs: runtime.DefaultCosts(),
		drpc:  map[string]string{},
	}
}

// Switch adds a device of the given architecture.
func (b *Builder) Switch(name string, arch Arch) *Builder {
	if b.err == nil {
		b.fab.AddSwitch(name, arch)
	}
	return b
}

// Host adds an end host with the given dotted-quad IP.
func (b *Builder) Host(name, ip string) *Builder {
	if b.err != nil {
		return b
	}
	addr, err := ParseIP(ip)
	if err != nil {
		b.err = err
		return b
	}
	b.fab.AddHost(name, addr)
	return b
}

// Link connects two members with default link parameters (10 Gb/s, 2 µs).
func (b *Builder) Link(a, c string) *Builder {
	return b.LinkCfg(a, c, netsim.DefaultLink())
}

// LinkCfg connects two members with explicit parameters.
func (b *Builder) LinkCfg(a, c string, p netsim.LinkParams) *Builder {
	if b.err == nil {
		b.fab.Connect(a, c, p)
	}
	return b
}

// Topo populates the network from a compact generated-topology spec —
// "fat-tree:k=8" or "spine-leaf:spines=4,leaves=8,hosts=10" (see
// fabric.ParseTopo for the grammar). It composes with Switch, Host and
// Link, so a generated fabric can be decorated with extra members as
// long as names do not collide.
func (b *Builder) Topo(spec string) *Builder {
	if b.err != nil {
		return b
	}
	ts, err := fabric.ParseTopo(spec)
	if err != nil {
		b.err = err
		return b
	}
	b.err = ts.Build(b.fab)
	return b
}

// FlowCache(false) builds the differential oracle for the per-switch
// megaflow flow cache every switch otherwise has: switches added after
// the call (so it should precede Switch/Topo) run the pipeline for every
// packet. It exists for tests and benchmarks to compare against, not for
// tuning: processing output and dev.* telemetry are identical either
// way, and only the flowcache.* instruments go away.
func (b *Builder) FlowCache(v bool) *Builder {
	if b.err == nil {
		b.fab.SetFlowCache(v)
	}
	return b
}

// DRPC enables data-plane RPC on a device at the given control IP.
func (b *Builder) DRPC(device, ip string) *Builder {
	if b.err == nil {
		b.drpc[device] = ip
	}
	return b
}

// ReconfigCosts overrides the runtime reconfiguration cost model.
func (b *Builder) ReconfigCosts(c runtime.Costs) *Builder {
	b.costs = c
	return b
}

// Workers does nothing: the simulator runs one event at a time
// (DESIGN.md §9), so any n builds the same network. It stays only until
// benchmark/, which a product change may not edit, stops calling it.
func (b *Builder) Workers(n int) *Builder { return b }

// Build finalizes the topology: dRPC routers come up, the infrastructure
// routing program is installed on every switch, and the controller takes
// over.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	for dev, ip := range b.drpc {
		addr, err := ParseIP(ip)
		if err != nil {
			return nil, err
		}
		if _, err := b.fab.EnableDRPC(dev, addr); err != nil {
			return nil, err
		}
	}
	if err := b.fab.InstallBaseRouting(); err != nil {
		return nil, err
	}
	ctl := controller.New(b.fab, runtime.NewEngine(b.fab.Sim, b.costs))
	return &Network{fab: b.fab, ctl: ctl}, nil
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Network {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// Network is a running FlexNet deployment: topology + plan executor +
// controller.
type Network struct {
	fab *fabric.Fabric
	ctl *controller.Controller
}

// Controller returns the app-level controller.
func (n *Network) Controller() *controller.Controller { return n.ctl }

// Fabric returns the underlying fabric (advanced use).
func (n *Network) Fabric() *fabric.Fabric { return n.fab }

// Device returns a device by name, or nil.
func (n *Network) Device(name string) *Device { return n.fab.Device(name) }

// Now returns the current simulation time.
func (n *Network) Now() time.Duration { return n.fab.Sim.Now() }

// RunFor advances simulated time by d.
func (n *Network) RunFor(d time.Duration) { n.fab.Sim.RunFor(d) }

// After schedules fn after a simulated delay.
func (n *Network) After(d time.Duration, fn func()) { n.fab.Sim.After(d, fn) }

// NewSource creates a traffic source at a host.
func (n *Network) NewSource(host string, spec FlowSpec) (*Source, error) {
	h := n.fab.Host(host)
	if h == nil {
		return nil, fmt.Errorf("flexnet: no host %q", host)
	}
	return h.NewSource(spec), nil
}

// HostReceived returns the number of packets delivered to a host.
func (n *Network) HostReceived(host string) uint64 {
	h := n.fab.Host(host)
	if h == nil {
		return 0
	}
	return h.Received
}

// OnHostReceive registers a delivery callback at a host. fn borrows the
// packet for the duration of the call: the network reuses it once fn
// returns, so a callback that keeps a packet keeps its Clone.
func (n *Network) OnHostReceive(host string, fn func(*Packet)) error {
	h := n.fab.Host(host)
	if h == nil {
		return fmt.Errorf("flexnet: no host %q", host)
	}
	prev := h.Recv
	h.Recv = func(p *Packet) {
		if prev != nil {
			prev(p)
		}
		fn(p)
	}
	return nil
}

// InfrastructureDrops counts packets lost to infrastructure causes
// (never by app policy): link overflows, drains, execution errors.
func (n *Network) InfrastructureDrops() uint64 { return n.fab.InfrastructureDrops() }

// AppSpec describes an application deployment.
type AppSpec struct {
	// Programs are the datapath segments, in traffic order.
	Programs []*Program
	// Path restricts placement to these devices in order (nil = any).
	Path []string
	// Tenant attributes the app and isolates it to the tenant's VLAN.
	Tenant string
	// SLA constrains placement.
	SLA SLA
}

// AddTenant admits a tenant and returns its VLAN allocation.
func (n *Network) AddTenant(name string) (*Tenant, error) { return n.ctl.AddTenant(name) }

// LastPlanReport returns the report of the most recently executed
// change plan — an operation's, a spec batch's or a heal plan's
// (nil before the first). Each operation returns its own plan's report.
func (n *Network) LastPlanReport() *PlanReport { return n.ctl.LastReport() }

// Metrics returns the network-wide telemetry registry: per-device packet
// and occupancy instruments ("dev.*"), plan pipeline counters ("plan.*"),
// controller operation counters ("ctl.*"), and migration accounting
// ("migrate.*"). All values derive from simulated time and the seeded
// simulation, so snapshots are byte-identical across runs at a seed.
func (n *Network) Metrics() *telemetry.Registry { return n.fab.Metrics }

// Tracer returns the plan-execution tracer. Every executed plan leaves a
// trace keyed by its ID (see PlanReport.ID) with per-phase spans:
// validate, per-device prepare, commit, rollback, and post steps.
func (n *Network) Tracer() *telemetry.Tracer { return n.fab.Tracer }

// Stats returns a deterministic snapshot of every metric.
func (n *Network) Stats() TelemetrySnapshot { return n.fab.Metrics.Snapshot() }

// PlanTrace returns the execution trace for a plan ID (see
// PlanReport.ID), or a zero snapshot if the ID is unknown or evicted.
func (n *Network) PlanTrace(id string) TraceSnapshot { return n.fab.Tracer.Trace(id).Snapshot() }

// waitFor advances simulation until *done or the budget elapses.
func (n *Network) waitFor(done *bool, budget time.Duration) {
	deadline := n.fab.Sim.Now() + budget
	step := 10 * time.Millisecond
	for !*done && n.fab.Sim.Now() < deadline {
		n.fab.Sim.RunFor(step)
	}
}

// Transport re-exports: host flows with runtime-swappable congestion
// control (the live-infrastructure-customization use case).
type (
	// TransportEndpoint gives a host transport behaviour.
	TransportEndpoint = transport.Endpoint
	// Flow is a window-based transport flow.
	Flow = transport.Flow
	// CC is a congestion-control policy.
	CC = transport.CC
	// FlowStats summarizes a flow.
	FlowStats = transport.FlowStats
)

// Congestion-control algorithms.
var (
	// RenoCC is classic TCP Reno (queue-filling).
	RenoCC CC = transport.Reno{}
	// DCTCPCC is DCTCP (ECN-proportional, shallow queues).
	DCTCPCC CC = transport.DCTCP{}
)

// NewTransportEndpoint attaches transport behaviour (data ACKing, flow
// demux) to a host.
func (n *Network) NewTransportEndpoint(host string) (*TransportEndpoint, error) {
	h := n.fab.Host(host)
	if h == nil {
		return nil, fmt.Errorf("flexnet: no host %q", host)
	}
	return transport.NewEndpoint(h), nil
}

// SetLinkECN enables DCTCP-style ECN marking on the link between two
// members when its queue exceeds thresholdBytes.
func (n *Network) SetLinkECN(a, b string, thresholdBytes int) error {
	l := n.fab.Net.LinkBetween(a, b)
	if l == nil {
		return fmt.Errorf("flexnet: no link %s—%s", a, b)
	}
	l.ECNThresholdBytes = thresholdBytes
	return nil
}

// Delta is an incremental program change (§3.2 of the paper): a list of
// pattern-selected operations applied to a deployed app's program
// without re-specifying it.
type Delta = delta.Delta

// DeltaOp is one operation within a Delta.
type DeltaOp = delta.Op
