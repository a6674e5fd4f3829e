// Package dataplane models runtime-programmable network devices.
//
// It substitutes for the proprietary ASICs the paper builds on (Nvidia
// Spectrum, Broadcom Trident4/Jericho2, Tofino) with architecture models
// that preserve the properties the paper's claims depend on:
//
//   - Resource structure: which resources exist, at what granularity they
//     are fungible (§3.3 "Resource fungibility" for RMT, dRMT,
//     Tiles/Elastic Pipes, SmartNICs/FPGAs/hosts).
//   - Runtime partial reconfiguration: tables and whole programs can be
//     added and removed while the device processes packets, atomically
//     with respect to any single packet (§2). The parser is fixed: every
//     device runs the one packet.StandardParseGraph.
//   - Performance and energy envelopes: per-architecture processing
//     latency, throughput, and power proxies (§3.3 "Performance and
//     energy optimizations").
//
// A Device hosts an ordered chain of ProgramInstances (the infrastructure
// program first, then tenant extensions). A packet is processed by the
// chain snapshot taken at its arrival — one packet never observes a mix
// of two device configurations.
//
// DESIGN.md §2 (S3) inventories the architecture models and §1 the substitution argument; crash semantics are DESIGN.md §10.1.
package dataplane

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
	"flexnet/internal/flowcache"
	"flexnet/internal/packet"
	"flexnet/internal/telemetry"
)

// Arch identifies a device architecture class.
type Arch uint8

// Architecture classes from §3.3.
const (
	// ArchRMT is a reconfigurable match table pipeline (Tofino,
	// FlexPipe): fixed stages, resources fungible within a stage.
	ArchRMT Arch = iota
	// ArchDRMT is disaggregated RMT (Spectrum-like): run-to-completion
	// processors with a shared memory pool; memory fungible globally.
	ArchDRMT
	// ArchTile is a tiled architecture (Trident4): typed tiles (hash,
	// index, TCAM); fungibility within tile types.
	ArchTile
	// ArchElasticPipe is a fixed pipeline extended by a programmable
	// element matrix (Jericho2).
	ArchElasticPipe
	// ArchSoC is a SoC SmartNIC or FPGA: fully fungible resources.
	ArchSoC
	// ArchHost is a host kernel stack (eBPF): fully fungible, slowest.
	ArchHost
)

func (a Arch) String() string {
	switch a {
	case ArchRMT:
		return "rmt"
	case ArchDRMT:
		return "drmt"
	case ArchTile:
		return "tile"
	case ArchElasticPipe:
		return "elasticpipe"
	case ArchSoC:
		return "soc"
	case ArchHost:
		return "host"
	default:
		return fmt.Sprintf("arch(%d)", uint8(a))
	}
}

// PerfModel captures an architecture's packet-processing performance.
type PerfModel struct {
	// BaseLatencyNs is the pipeline transit latency.
	BaseLatencyNs uint64
	// PerInstrNs is added latency per executed instruction.
	PerInstrNs uint64
	// PerLookupNs is added latency per table lookup.
	PerLookupNs uint64
	// CapacityPPS is the sustainable packet rate.
	CapacityPPS uint64
}

// EnergyModel is the device power proxy used by the energy experiments.
type EnergyModel struct {
	// IdleWatts is drawn whenever the device is powered.
	IdleWatts float64
	// ActiveWatts is added while at least one program is installed.
	ActiveWatts float64
	// PerPacketNanojoule is dynamic energy per processed packet.
	PerPacketNanojoule float64
}

// archModel is the architecture-specific resource manager. Implementations
// are not safe for concurrent use; Device serializes all calls.
type archModel interface {
	// place reserves resources for a program, returning an opaque
	// placement handle. It must either fully succeed or leave the model
	// unchanged.
	place(prog *flexbpf.Program) (placement, error)
	// release returns a placement's resources to the pool.
	release(placement)
	// free reports currently available resources in Demand units
	// (aggregated; per-region constraints may still reject a fit).
	free() flexbpf.Demand
	// capacity reports total resources.
	capacity() flexbpf.Demand
	// fungibility returns the fraction of total resources that could be
	// reassigned to a new program right now (1.0 = fully fungible).
	fungibility() float64
}

// placement is an opaque per-program resource reservation.
type placement interface {
	demand() flexbpf.Demand
}

// Config describes a device to be created.
type Config struct {
	Name string
	Arch Arch
	// Ports is the number of attached ports.
	Ports int
	// Seed seeds the device-local random source. Zero means "derive":
	// the embedding fabric draws a seed from the simulation's seeded
	// rng, so all per-device randomness descends from the single
	// simulation seed and every run replays bit-for-bit.
	Seed int64

	// Architecture geometry. Zero values select sensible defaults
	// per architecture (see DefaultConfig).
	Stages        int // RMT: pipeline stages
	Processors    int // dRMT: MA processors
	HashTiles     int // Tile: hash tile count
	IndexTiles    int // Tile: index tile count
	TCAMTiles     int // Tile: TCAM tile count
	PEMElements   int // ElasticPipe: programmable elements
	TileBits      int // Tile/ElasticPipe: bits per tile
	StageSRAMBits int // RMT: per-stage SRAM
	StageTCAMBits int // RMT: per-stage TCAM
	StageALUs     int // RMT: per-stage ALUs
	StageTables   int // RMT: max tables per stage
	PoolSRAMBits  int // dRMT/SoC/host: shared memory pool
	PoolTCAMBits  int // dRMT: shared TCAM pool
	CyclesBudget  int // dRMT/SoC/host: per-packet instruction budget (total)

	Perf   PerfModel
	Energy EnergyModel
}

// DefaultConfig returns a realistic configuration for the architecture.
// Geometry loosely follows public numbers for the respective device
// classes, scaled down so experiments run quickly.
func DefaultConfig(name string, arch Arch) Config {
	c := Config{Name: name, Arch: arch, Ports: 32}
	switch arch {
	case ArchRMT:
		c.Stages = 12
		c.StageSRAMBits = 1 << 22 // 512 KB per stage
		c.StageTCAMBits = 1 << 19 // 64 KB per stage
		c.StageALUs = 224
		c.StageTables = 8
		c.Perf = PerfModel{BaseLatencyNs: 400, PerInstrNs: 0, PerLookupNs: 0, CapacityPPS: 1_000_000_000}
		c.Energy = EnergyModel{IdleWatts: 150, ActiveWatts: 60, PerPacketNanojoule: 15}
	case ArchDRMT:
		c.Processors = 32
		c.PoolSRAMBits = 12 << 22
		c.PoolTCAMBits = 12 << 19
		c.CyclesBudget = 32 * 96
		c.Perf = PerfModel{BaseLatencyNs: 500, PerInstrNs: 1, PerLookupNs: 5, CapacityPPS: 800_000_000}
		c.Energy = EnergyModel{IdleWatts: 140, ActiveWatts: 70, PerPacketNanojoule: 18}
	case ArchTile:
		c.HashTiles = 32
		c.IndexTiles = 16
		c.TCAMTiles = 8
		c.TileBits = 1 << 20
		c.Perf = PerfModel{BaseLatencyNs: 450, PerInstrNs: 0, PerLookupNs: 2, CapacityPPS: 900_000_000}
		c.Energy = EnergyModel{IdleWatts: 160, ActiveWatts: 65, PerPacketNanojoule: 16}
	case ArchElasticPipe:
		c.PEMElements = 16
		c.HashTiles = 24
		c.IndexTiles = 12
		c.TCAMTiles = 6
		c.TileBits = 1 << 20
		c.Perf = PerfModel{BaseLatencyNs: 480, PerInstrNs: 0, PerLookupNs: 2, CapacityPPS: 900_000_000}
		c.Energy = EnergyModel{IdleWatts: 170, ActiveWatts: 70, PerPacketNanojoule: 17}
	case ArchSoC:
		c.PoolSRAMBits = 64 << 22 // generous DRAM-backed memory
		c.CyclesBudget = 4096
		c.Perf = PerfModel{BaseLatencyNs: 2_000, PerInstrNs: 5, PerLookupNs: 20, CapacityPPS: 50_000_000}
		c.Energy = EnergyModel{IdleWatts: 25, ActiveWatts: 30, PerPacketNanojoule: 120}
	case ArchHost:
		c.PoolSRAMBits = 256 << 22
		c.CyclesBudget = 1 << 16
		c.Perf = PerfModel{BaseLatencyNs: 10_000, PerInstrNs: 20, PerLookupNs: 50, CapacityPPS: 5_000_000}
		c.Energy = EnergyModel{IdleWatts: 80, ActiveWatts: 120, PerPacketNanojoule: 900}
	}
	return c
}

// Capabilities returns what programs this architecture can host.
func (a Arch) Capabilities() flexbpf.Capabilities {
	switch a {
	case ArchRMT:
		return flexbpf.Capabilities{TCAM: true, PerFlowState: true}
	case ArchDRMT, ArchTile, ArchElasticPipe:
		return flexbpf.Capabilities{TCAM: true, PerFlowState: true}
	case ArchSoC:
		return flexbpf.Capabilities{TCAM: true, PerFlowState: true, GeneralCompute: true}
	case ArchHost:
		return flexbpf.Capabilities{TCAM: true, PerFlowState: true, GeneralCompute: true, Transport: true}
	default:
		return flexbpf.Capabilities{}
	}
}

// config holds a view of the device's packet-visible configuration; it is
// swapped atomically so each packet sees exactly one version.
type config struct {
	epoch     uint64
	instances []*ProgramInstance
	// names are the instances' program names in chain order; a packet's
	// ProcStats.Programs is a prefix of it whenever no filter skipped an
	// instance before the last one that ran.
	names []string
	// fc is this configuration's flow cache (nil on a DisableFlowCache
	// oracle). Every commit publishes a new, empty one: invalidation is
	// the epoch-atomic publication itself (DESIGN.md §12.1).
	fc *flowcache.Cache
	// fp caches the flow-cache static analysis for this configuration
	// (see fastpath.go); computed lazily, immutable once stored.
	fp atomic.Pointer[fastpathInfo]
}

// ProcStats describes one packet's processing outcome on a device.
type ProcStats struct {
	Verdict packet.Verdict
	// Epoch is the device configuration version that processed the packet.
	Epoch uint64
	// LatencyNs is modelled processing latency.
	LatencyNs uint64
	// Instrs and Lookups aggregate across all program instances run.
	Instrs  int
	Lookups int
	// Programs lists the instance names that processed the packet. It is
	// shared with the device (a slice of its configuration's program
	// list, or of a flow-cache entry) and must not be modified.
	Programs []string
}

// Counters aggregates device lifetime statistics.
type Counters struct {
	Processed  uint64
	Dropped    uint64
	Forwarded  uint64
	Punted     uint64
	Recircs    uint64
	DrainDrops uint64 // packets dropped because the device was draining
	Errors     uint64
}

// Device is a runtime-programmable network device.
type Device struct {
	name string
	cfg  Config
	caps flexbpf.Capabilities

	// current is the live configuration; swapped atomically on
	// reconfiguration.
	current atomic.Pointer[config]

	// mu serializes control-plane mutations (installs, removals, swaps).
	// The data plane never takes it.
	mu         sync.Mutex
	model      archModel
	placements map[string]placement
	draining   atomic.Bool
	down       atomic.Bool
	// downAt records the simulated time of the last Crash, and downGen
	// counts crashes; the controller's healer compares generations to
	// detect restarts it has not yet reconciled (DESIGN.md §10).
	downAt  atomic.Uint64
	downGen atomic.Uint64
	// fault, when set, can fail control-plane operations by phase
	// (test-only fault injection; see SetFaultInjector). Guarded by mu.
	fault FaultInjector

	rng *rand.Rand
	// now supplies simulation time; settable by the harness.
	now func() uint64

	// acct is the packet path's accounting, in plain fields only the
	// goroutine driving the packet path writes (see ProcessCtx and
	// fastpath.go).
	acct tally
	// noFlowCache is set by DisableFlowCache: commits publish configs
	// without a flow cache. fcInvalidations counts the commits that did
	// publish one. Both are written under mu.
	noFlowCache     bool
	fcInvalidations atomic.Uint64

	// met holds the control path's pre-resolved telemetry handles (nil
	// handles are inert). They are atomic instruments because commits,
	// which write them under mu, may run beside the packet path.
	met deviceMetrics
}

// deviceMetrics are the device's control-path telemetry instruments. All
// handles are nil (no-ops) until SetMetrics wires a registry.
type deviceMetrics struct {
	faults     *telemetry.Counter
	epochFlips *telemetry.Counter
	epoch      *telemetry.Gauge
	programs   *telemetry.Gauge
	occupancy  *telemetry.Gauge
}

// SetMetrics registers this device's telemetry in reg under the
// "dev.<name>." prefix: packets processed and dropped, table lookups and
// the processing-latency histogram as views over the packet path's
// accounting block; fault injections, epoch flips, the epoch and the
// occupancy and program-count gauges as instruments the control path
// updates; and the flow cache's views under "flowcache.<name>."
// (fastpath.go). The embedding fabric calls this at build time, before
// any traffic flows. Devices without a registry run with inert nil
// handles; their Stats and FlowCacheStats count all the same.
func (d *Device) SetMetrics(reg *telemetry.Registry) {
	prefix := "dev." + d.name + "."
	d.mu.Lock()
	defer d.mu.Unlock()
	a := &d.acct
	reg.CounterView(prefix+"packets_processed", func() uint64 { return a.c.Processed })
	reg.CounterView(prefix+"packets_dropped", func() uint64 { return a.c.Dropped })
	reg.CounterView(prefix+"table_lookups", func() uint64 { return a.lookups })
	reg.HistogramView(prefix+"proc_latency_ns", a.lat)
	d.met = deviceMetrics{
		faults:     reg.Counter(prefix + "fault_injections"),
		epochFlips: reg.Counter(prefix + "epoch_flips"),
		epoch:      reg.Gauge(prefix + "epoch"),
		programs:   reg.Gauge(prefix + "programs"),
		occupancy:  reg.Gauge(prefix + "occupancy_ppm"),
	}
	if !d.noFlowCache {
		d.registerFlowCacheViews(reg)
	}
	d.met.epoch.Set(int64(d.snapshot().epoch))
	d.exportOccupancyLocked()
}

// exportOccupancyLocked refreshes the occupancy and program-count
// gauges from the resource model. Caller holds d.mu.
func (d *Device) exportOccupancyLocked() {
	d.met.programs.Set(int64(len(d.placements)))
	if d.met.occupancy == nil {
		return
	}
	cap := d.model.capacity()
	free := d.model.free()
	if cap.SRAMBits > 0 {
		d.met.occupancy.Set(int64(cap.SRAMBits-free.SRAMBits) * 1_000_000 / int64(cap.SRAMBits))
	}
}

// New creates a device from config.
func New(cfg Config) (*Device, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("dataplane: device needs a name")
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 32
	}
	var model archModel
	switch cfg.Arch {
	case ArchRMT:
		model = newRMTModel(cfg)
	case ArchDRMT:
		model = newDRMTModel(cfg)
	case ArchTile, ArchElasticPipe:
		model = newTileModel(cfg)
	case ArchSoC, ArchHost:
		model = newPoolModel(cfg)
	default:
		return nil, fmt.Errorf("dataplane: unknown architecture %v", cfg.Arch)
	}
	d := &Device{
		name:       cfg.Name,
		cfg:        cfg,
		caps:       cfg.Arch.Capabilities(),
		model:      model,
		placements: map[string]placement{},
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		now:        func() uint64 { return 0 },
		acct:       tally{lat: telemetry.NewLocalHistogram(telemetry.DefaultLatencyBounds)},
	}
	d.current.Store(&config{epoch: 1, fc: flowcache.New(1)})
	return d, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Arch returns the architecture class.
func (d *Device) Arch() Arch { return d.cfg.Arch }

// Capabilities returns hosted-program capabilities.
func (d *Device) Capabilities() flexbpf.Capabilities { return d.caps }

// Perf returns the performance model.
func (d *Device) Perf() PerfModel { return d.cfg.Perf }

// Energy returns the energy model.
func (d *Device) Energy() EnergyModel { return d.cfg.Energy }

// SetClock installs the simulation time source used by meters and
// OpNow. The default clock is stuck at zero.
func (d *Device) SetClock(now func() uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now = now
	cfg := d.snapshot()
	for _, inst := range cfg.instances {
		inst.now = now
	}
}

func (d *Device) snapshot() *config { return d.current.Load() }

// Epoch returns the current configuration version.
func (d *Device) Epoch() uint64 { return d.snapshot().epoch }

// commit publishes a new configuration with epoch+1. Caller holds d.mu.
// The configuration is published with its own empty flow cache, so the
// cache is invalidated by the same atomic store that swaps the
// configuration: a hitless swap stays hitless — no packet arriving after
// the commit can replay a pre-commit outcome, and a miss that raced the
// commit inserts into the cache of the configuration it ran under, which
// no later packet reaches (DESIGN.md §12.1).
func (d *Device) commit(next *config) {
	prev := d.snapshot()
	next.epoch = prev.epoch + 1
	next.names = make([]string, len(next.instances))
	for i, inst := range next.instances {
		next.names[i] = inst.prog.Name
	}
	if !d.noFlowCache {
		next.fc = commitCache(prev, next.epoch)
		d.fcInvalidations.Add(1)
	}
	d.current.Store(next)
	d.met.epochFlips.Inc()
	d.met.epoch.Set(int64(next.epoch))
	d.exportOccupancyLocked()
}

// CanHost reports whether the device could place prog right now (a
// dry-run reservation). Aggregate Demand arithmetic can overpromise on
// architectures with typed sub-pools (tile devices, per-stage RMT), so
// the compiler asks the device itself.
func (d *Device) CanHost(prog *flexbpf.Program) bool {
	if !d.caps.Satisfies(prog.Requires) {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	pl, err := d.model.place(prog)
	if err != nil {
		return false
	}
	d.model.release(pl)
	return true
}

// Free returns available device resources.
func (d *Device) Free() flexbpf.Demand {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.model.free()
}

// Capacity returns total device resources.
func (d *Device) Capacity() flexbpf.Demand {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.model.capacity()
}

// Fungibility returns the fraction of resources reclaimable for new
// programs right now (architecture-dependent, §3.3).
func (d *Device) Fungibility() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.model.fungibility()
}

// Programs returns installed instance names in processing order.
func (d *Device) Programs() []string {
	cfg := d.snapshot()
	out := make([]string, len(cfg.instances))
	for i, inst := range cfg.instances {
		out[i] = inst.prog.Name
	}
	return out
}

// Instance returns the named program instance, or nil.
func (d *Device) Instance(name string) *ProgramInstance {
	for _, inst := range d.snapshot().instances {
		if inst.prog.Name == name {
			return inst
		}
	}
	return nil
}

// InstallOptions tunes a program installation.
type InstallOptions struct {
	// Filter restricts which packets the instance processes (tenant VLAN
	// isolation, §3 scenario).
	Filter *flexbpf.Cond
	// Priority orders the device's program chain: lower runs first.
	// Extensions default to PriorityExtension; the infrastructure
	// forwarding program uses PriorityInfra so it runs last (its Forward
	// verdict terminates the chain).
	Priority int
}

// Chain priorities.
const (
	// PriorityExtension is the default for apps and tenant extensions.
	PriorityExtension = 100
	// PriorityInfra is for the terminal forwarding program.
	PriorityInfra = 1000
)

// InstallProgram verifies, places, links, and atomically activates a
// program while the device keeps processing traffic. This is the runtime
// partial reconfiguration primitive of §2: the swap is hitless — packets
// in flight complete under the old configuration; packets arriving after
// the commit see the new one. It is a one-step Swap.
func (d *Device) InstallProgram(prog *flexbpf.Program) error {
	return d.InstallProgramOpt(prog, InstallOptions{})
}

// InstallProgramOpt installs a program with explicit options.
func (d *Device) InstallProgramOpt(prog *flexbpf.Program, opts InstallOptions) error {
	return d.Swap(func(st *StagedConfig) error { return st.InstallOpt(prog, opts) })
}

func normPriority(p int) int {
	if p == 0 {
		return PriorityExtension
	}
	return p
}

// sortByPriority orders the chain by priority (stable: equal priorities
// keep install order).
func sortByPriority(insts []*ProgramInstance) []*ProgramInstance {
	sort.SliceStable(insts, func(i, j int) bool { return insts[i].priority < insts[j].priority })
	return insts
}

// RemoveProgram removes a program and reclaims its resources (§1.1:
// "Tenant departures trigger program removal to trim the network and
// release unused resources").
func (d *Device) RemoveProgram(name string) error {
	return d.Swap(func(st *StagedConfig) error { return st.Remove(name) })
}

// Parser returns the parse graph the device runs: the shared, read-only
// packet.StandardParseGraph, the same on every device and at every epoch.
func (d *Device) Parser() *packet.ParseGraph { return packet.StandardParseGraph() }

// SetDraining marks the device as draining: all arriving packets are
// dropped. This models the compile-time reconfiguration baseline
// (isolate → reflash → redeploy, §1).
func (d *Device) SetDraining(v bool) { d.draining.Store(v) }

// Draining reports drain state.
func (d *Device) Draining() bool { return d.draining.Load() }

// SetDown fails (or restores) the device: arriving packets are dropped
// and every control-plane operation returns ErrDeviceDown.
func (d *Device) SetDown(v bool) { d.down.Store(v) }

// Down reports whether the device is down.
func (d *Device) Down() bool { return d.down.Load() }

// Crash fail-stops the device with loss of all installed state: every
// placement is released and the config reverts to an empty program
// chain, as if the switch power-cycled. Unlike SetDown (which models
// a transient management-path outage with configuration intact), a
// crashed device restarts empty and must be reconciled by the
// controller's healer (DESIGN.md §10). Crash bumps the device's crash
// generation and records the simulated crash time for MTTR accounting.
func (d *Device) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down.Store(true)
	d.downAt.Store(d.now())
	d.downGen.Add(1)
	for _, pl := range d.placements {
		d.model.release(pl)
	}
	d.placements = map[string]placement{}
	d.commit(&config{})
}

// Restart brings a crashed (or SetDown) device back up. After a Crash
// the device comes back with no programs and no table state; recovery
// is the controller's job, not the device's.
func (d *Device) Restart() { d.down.Store(false) }

// LastDownAt returns the simulated time of the most recent Crash
// (0 if the device never crashed).
func (d *Device) LastDownAt() uint64 { return d.downAt.Load() }

// DownGen returns the crash generation: the number of Crash calls so
// far. Reconciliation loops remember the last generation they healed
// and act when it advances, which stays correct across crashes they
// never directly observed.
func (d *Device) DownGen() uint64 { return d.downGen.Load() }

// FaultOp names a control-plane phase for fault injection.
type FaultOp string

// Injectable fault points.
const (
	FaultValidate FaultOp = "validate"
	FaultPrepare  FaultOp = "prepare"
	FaultCommit   FaultOp = "commit"
	FaultMigrate  FaultOp = "migrate"
)

// FaultInjector lets tests fail a device's control-plane operations at a
// chosen phase. Returning a non-nil error fails the operation as if the
// device's management path had died mid-plan.
type FaultInjector func(device string, op FaultOp) error

// SetFaultInjector installs (or clears, with nil) the fault injector.
func (d *Device) SetFaultInjector(fi FaultInjector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = fi
}

// FaultCheck returns the error this device would inject for op: the
// device being down, or whatever the fault injector reports.
func (d *Device) FaultCheck(op FaultOp) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faultLocked(op)
}

// faultLocked is FaultCheck with d.mu held.
func (d *Device) faultLocked(op FaultOp) error {
	if d.down.Load() {
		return fmt.Errorf("dataplane: %s: %w", d.name, errdefs.ErrDeviceDown)
	}
	if d.fault != nil {
		if err := d.fault(d.name, op); err != nil {
			d.met.faults.Inc()
			return err
		}
	}
	return nil
}

// Swap atomically replaces the whole program set in one epoch bump: the
// network-wide consistent-update building block. The prepare function
// receives install/remove primitives that act on a staged copy; nothing
// becomes visible until it returns nil.
func (d *Device) Swap(prepare func(stage *StagedConfig) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, err := d.stageLocked(prepare)
	if err != nil {
		return err
	}
	d.applyStagedLocked(st)
	return nil
}

// stageLocked builds a staged configuration on top of the current one.
// Every configuration change — Swap, PrepareChange, and the single-step
// InstallProgram/RemoveProgram wrappers — is staged here, so the check
// that guards a commit lives here once: a down device refuses changes
// (DESIGN.md §5). On error every staged placement is released and
// nothing is retained. Caller holds d.mu.
func (d *Device) stageLocked(build func(stage *StagedConfig) error) (*StagedConfig, error) {
	if d.down.Load() {
		return nil, fmt.Errorf("dataplane: %s: %w", d.name, errdefs.ErrDeviceDown)
	}
	base := d.snapshot()
	st := &StagedConfig{
		dev:       d,
		base:      base,
		instances: append([]*ProgramInstance(nil), base.instances...),
		added:     map[string]placement{},
	}
	if err := build(st); err != nil {
		st.releaseLocked()
		return nil, err
	}
	return st, nil
}

// releaseLocked returns all staged-but-unactivated placements to the
// pool. Caller holds d.mu.
func (st *StagedConfig) releaseLocked() {
	for _, pl := range st.added {
		st.dev.model.release(pl)
	}
	st.added = map[string]placement{}
}

// applyStagedLocked makes a staged configuration live: removed programs'
// placements are released, staged placements adopted, and the new config
// committed with epoch+1. It returns the programs whose placements were
// released, so a PreparedChange can re-place them on revert. Caller
// holds d.mu.
func (d *Device) applyStagedLocked(st *StagedConfig) map[string]*flexbpf.Program {
	removed := map[string]*flexbpf.Program{}
	for _, name := range st.removed {
		if pl, ok := d.placements[name]; ok {
			for _, inst := range st.base.instances {
				if inst.prog.Name == name {
					removed[name] = inst.prog
					break
				}
			}
			d.model.release(pl)
			delete(d.placements, name)
		}
	}
	for name, pl := range st.added {
		d.placements[name] = pl
	}
	d.commit(&config{instances: st.instances})
	return removed
}

// PrepareChange stages a configuration change without activating it: the
// first half of the executor's two-phase commit. Resources are reserved
// and instances built, but packets keep seeing the old configuration
// until Activate. On error nothing is retained.
//
// Prepared changes are not stackable: the executor serializes plans, and
// Activate refuses to fire if the device was reconfigured by anything
// else since PrepareChange.
func (d *Device) PrepareChange(build func(stage *StagedConfig) error) (*PreparedChange, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.faultLocked(FaultPrepare); err != nil {
		return nil, err
	}
	st, err := d.stageLocked(build)
	if err != nil {
		return nil, err
	}
	return &PreparedChange{dev: d, staged: st}, nil
}

// PreparedChange is a staged device change awaiting Activate or Abort.
type PreparedChange struct {
	dev    *Device
	staged *StagedConfig
	// next and removed are filled by Activate for Revert.
	next      *config
	removed   map[string]*flexbpf.Program
	activated bool
	released  bool
}

// Activate commits the staged change in one epoch bump. It fails — and
// leaves the device untouched, staging intact — if the device is down,
// the fault injector fires, or the device was reconfigured since
// PrepareChange (stale staging).
func (p *PreparedChange) Activate() error {
	d := p.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if p.activated {
		return fmt.Errorf("dataplane: %s: prepared change already activated", d.name)
	}
	if p.released {
		return fmt.Errorf("dataplane: %s: prepared change was aborted", d.name)
	}
	if err := d.faultLocked(FaultCommit); err != nil {
		return err
	}
	if base := p.staged.base; d.snapshot() != base {
		return fmt.Errorf("dataplane: %s: device reconfigured since prepare (epoch %d != %d)", d.name, d.snapshot().epoch, base.epoch)
	}
	p.removed = d.applyStagedLocked(p.staged)
	p.next = d.snapshot()
	p.activated = true
	return nil
}

// Abort discards a staged-but-unactivated change, returning its
// reserved resources. Safe to call more than once.
func (p *PreparedChange) Abort() {
	d := p.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if p.activated || p.released {
		return
	}
	p.staged.releaseLocked()
	p.released = true
}

// Revert undoes an activated change, restoring the exact pre-change
// configuration (the base instances carry their state, so the device is
// byte-identical to its pre-plan snapshot). It fails if the device was
// reconfigured again after Activate.
func (p *PreparedChange) Revert() error {
	d := p.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if !p.activated {
		return fmt.Errorf("dataplane: %s: revert of unactivated change", d.name)
	}
	if d.snapshot() != p.next {
		return fmt.Errorf("dataplane: %s: device reconfigured since commit; cannot revert", d.name)
	}
	// Undo adds: release their placements.
	for name := range p.staged.added {
		if pl, ok := d.placements[name]; ok {
			d.model.release(pl)
			delete(d.placements, name)
		}
	}
	// Undo removes: re-place the old programs (their resources are free
	// again because the plan holds the only outstanding change).
	for name, prog := range p.removed {
		pl, err := d.model.place(prog)
		if err != nil {
			return fmt.Errorf("dataplane: %s: revert could not re-place %s: %w", d.name, name, err)
		}
		d.placements[name] = pl
	}
	base := p.staged.base
	d.commit(&config{instances: base.instances})
	p.activated = false
	p.released = true
	return nil
}

// StagedConfig is a device configuration under construction inside Swap
// or PrepareChange.
type StagedConfig struct {
	dev *Device
	// base is the configuration the staging was built against.
	base      *config
	instances []*ProgramInstance
	added     map[string]placement
	removed   []string
}

func (st *StagedConfig) isRemoved(name string) bool {
	for _, n := range st.removed {
		if n == name {
			return true
		}
	}
	return false
}

// Install stages a program installation at extension priority. A name
// being removed in the same swap may be re-installed.
func (st *StagedConfig) Install(prog *flexbpf.Program, cond *flexbpf.Cond) error {
	return st.InstallOpt(prog, InstallOptions{Filter: cond, Priority: PriorityExtension})
}

// InstallOpt stages a program installation with explicit options: the
// program is verified, checked against the device's capabilities, placed,
// and built into a linked instance. On error nothing is reserved.
func (st *StagedConfig) InstallOpt(prog *flexbpf.Program, opts InstallOptions) error {
	if err := flexbpf.Verify(prog); err != nil {
		return fmt.Errorf("dataplane: %s: refusing unverified program: %w: %w", st.dev.name, errdefs.ErrVerifyFailed, err)
	}
	if !st.dev.caps.Satisfies(prog.Requires) {
		return fmt.Errorf("dataplane: %s (%v) lacks capabilities for program %s", st.dev.name, st.dev.cfg.Arch, prog.Name)
	}
	if _, dup := st.dev.placements[prog.Name]; dup && !st.isRemoved(prog.Name) {
		return fmt.Errorf("dataplane: %s: program %s already installed", st.dev.name, prog.Name)
	}
	if _, dup := st.added[prog.Name]; dup {
		return fmt.Errorf("dataplane: %s: program %s already staged", st.dev.name, prog.Name)
	}
	pl, err := st.dev.model.place(prog)
	if err != nil {
		return fmt.Errorf("dataplane: %s: %w: %w", st.dev.name, errdefs.ErrInsufficientResources, err)
	}
	inst, err := newInstance(prog, opts.Filter, st.dev.rng, st.dev.now)
	if err != nil {
		st.dev.model.release(pl)
		return fmt.Errorf("dataplane: %s: %w", st.dev.name, err)
	}
	inst.priority = normPriority(opts.Priority)
	st.added[prog.Name] = pl
	st.instances = sortByPriority(append(st.instances, inst))
	return nil
}

// Remove stages a program removal.
func (st *StagedConfig) Remove(name string) error {
	found := false
	out := st.instances[:0]
	for _, inst := range st.instances {
		if inst.prog.Name == name {
			found = true
			continue
		}
		out = append(out, inst)
	}
	st.instances = out
	if !found {
		return fmt.Errorf("dataplane: %s: program %s not staged/installed", st.dev.name, name)
	}
	if _, staged := st.added[name]; staged {
		st.dev.model.release(st.added[name])
		delete(st.added, name)
		return nil
	}
	st.removed = append(st.removed, name)
	return nil
}

// fidMetaIngress is the interned ID of the intrinsic ingress-port field,
// resolved once so Process never interns on the packet path.
var fidMetaIngress = packet.InternField("meta.ingress")

// Process runs one packet through the device: ProcessCtx with each
// program instance's private execution context, under the same contract.
func (d *Device) Process(pkt *packet.Packet) ProcStats {
	return d.ProcessCtx(pkt, nil)
}

// ProcessCtx runs one packet through the device with an explicit
// execution context. The fabric passes its one reusable ExecContext for
// every device visit; a caller driving devices from several goroutines
// passes one per goroutine, so concurrent devices never share scratch
// state. ectx == nil falls back to each program instance's private
// context (what Process uses).
//
// The contract the packet path rests on (DESIGN.md §9): one goroutine at
// a time drives a device's packet path. Reconfiguration — Swap,
// PrepareChange/Activate/Revert, Crash, table writes, drain and down
// flags — may run concurrently with it: the packet uses the
// configuration snapshot current at entry, and its only shared-memory
// traffic is atomic loads (the snapshot, the flags, table generations).
// Its accounting goes to plain fields, so the readers of that accounting
// — Stats, EnergyJoules, FlowCacheStats and the registry views SetMetrics
// installs — run on the driving goroutine or are serialized with it. The
// fabric drives every device from the simulator's one goroutine;
// flexnetd serves every read under the lock that runs the simulator.
func (d *Device) ProcessCtx(pkt *packet.Packet, ectx *flexbpf.ExecContext) ProcStats {
	a := &d.acct
	if d.draining.Load() || d.down.Load() {
		a.c.DrainDrops++
		a.c.Dropped++
		return ProcStats{Verdict: packet.VerdictDrop}
	}
	cfg := d.snapshot()
	pkt.Epoch = cfg.epoch
	// Expose intrinsic metadata to programs (P4 standard-metadata style).
	pkt.SetFieldByID(fidMetaIngress, uint64(pkt.IngressPort))
	st := ProcStats{Verdict: packet.VerdictContinue, Epoch: cfg.epoch}

	// Flow cache: replay a recorded outcome when the packet matches a
	// cached flow's full validation set (fastpath.go).
	var rec *flowRecord
	if cfg.fc != nil {
		var hit bool
		if rec, hit = d.tryFlowCache(pkt, cfg, &st); hit {
			d.accountProcessed(&st)
			return st
		}
	}

	skipped := false
	for i, inst := range cfg.instances {
		if !inst.accepts(pkt) {
			skipped = true
			continue
		}
		res, err := inst.runCtx(pkt, ectx)
		st.Instrs += res.Instrs
		st.Lookups += res.Lookups
		if skipped {
			// A filter skipped an earlier instance: the list is no longer
			// a prefix of the chain (append copies the prefix on first use).
			st.Programs = append(st.Programs, inst.prog.Name)
		} else {
			st.Programs = cfg.names[: i+1 : i+1]
		}
		if err != nil {
			a.c.Errors++
			a.c.Dropped++
			st.Verdict = packet.VerdictDrop
			return st
		}
		if res.Verdict != packet.VerdictContinue {
			st.Verdict = res.Verdict
			break
		}
	}

	if rec != nil {
		d.recordFlow(rec, pkt, cfg, &st)
	}
	d.accountProcessed(&st)
	return st
}

// Stats returns a copy of lifetime counters. Like every reader of the
// packet path's accounting, it runs on the goroutine driving the device
// or serialized with it (see ProcessCtx).
func (d *Device) Stats() Counters { return d.acct.c }

// EnergyJoules estimates energy used over a wall of simulated seconds
// with the device's processed-packet count (dynamic) plus static draw.
// It reads the packet path's accounting, under ProcessCtx's contract.
func (d *Device) EnergyJoules(seconds float64) float64 {
	e := d.cfg.Energy.IdleWatts * seconds
	if len(d.snapshot().instances) > 0 {
		e += d.cfg.Energy.ActiveWatts * seconds
	}
	e += float64(d.acct.c.Processed) * d.cfg.Energy.PerPacketNanojoule * 1e-9
	return e
}

// Utilization returns per-resource utilization fractions.
func (d *Device) Utilization() map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cap := d.model.capacity()
	free := d.model.free()
	out := map[string]float64{}
	frac := func(c, f int) float64 {
		if c == 0 {
			return 0
		}
		return float64(c-f) / float64(c)
	}
	out["sram"] = frac(cap.SRAMBits, free.SRAMBits)
	out["tcam"] = frac(cap.TCAMBits, free.TCAMBits)
	out["alus"] = frac(cap.ALUs, free.ALUs)
	out["tables"] = frac(cap.Tables, free.Tables)
	return out
}

// InstalledDemand returns the summed demand of installed programs, in
// deterministic (name-sorted) order for digesting.
func (d *Device) InstalledDemand() flexbpf.Demand {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.placements))
	for n := range d.placements {
		names = append(names, n)
	}
	sort.Strings(names)
	var total flexbpf.Demand
	for _, n := range names {
		total = total.Add(d.placements[n].demand())
	}
	return total
}
