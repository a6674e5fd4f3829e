// Package baselines implements the compile-time approximations of
// runtime programmability that the paper contrasts FlexNet against
// (§1.1 "Recent projects call out this limitation and propose
// approximating solutions. They essentially work by baking all needed
// logic at compile time but changing how it is used from the control
// plane."):
//
//   - Mantis [70] "hardcodes all runtime response logic at compile time,
//     and invokes different responses at runtime by modifying control
//     registers": every candidate program is installed up front; a mux
//     register selects the active one. Activation is near-instant but
//     resources are paid for ALL candidates and unanticipated programs
//     are impossible.
//
//   - HyPer4 [30] "emulates different network programs with a
//     virtualization layer": any program can be loaded at runtime as
//     table entries of a generic emulator, but every packet pays an
//     emulation overhead (extra lookups/latency) and the emulator's
//     tables are heavily over-provisioned.
//
//   - Static recompile: the plain compile-time baseline (drain → reflash
//     → redeploy) lives in internal/runtime.ApplyCompileTime.
//
// DESIGN.md §3 (E4) measures these baselines against runtime deployment.
package baselines

import (
	"fmt"

	"flexnet/internal/dataplane"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// MantisMuxMap is the control-register map that selects the active app.
const MantisMuxMap = "mantis_active"

// MantisMuxProgram is the program name of the selector.
const MantisMuxProgram = "mantis.mux"

// Mantis manages a Mantis-style deployment on one device: all candidate
// programs are compiled in at setup; activation flips a register.
type Mantis struct {
	dev *dataplane.Device
	// index maps candidate name → selector value (1-based; 0 = none).
	index map[string]uint64
	// ActivationCost is the modelled control-register write latency.
	ActivationCost netsim.Time
}

// muxProgram builds the selector: copies the control register into the
// per-packet field "meta.mantis" that candidate filters match.
func muxProgram() *flexbpf.Program {
	code := flexbpf.NewAsm().
		MovImm(1, 0).
		MapLoad(0, MantisMuxMap, 1).
		StField("meta.mantis", 0).
		Ret().
		MustBuild()
	return flexbpf.NewProgram(MantisMuxProgram).
		ArrayMap(MantisMuxMap, 1, 16).
		Do(code).
		MustBuild()
}

// NewMantis installs the full candidate set on the device. This is the
// compile-time step: it must anticipate every program ever needed, and
// pays resources for all of them at once.
func NewMantis(dev *dataplane.Device, candidates []*flexbpf.Program) (*Mantis, error) {
	m := &Mantis{
		dev:            dev,
		index:          map[string]uint64{},
		ActivationCost: 20_000, // 20 µs: one register write
	}
	if err := dev.InstallProgramOpt(muxProgram(), dataplane.InstallOptions{Priority: 10}); err != nil {
		return nil, err
	}
	for i, prog := range candidates {
		sel := uint64(i + 1)
		cond := &flexbpf.Cond{Field: "meta.mantis", Op: flexbpf.CmpEq, Value: sel}
		if err := dev.InstallProgramOpt(prog, dataplane.InstallOptions{Filter: cond}); err != nil {
			return nil, fmt.Errorf("baselines: mantis precompile of %s: %w", prog.Name, err)
		}
		m.index[prog.Name] = sel
	}
	return m, nil
}

// TotalDemand reports the resources the precompiled set consumes.
func (m *Mantis) TotalDemand() flexbpf.Demand {
	return m.dev.InstalledDemand()
}

// Activate selects the named candidate (or "" to deactivate all). It
// fails for programs outside the precompiled set — Mantis cannot host
// unanticipated logic.
func (m *Mantis) Activate(sim *netsim.Sim, name string, done func(error)) {
	var sel uint64
	if name != "" {
		var ok bool
		sel, ok = m.index[name]
		if !ok {
			done(fmt.Errorf("baselines: mantis: program %q was not anticipated at compile time", name))
			return
		}
	}
	sim.After(m.ActivationCost, func() {
		inst := m.dev.Instance(MantisMuxProgram)
		if inst == nil {
			done(fmt.Errorf("baselines: mantis mux missing"))
			return
		}
		err := inst.Store().Map(MantisMuxMap).Store(0, sel)
		done(err)
	})
}

// Active returns the currently selected candidate name, or "".
func (m *Mantis) Active() string {
	inst := m.dev.Instance(MantisMuxProgram)
	if inst == nil {
		return ""
	}
	v, _ := inst.Store().Map(MantisMuxMap).Load(0)
	for name, sel := range m.index {
		if sel == v {
			return name
		}
	}
	return ""
}

// Hyper4 wraps a device with a HyPer4-style virtualization layer: any
// program loads at runtime via entry updates, but resources and
// per-packet work are inflated by the emulation factor.
type Hyper4 struct {
	dev *dataplane.Device
	// Factor is the emulation overhead multiplier (HyPer4 reports
	// roughly 3-7× more table accesses than native programs).
	Factor int
	// LoadCostPerTable is the table-entry population latency per
	// emulated table.
	LoadCostPerTable netsim.Time
	loaded           map[string]bool
}

// NewHyper4 wraps dev with emulation factor (≥1).
func NewHyper4(dev *dataplane.Device, factor int) *Hyper4 {
	if factor < 1 {
		factor = 1
	}
	return &Hyper4{
		dev:              dev,
		Factor:           factor,
		LoadCostPerTable: 5_000_000, // 5 ms of rule population per table
		loaded:           map[string]bool{},
	}
}

// inflate rewrites a program to its emulated representation: every
// table is over-provisioned by Factor (the emulator's generic match
// stages must cover the union of possible programs).
func (h *Hyper4) inflate(prog *flexbpf.Program) *flexbpf.Program {
	p := prog.Clone()
	p.Name = "hyper4." + p.Name
	for _, t := range p.Tables {
		t.Size *= h.Factor
	}
	for _, mp := range p.Maps {
		mp.MaxEntries *= h.Factor
	}
	return p
}

// Load installs a program through the virtualization layer: runtime
// possible (no reflash) but inflated.
func (h *Hyper4) Load(sim *netsim.Sim, prog *flexbpf.Program, done func(error)) {
	inflated := h.inflate(prog)
	cost := netsim.Time(len(prog.Tables)+1) * h.LoadCostPerTable
	sim.After(cost, func() {
		err := h.dev.InstallProgram(inflated)
		if err == nil {
			h.loaded[prog.Name] = true
		}
		done(err)
	})
}

// Unload removes an emulated program.
func (h *Hyper4) Unload(name string) error {
	if !h.loaded[name] {
		return fmt.Errorf("baselines: hyper4: %q not loaded", name)
	}
	delete(h.loaded, name)
	return h.dev.RemoveProgram("hyper4." + name)
}

// Process runs a packet with emulation overhead applied: the packet's
// processing latency and lookup count scale by Factor.
func (h *Hyper4) Process(pkt *packet.Packet) dataplane.ProcStats {
	st := h.dev.Process(pkt)
	// The emulator resolves every native primitive through its mapping
	// tables: multiplied native work plus fixed indirection lookups.
	st.Lookups = st.Lookups*h.Factor + h.Factor
	st.Instrs *= h.Factor
	st.LatencyNs += uint64(h.Factor-1) * (st.LatencyNs - h.dev.Perf().BaseLatencyNs)
	// Emulation also adds fixed indirection stages per packet.
	st.LatencyNs += uint64(h.Factor) * h.dev.Perf().PerLookupNs * 2
	return st
}

// ApproachComparison summarizes a dynamic-app scenario outcome for one
// approach — the row type of experiment E4.
type ApproachComparison struct {
	Approach string
	// DeployLatency is time from request to the app processing traffic.
	DeployLatency netsim.Time
	// DowntimeDrops counts packets lost during deployment.
	DowntimeDrops uint64
	// ResourceBits is steady-state memory consumed on the device.
	ResourceBits int
	// PerPacketLookups is the per-packet table-access cost afterwards.
	PerPacketLookups int
	// SupportsUnanticipated reports whether an app outside the
	// compile-time set can be deployed at all.
	SupportsUnanticipated bool
}
