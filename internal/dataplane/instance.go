package dataplane

import (
	"fmt"
	"math/rand"

	"flexnet/internal/dataplane/state"
	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

// ProgramInstance is a FlexBPF program installed on a device: the spec,
// its table instances, and its state store. It implements
// flexbpf.LinkedEnv.
//
// At creation the program is linked (flexbpf.Link) into a flattened form
// with map/counter/meter references resolved to the slot slices below,
// so the per-packet path performs no string lookups and no allocation.
// Linking is part of installation: a program that does not link is not
// installed (DESIGN.md §7).
type ProgramInstance struct {
	prog     *flexbpf.Program
	priority int
	lfilter  *flexbpf.LinkedCond
	tables   map[string]*flexbpf.TableInstance
	store    *state.Store
	rng      *rand.Rand
	now      func() uint64

	// linked is the install-time linked form (never nil).
	linked *flexbpf.LinkedProgram
	// lmaps/lcounters/lmeters are the slot-resolved object pointers the
	// LinkedEnv methods index into.
	lmaps     []*state.Map
	lcounters []*state.Counter
	lmeters   []*state.Meter
	// ectx is per-instance scratch for linked execution. Packet
	// processing through one instance is serialized by the simulator
	// (reconfiguration may be concurrent, packet processing is not).
	ectx *flexbpf.ExecContext
}

func newInstance(prog *flexbpf.Program, filter *flexbpf.Cond, rng *rand.Rand, now func() uint64) (*ProgramInstance, error) {
	inst := &ProgramInstance{
		prog:   prog,
		tables: make(map[string]*flexbpf.TableInstance, len(prog.Tables)),
		store:  state.NewStore(),
		rng:    rng,
		now:    now,
	}
	if filter != nil {
		inst.lfilter = flexbpf.CompileCond(filter)
	}
	for _, t := range prog.Tables {
		inst.tables[t.Name] = flexbpf.NewTableInstance(t)
	}
	for _, m := range prog.Maps {
		var kind state.MapKind
		switch m.Kind {
		case flexbpf.MapArray:
			kind = state.KindArray
		case flexbpf.MapHash:
			kind = state.KindHash
		case flexbpf.MapLRU:
			kind = state.KindLRU
		default:
			return nil, fmt.Errorf("program %s: unknown map kind %v", prog.Name, m.Kind)
		}
		if err := inst.store.Add(state.NewMap(m.Name, kind, m.MaxEntries)); err != nil {
			return nil, err
		}
	}
	for _, c := range prog.Counters {
		if err := inst.store.Add(state.NewCounter(c.Name, c.Size)); err != nil {
			return nil, err
		}
	}
	for _, m := range prog.Meters {
		if err := inst.store.Add(state.NewMeter(m.Name, m.Size, m.CIR, m.PIR, m.CBS, m.PBS)); err != nil {
			return nil, err
		}
	}
	// Install-time link: resolve symbols once so the per-packet path is
	// map-free and allocation-free.
	lp, err := flexbpf.Link(prog, func(name string) *flexbpf.TableInstance { return inst.tables[name] })
	if err != nil {
		return nil, fmt.Errorf("program %s does not link: %w: %w", prog.Name, errdefs.ErrVerifyFailed, err)
	}
	inst.linked = lp
	inst.ectx = flexbpf.NewExecContext()
	for _, n := range lp.MapSlots() {
		inst.lmaps = append(inst.lmaps, inst.store.Map(n))
	}
	for _, n := range lp.CounterSlots() {
		inst.lcounters = append(inst.lcounters, inst.store.Counter(n))
	}
	for _, n := range lp.MeterSlots() {
		inst.lmeters = append(inst.lmeters, inst.store.Meter(n))
	}
	for _, ti := range inst.tables {
		ti.SetActionResolver(lp.ActionIndex)
	}
	return inst, nil
}

// Linked returns the install-time linked form.
func (pi *ProgramInstance) Linked() *flexbpf.LinkedProgram { return pi.linked }

// Program returns the instance's program spec.
func (pi *ProgramInstance) Program() *flexbpf.Program { return pi.prog }

// Store returns the instance's state store (for migration and telemetry).
func (pi *ProgramInstance) Store() *state.Store { return pi.store }

// Table returns the named table instance, or nil.
func (pi *ProgramInstance) Table(name string) *flexbpf.TableInstance { return pi.tables[name] }

// Tables returns all table instances keyed by name.
func (pi *ProgramInstance) Tables() map[string]*flexbpf.TableInstance { return pi.tables }

// accepts applies the tenant isolation filter. The filter is compiled to
// a LinkedCond at instance creation so this is ID-indexed field access.
func (pi *ProgramInstance) accepts(pkt *packet.Packet) bool {
	if pi.lfilter == nil {
		return true
	}
	return pi.lfilter.Eval(pkt)
}

// runCtx executes the instance with the caller's ExecContext. A nil ectx
// uses the instance's private context; the fabric instead passes its one
// context, keeping the scratch registers and key buffer cache-warm
// across every device a packet visits.
func (pi *ProgramInstance) runCtx(pkt *packet.Packet, ectx *flexbpf.ExecContext) (flexbpf.ExecResult, error) {
	if ectx == nil {
		ectx = pi.ectx
	}
	return pi.linked.Run(pkt, pi, ectx)
}

// MapLoadSlot implements flexbpf.LinkedEnv.
func (pi *ProgramInstance) MapLoadSlot(slot int, key uint64) (uint64, bool) {
	m := pi.lmaps[slot]
	if m == nil {
		return 0, false
	}
	return m.Load(key)
}

// MapStoreSlot implements flexbpf.LinkedEnv.
func (pi *ProgramInstance) MapStoreSlot(slot int, key, val uint64) error {
	m := pi.lmaps[slot]
	if m == nil {
		return fmt.Errorf("dataplane: program %s has no map %q", pi.prog.Name, pi.linked.MapSlots()[slot])
	}
	return m.Store(key, val)
}

// MapDeleteSlot implements flexbpf.LinkedEnv.
func (pi *ProgramInstance) MapDeleteSlot(slot int, key uint64) {
	if m := pi.lmaps[slot]; m != nil {
		m.Delete(key)
	}
}

// CounterAddSlot implements flexbpf.LinkedEnv.
func (pi *ProgramInstance) CounterAddSlot(slot int, idx, delta uint64) {
	if c := pi.lcounters[slot]; c != nil {
		c.Add(idx, delta)
	}
}

// MeterExecSlot implements flexbpf.LinkedEnv.
func (pi *ProgramInstance) MeterExecSlot(slot int, idx, bytes uint64) uint64 {
	m := pi.lmeters[slot]
	if m == nil {
		return state.ColorRed
	}
	return m.Exec(idx, bytes, pi.now())
}

// Now implements flexbpf.LinkedEnv.
func (pi *ProgramInstance) Now() uint64 { return pi.now() }

// Rand implements flexbpf.LinkedEnv. The source is the hosting device's rng,
// which the fabric seeds from the simulation seed — never the global
// math/rand source — so OpRand draws replay bit-for-bit.
func (pi *ProgramInstance) Rand() uint64 { return pi.rng.Uint64() }

// ExportState captures all stateful objects in logical form, including
// table entries encoded as a logical object per table ("table:<name>").
// Table entries are control-plane content (rules) rather than data-plane
// state, but migration moves both.
func (pi *ProgramInstance) ExportState() []state.Logical {
	out := pi.store.ExportAll()
	return out
}

// ImportState restores stateful objects from logical form.
func (pi *ProgramInstance) ImportState(ls []state.Logical) error {
	return pi.store.ImportAll(ls)
}

// CopyEntriesFrom installs all table entries from another instance of the
// same program (used when migrating or replicating).
func (pi *ProgramInstance) CopyEntriesFrom(src *ProgramInstance) error {
	for name, st := range src.tables {
		dt := pi.tables[name]
		if dt == nil {
			return fmt.Errorf("dataplane: destination lacks table %q", name)
		}
		dt.Clear()
		for _, e := range st.Entries() {
			if err := dt.Insert(e); err != nil {
				return err
			}
		}
	}
	return nil
}
