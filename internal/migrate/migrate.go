// Package migrate implements live migration of stateful FlexBPF program
// instances between devices — the paper's motivating control operation
// (§3.4): "Consider migrating a stateful network app (e.g., one that
// maintains a count-min sketch). As the sketch state is updated for each
// packet, copying state via control plane software is impossible.
// Recent work has developed tools to perform state migration entirely in
// data plane [41, 65]."
//
// The Migrator is the executor's state mover (plan.StateMover): a
// migration is a ChangePlan that installs the instance at the destination
// and then moves its state in a post-commit OpMigrateState step, in one of
// two ways:
//
//   - data plane: Swing-State-style packet-carried migration. State
//     chunks travel as dRPC packets while the source keeps processing;
//     at the flip instant traffic moves to the destination and the
//     residual delta (updates that landed during the transfer) is merged
//     additively. Additive state (sketches, counters) loses zero
//     updates.
//
//   - control plane: the baseline. The controller snapshots the source
//     over its management channel (a latency proportional to state
//     size), imports it at the destination, then flips traffic. Every
//     update that hits the source after the snapshot is lost.
//
// DESIGN.md §2 (S12) inventories the migrator; §3 (E11) measures them; §10.4 defines migration's place in the failure model.
package migrate

import (
	"fmt"
	"sort"

	"flexnet/internal/dataplane"
	"flexnet/internal/dataplane/state"
	"flexnet/internal/drpc"
	"flexnet/internal/fabric"
	"flexnet/internal/netsim"
	"flexnet/internal/runtime"
	"flexnet/internal/telemetry"
)

// Report describes one completed migration.
type Report struct {
	Program string
	Src     string
	Dst     string
	// Started/Flipped/Done are simulation times: Flipped is when traffic
	// moved to the destination; Done when residual state finished.
	Started netsim.Time
	Flipped netsim.Time
	Done    netsim.Time
	// ChunksSent is the number of state-carrying packets (data plane) or
	// logical entries copied (control plane).
	ChunksSent int
	// LostUpdates counts state updates that did not survive migration.
	LostUpdates uint64
	// UpdatesDuringMigration counts source-side updates between start
	// and flip (the window the control-plane baseline loses).
	UpdatesDuringMigration uint64
	Err                    error
}

// Migrator moves program instances between fabric devices. It also
// implements plan.StateMover, so state moves appear as OpMigrateState
// steps inside ChangePlans rather than a private flow.
type Migrator struct {
	fab *fabric.Fabric
	eng *runtime.Engine
	// Flip switches traffic from src to dst; supplied by the controller
	// (route change, filter swap). It must take effect atomically at the
	// simulated instant it is called.
	Flip func(prog, src, dst string)
	// lastReport remembers the most recent move for LastReport.
	lastReport Report
}

// New creates a migrator.
func New(fab *fabric.Fabric, eng *runtime.Engine) *Migrator {
	return &Migrator{fab: fab, eng: eng}
}

// LastReport returns the most recently completed (or failed) move.
func (m *Migrator) LastReport() Report { return m.lastReport }

// record files the finished report and emits the migrate.* metrics into
// the fabric registry: moves attempted/failed, entries moved, updates
// lost (control-plane window) vs merged in-flight (data-plane residual),
// and the end-to-end move duration.
func (m *Migrator) record(rep Report) {
	m.lastReport = rep
	met := m.fab.Metrics
	met.Counter("migrate.moves").Inc()
	if rep.Err != nil {
		met.Counter("migrate.failed").Inc()
		return
	}
	met.Counter("migrate.entries_moved").Add(uint64(rep.ChunksSent))
	met.Counter("migrate.lost_updates").Add(rep.LostUpdates)
	met.Counter("migrate.inflight_merged").Add(rep.UpdatesDuringMigration - rep.LostUpdates)
	met.Histogram("migrate.duration_ns", telemetry.DefaultLatencyBounds).Observe(int64(rep.Done - rep.Started))
}

// ValidateMove implements plan.StateMover: it checks a move's
// preconditions without touching anything.
func (m *Migrator) ValidateMove(prog, src, dst string, useDataPlane bool) error {
	sdev, ddev := m.fab.Device(src), m.fab.Device(dst)
	if sdev == nil || ddev == nil {
		return fmt.Errorf("migrate: unknown device %s or %s", src, dst)
	}
	if sdev.Instance(prog) == nil {
		return fmt.Errorf("migrate: %s has no program %s", src, prog)
	}
	if useDataPlane && (m.fab.Router(src) == nil || m.fab.Router(dst) == nil) {
		return fmt.Errorf("migrate: dRPC not enabled on %s or %s", src, dst)
	}
	return nil
}

// EstimateMove implements plan.StateMover: the modelled transfer time,
// proportional to the instance's current state volume.
func (m *Migrator) EstimateMove(prog, src string, useDataPlane bool) netsim.Time {
	sdev := m.fab.Device(src)
	if sdev == nil {
		return 0
	}
	sinst := sdev.Instance(prog)
	if sinst == nil {
		return 0
	}
	return m.eng.MigrateLatency(logicalBytes(sinst.ExportState()))
}

// MoveState implements plan.StateMover: it transfers the instance's
// state from src to dst (which must already host an instance of the same
// name — the plan installs it in an earlier step) and flips traffic.
// Failures before the flip leave the source authoritative and untouched;
// the flip is the commit point.
func (m *Migrator) MoveState(prog, src, dst string, useDataPlane bool, done func(error)) {
	rep := Report{Program: prog, Src: src, Dst: dst, Started: m.fab.Sim.Now()}
	if err := m.ValidateMove(prog, src, dst, useDataPlane); err != nil {
		rep.Err = err
		m.record(rep)
		done(err)
		return
	}
	fin := func(err error) {
		m.record(rep)
		done(err)
	}
	if useDataPlane {
		m.transferData(&rep, fin)
	} else {
		m.transferControl(&rep, fin)
	}
}

// migrateFault asks both endpoints whether a mid-migration fault is
// injected (or a device is down). Checked immediately before the flip.
func (m *Migrator) migrateFault(src, dst string) error {
	if err := m.fab.Device(src).FaultCheck(dataplane.FaultMigrate); err != nil {
		return err
	}
	return m.fab.Device(dst).FaultCheck(dataplane.FaultMigrate)
}

// instanceUpdates reads the total update count of an instance's additive
// objects (sketch-style accounting for loss measurement): the sum of all
// logical values across maps and counters.
func instanceUpdates(inst *dataplane.ProgramInstance) uint64 {
	var total uint64
	for _, l := range inst.ExportState() {
		for _, kv := range l.Entries {
			total += kv.Val
		}
	}
	return total
}

// transferControl copies state over the management channel and flips:
// the control-plane baseline, after the plan installed the destination
// instance. Errors are recorded in rep.Err and passed to done.
func (m *Migrator) transferControl(rep *Report, done func(error)) {
	sdev, ddev := m.fab.Device(rep.Src), m.fab.Device(rep.Dst)
	sinst, dinst := sdev.Instance(rep.Program), ddev.Instance(rep.Program)
	fail := func(err error) {
		rep.Err = err
		done(err)
	}
	if dinst == nil {
		fail(fmt.Errorf("migrate: %s has no program %s to receive state", rep.Dst, rep.Program))
		return
	}
	if err := dinst.CopyEntriesFrom(sinst); err != nil {
		fail(err)
		return
	}

	// Snapshot over the management channel: latency ∝ bytes.
	snapshot := sinst.ExportState()
	snapUpdates := instanceUpdates(sinst)
	bytes := logicalBytes(snapshot)
	rep.ChunksSent = logicalEntries(snapshot)
	m.fab.Sim.After(m.eng.MigrateLatency(bytes), func() {
		if err := m.migrateFault(rep.Src, rep.Dst); err != nil {
			fail(err)
			return
		}
		if err := dinst.ImportState(snapshot); err != nil {
			fail(err)
			return
		}
		// Flip traffic. Updates that hit src after the snapshot are
		// lost: dst starts from the stale snapshot.
		nowUpdates := instanceUpdates(sinst)
		rep.UpdatesDuringMigration = nowUpdates - snapUpdates
		rep.LostUpdates = rep.UpdatesDuringMigration
		if m.Flip != nil {
			m.Flip(rep.Program, rep.Src, rep.Dst)
		}
		rep.Flipped = m.fab.Sim.Now()
		rep.Done = rep.Flipped
		done(nil)
	})
}

// transferData is the data-plane migration, after the plan installed the
// destination instance: (1) stream a snapshot as dRPC packets while the
// source keeps processing and mutating, (2) flip traffic to the
// destination atomically, (3) stream the residual delta (source updates
// since the snapshot) and merge it additively.
// Errors before the flip leave the source authoritative; the flip is the
// commit point (a residual-merge failure after it is reported but not
// rolled back — the destination keeps the snapshot).
func (m *Migrator) transferData(rep *Report, done func(error)) {
	sdev, ddev := m.fab.Device(rep.Src), m.fab.Device(rep.Dst)
	srouter, drouter := m.fab.Router(rep.Src), m.fab.Router(rep.Dst)
	sinst, dinst := sdev.Instance(rep.Program), ddev.Instance(rep.Program)
	fail := func(err error) {
		rep.Err = err
		done(err)
	}
	if dinst == nil {
		fail(fmt.Errorf("migrate: %s has no program %s to receive state", rep.Dst, rep.Program))
		return
	}
	if err := dinst.CopyEntriesFrom(sinst); err != nil {
		fail(err)
		return
	}

	// Phase 1: snapshot → stream via dRPC.
	snapshot := sinst.ExportState()
	preUpdates := instanceUpdates(sinst)
	allNames := sortedNames(sinst)
	receiver := NewStateReceiver(dinst)
	drouter.Register(drpc.ServiceStatePush, receiver.Handler())
	sender := newStateSender(srouter, drouter.IP, snapshot, allNames)
	rep.ChunksSent = sender.totalChunks()
	sender.start(m.fab.Sim, func() {
		// Phase 2: all chunks acknowledged → import snapshot at dst,
		// flip traffic, then merge residual delta.
		if err := m.migrateFault(rep.Src, rep.Dst); err != nil {
			drouter.Unregister(drpc.ServiceStatePush)
			fail(err)
			return
		}
		if err := receiver.Commit(); err != nil {
			drouter.Unregister(drpc.ServiceStatePush)
			fail(err)
			return
		}
		if m.Flip != nil {
			m.Flip(rep.Program, rep.Src, rep.Dst)
		}
		rep.Flipped = m.fab.Sim.Now()
		rep.UpdatesDuringMigration = instanceUpdates(sinst) - preUpdates

		// Phase 3: residual delta = src now − snapshot, additive.
		delta := diffLogical(sinst.ExportState(), snapshot)
		dsender := newStateSender(srouter, drouter.IP, delta, allNames)
		rep.ChunksSent += dsender.totalChunks()
		receiver.SetAdditive(true)
		dsender.start(m.fab.Sim, func() {
			err := receiver.Commit()
			if err != nil {
				rep.Err = err
			}
			drouter.Unregister(drpc.ServiceStatePush)
			rep.Done = m.fab.Sim.Now()
			rep.LostUpdates = 0
			done(err)
		})
	})
}

// sortedNames returns the instance's object names in sorted order — the
// shared object-ID convention between sender and receiver.
func sortedNames(inst *dataplane.ProgramInstance) []string {
	names := inst.Store().Names()
	sort.Strings(names)
	return names
}

// logicalBytes estimates the wire size of a logical state set.
func logicalBytes(ls []state.Logical) int {
	n := 0
	for _, l := range ls {
		n += 64 + len(l.Entries)*16
	}
	return n
}

func logicalEntries(ls []state.Logical) int {
	n := 0
	for _, l := range ls {
		n += len(l.Entries)
	}
	return n
}

// diffLogical computes the additive delta new − old per object/key
// (clamped at zero: non-additive overwrites are carried as absolute
// values in the snapshot phase already).
func diffLogical(new, old []state.Logical) []state.Logical {
	oldIdx := map[string]map[uint64]uint64{}
	for _, l := range old {
		mm := map[uint64]uint64{}
		for _, kv := range l.Entries {
			mm[kv.Key] = kv.Val
		}
		oldIdx[l.Name] = mm
	}
	var out []state.Logical
	for _, l := range new {
		d := state.Logical{Name: l.Name, Kind: l.Kind, Params: l.Params}
		prev := oldIdx[l.Name]
		for _, kv := range l.Entries {
			if pv, ok := prev[kv.Key]; ok {
				if kv.Val > pv {
					d.Entries = append(d.Entries, state.KV{Key: kv.Key, Val: kv.Val - pv})
				}
			} else {
				d.Entries = append(d.Entries, kv)
			}
		}
		if len(d.Entries) > 0 {
			out = append(out, d)
		}
	}
	return out
}
