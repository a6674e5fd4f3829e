// Package migrate implements live migration of stateful FlexBPF program
// instances between devices — the paper's motivating control operation
// (§3.4): "Consider migrating a stateful network app (e.g., one that
// maintains a count-min sketch). As the sketch state is updated for each
// packet, copying state via control plane software is impossible.
// Recent work has developed tools to perform state migration entirely in
// data plane [41, 65]."
//
// The Migrator is the executor's state mover (plan.StateMover): a
// migration is a ChangePlan (controller.Migrate builds it, and so does a
// redeploy that moves a segment) that installs the instance at the
// destination and then moves its state in a post-commit OpMigrateState
// step, in one of two ways:
//
//   - data plane: Swing-State-style packet-carried migration. State
//     chunks travel as dRPC packets while the source keeps processing;
//     at the flip instant traffic moves to the destination and the
//     residual delta (updates that landed during the transfer) is merged
//     additively. Additive state (array-map sketches, counters) loses
//     zero updates.
//
//   - control plane: the baseline. The controller snapshots the source
//     over its management channel (a latency proportional to state
//     size), imports it at the destination, then flips traffic. Every
//     update that hits the source after the snapshot is lost.
//
// Either way the mover flips traffic itself, by removing the source
// instance, and hands its plan.MoveReport back through the step's done
// callback; the executor files it on the step's plan.StepReport.
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
	"flexnet/internal/plan"
	"flexnet/internal/runtime"
)

// Migrator moves program instances between fabric devices. It
// implements plan.StateMover, so state moves appear as OpMigrateState
// steps inside ChangePlans rather than a private flow.
type Migrator struct {
	fab *fabric.Fabric
}

// New creates a migrator.
func New(fab *fabric.Fabric) *Migrator {
	return &Migrator{fab: fab}
}

// record emits the migrate.* metrics of a finished move into the fabric
// registry: moves attempted/failed, entries moved, updates lost
// (control-plane window) vs merged in-flight (data-plane residual), and
// the end-to-end move duration.
func (m *Migrator) record(rep *plan.MoveReport) {
	met := m.fab.Metrics
	met.Counter("migrate.moves").Inc()
	if rep.Err != nil {
		met.Counter("migrate.failed").Inc()
		return
	}
	met.Counter("migrate.entries_moved").Add(uint64(rep.ChunksSent))
	met.Counter("migrate.lost_updates").Add(rep.LostUpdates)
	met.Counter("migrate.inflight_merged").Add(rep.UpdatesDuringMigration - rep.LostUpdates)
	met.Histogram("migrate.duration_ns").Observe(int64(rep.Done - rep.Started))
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
	return runtime.MigrateLatency(logicalBytes(sinst.ExportState()))
}

// MoveState implements plan.StateMover: it transfers the instance's
// state from src to dst (which must already host an instance of the same
// name — the plan installs it in an earlier step), flips traffic and
// hands done the move's report. Failures before the flip leave the
// source authoritative and untouched; the flip is the commit point.
func (m *Migrator) MoveState(prog, src, dst string, useDataPlane bool, done func(plan.MoveReport)) {
	rep := plan.MoveReport{Program: prog, Src: src, Dst: dst, Started: m.fab.Sim.Now()}
	fin := func() {
		m.record(&rep)
		done(rep)
	}
	switch err := m.ValidateMove(prog, src, dst, useDataPlane); {
	case err != nil:
		rep.Err = err
		fin()
	case useDataPlane:
		m.transferData(&rep, fin)
	default:
		m.transferControl(&rep, fin)
	}
}

// flip moves the instance's traffic to the destination at this simulated
// instant by removing the source instance, so from now on only the
// destination's copy sees packets. A source that is already gone is not
// an error.
func (m *Migrator) flip(rep *plan.MoveReport) {
	_ = m.fab.Device(rep.Src).RemoveProgram(rep.Program)
	rep.Flipped = m.fab.Sim.Now()
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
// instance. Errors are recorded in rep.Err before done runs.
func (m *Migrator) transferControl(rep *plan.MoveReport, done func()) {
	sdev, ddev := m.fab.Device(rep.Src), m.fab.Device(rep.Dst)
	sinst, dinst := sdev.Instance(rep.Program), ddev.Instance(rep.Program)
	fail := func(err error) {
		rep.Err = err
		done()
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
	m.fab.Sim.After(runtime.MigrateLatency(bytes), func() {
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
		m.flip(rep)
		rep.Done = rep.Flipped
		done()
	})
}

// transferData is the data-plane migration, after the plan installed the
// destination instance: (1) stream a snapshot as dRPC packets while the
// source keeps processing and mutating, (2) flip traffic to the
// destination atomically, (3) stream the residual delta (source updates
// since the snapshot) and merge it additively.
// Errors before the flip — a fault, a failed import, or a receiver
// that acknowledges fewer chunks than were sent — leave the source
// authoritative; the flip is the commit point (a short or failed
// residual stream after it is reported in rep.Err).
func (m *Migrator) transferData(rep *plan.MoveReport, done func()) {
	sdev, ddev := m.fab.Device(rep.Src), m.fab.Device(rep.Dst)
	srouter, drouter := m.fab.Router(rep.Src), m.fab.Router(rep.Dst)
	sinst, dinst := sdev.Instance(rep.Program), ddev.Instance(rep.Program)
	fail := func(err error) {
		rep.Err = err
		done()
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
	sender.start(m.fab.Sim, func(err error) {
		// Phase 2: all chunks acknowledged → import snapshot at dst,
		// flip traffic, then merge residual delta.
		if err == nil {
			err = m.migrateFault(rep.Src, rep.Dst)
		}
		if err == nil {
			err = receiver.Commit()
		}
		if err != nil {
			drouter.Unregister(drpc.ServiceStatePush)
			fail(err)
			return
		}
		m.flip(rep)
		rep.UpdatesDuringMigration = instanceUpdates(sinst) - preUpdates

		// Phase 3: residual delta = src now − snapshot, additive.
		delta := diffLogical(sinst.ExportState(), snapshot)
		dsender := newStateSender(srouter, drouter.IP, delta, allNames)
		rep.ChunksSent += dsender.totalChunks()
		receiver.SetAdditive(true)
		dsender.start(m.fab.Sim, func(ackErr error) {
			// Merge what arrived even when some of it did not.
			if rep.Err = receiver.Commit(); rep.Err == nil {
				rep.Err = ackErr
			}
			drouter.Unregister(drpc.ServiceStatePush)
			rep.Done = m.fab.Sim.Now()
			rep.LostUpdates = 0
			done()
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
