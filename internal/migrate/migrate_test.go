package migrate

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexnet/internal/apps"
	"flexnet/internal/dataplane"
	"flexnet/internal/dataplane/state"
	"flexnet/internal/drpc"
	"flexnet/internal/fabric"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
	"flexnet/internal/runtime"
)

// migrationFabric builds:
//
//	h1 — s1 — s2 — h2
//
// with dRPC on both switches and a heavy-hitter monitor on s1 whose
// traffic (h1→h2) mutates it per packet. The migrator's flip removes the
// monitor from the source, so from then on only the destination updates.
func migrationFabric(t *testing.T) (*fabric.Fabric, *Migrator, *netsim.Source) {
	t.Helper()
	f := fabric.New(42)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	f.Connect("s2", "h2", netsim.DefaultLink())
	if _, err := f.EnableDRPC("s1", packet.IP(172, 16, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.EnableDRPC("s2", packet.IP(172, 16, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}

	// The monitor must run before routing on s1, which forwards and so
	// ends the chain: remove routing, add the monitor, re-add routing.
	// (The destination's copy is appended after routing and never runs;
	// what the accounting tests need is that s1 stops updating at the
	// flip.)
	mon := apps.HeavyHitter("mon", 2, 256, 1<<62)
	s1 := f.Device("s1")
	if err := s1.Swap(func(st *dataplane.StagedConfig) error {
		if err := st.Remove(fabric.InfraProgramName); err != nil {
			return err
		}
		if err := st.Install(mon, nil); err != nil {
			return err
		}
		return st.Install(fabric.InfraRoutingProgram(), nil)
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.RefreshRoutes(); err != nil {
		t.Fatal(err)
	}

	m := New(f)
	src := h1.NewSource(netsim.FlowSpec{
		Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoTCP,
		SrcPort: 1111, DstPort: 80, PacketLen: 200,
	})
	return f, m, src
}

// runMigration moves prog from src to dst the way every migration runs:
// a plan that installs the instance at dst, then moves its state (dp
// selects the data plane), on an executor whose state mover is m. done
// receives the report the migrate-state step carries, or the plan's
// error when the plan failed before the mover ran.
func runMigration(f *fabric.Fabric, m *Migrator, prog, src, dst string, dp bool, done func(plan.MoveReport)) {
	p := plan.New("migrate " + prog)
	if sdev := f.Device(src); sdev != nil && sdev.Instance(prog) != nil {
		p.Install(dst, prog, sdev.Instance(prog).Program(), nil, 0)
	}
	p.MigrateState(prog, src, dst, dp)
	runtime.NewExecutor(f.Sim, f.Device, m, nil).Execute(p, func(r *plan.Report) {
		if mv := r.Steps[len(r.Steps)-1].Move; mv != nil {
			done(*mv)
			return
		}
		done(plan.MoveReport{Program: prog, Src: src, Dst: dst, Err: r.Err})
	})
}

func monUpdates(f *fabric.Fabric, dev string) uint64 {
	d := f.Device(dev)
	inst := d.Instance("mon")
	if inst == nil {
		return 0
	}
	return instanceUpdates(inst)
}

func TestDataPlaneMigrationLosesNothing(t *testing.T) {
	f, m, src := migrationFabric(t)
	src.StartCBR(100000) // heavy per-packet mutation

	var rep plan.MoveReport
	gotRep := false
	f.Sim.At(20*time.Millisecond, func() {
		// Warm state exists; migrate mon s1 → s2 through the data plane.
		runMigration(f, m, "mon", "s1", "s2", true, func(r plan.MoveReport) { rep = r; gotRep = true })
	})
	f.Sim.RunUntil(400 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if !gotRep {
		t.Fatal("migration did not complete")
	}
	if rep.Err != nil {
		t.Fatalf("migration failed: %v", rep.Err)
	}
	if rep.LostUpdates != 0 {
		t.Fatalf("data-plane migration lost %d updates", rep.LostUpdates)
	}
	if rep.ChunksSent == 0 {
		t.Fatal("no state chunks sent")
	}
	if rep.UpdatesDuringMigration == 0 {
		t.Fatal("test not exercising concurrent mutation (no updates during migration)")
	}
	// Conservation: total updates seen at dst ≈ updates accrued at src
	// before flip + dst's own updates after flip. The invariant: nothing
	// vanished — dst total >= src total at flip time.
	dstTotal := monUpdates(f, "s2")
	if dstTotal == 0 {
		t.Fatal("destination has no state")
	}
	if f.Device("s1").Instance("mon") != nil {
		t.Fatal("source still has the program after flip")
	}
}

// TestResidualShortAckReported drops one chunk of the residual stream,
// after the flip: the move cannot be undone by then, so it must report
// the short acknowledgement in its Err rather than claim success, and
// the plan must keep the destination, the only copy left.
func TestResidualShortAckReported(t *testing.T) {
	f, m, src := migrationFabric(t)
	src.StartCBR(100000)
	dropped := 0
	f.Router("s1").SetInterceptor(func(p *packet.Packet) drpc.Verdict {
		msg, ok := drpc.FromPacket(p)
		flipped := f.Device("s1").Instance("mon") == nil
		if !ok || !flipped || msg.Method != MethodChunk || dropped > 0 {
			return drpc.Verdict{}
		}
		dropped++
		return drpc.Verdict{Drop: true}
	})
	var rep plan.MoveReport
	f.Sim.At(20*time.Millisecond, func() {
		runMigration(f, m, "mon", "s1", "s2", true, func(r plan.MoveReport) { rep = r })
	})
	f.Sim.RunUntil(400 * time.Millisecond)
	if dropped != 1 {
		t.Fatalf("dropped %d residual chunks, want 1", dropped)
	}
	if rep.Flipped == 0 {
		t.Fatalf("move failed before the flip: %v", rep.Err)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "acknowledged") {
		t.Fatalf("short residual acknowledgement reported err %v", rep.Err)
	}
	if f.Device("s2").Instance("mon") == nil {
		t.Fatal("a short residual stream rolled the destination back after the flip")
	}
	if f.Device("s1").Instance("mon") != nil {
		t.Fatal("source still has the program after the flip")
	}
}

// zeroedSlotsMismatch warms the heavy-hitter monitor on s1, stops the
// traffic, clears its counted row-0 slots to 0 (stores, not
// deletes: a cleared slot is state the destination must hold as well),
// migrates the monitor to s2 over the management channel — with no
// traffic, neither copy changes after the snapshot — and returns every
// map whose destination copy differs from the source in its entry count
// or its entries.
func zeroedSlotsMismatch(t *testing.T) []string {
	t.Helper()
	f, m, src := migrationFabric(t)
	sinst := f.Device("s1").Instance("mon")
	src.StartCBR(100000)
	f.Sim.At(20*time.Millisecond, func() {
		src.Stop()
		row, cleared := sinst.Store().Map("mon_row0"), 0
		for k := uint64(0); k < 256; k++ {
			if v, _ := row.Load(k); v != 0 {
				if err := row.Store(k, 0); err != nil {
					t.Fatal(err)
				}
				cleared++
			}
		}
		if cleared == 0 {
			t.Fatal("the monitor counted nothing before the migration")
		}
	})
	var rep plan.MoveReport
	f.Sim.At(21*time.Millisecond, func() {
		runMigration(f, m, "mon", "s1", "s2", false, func(r plan.MoveReport) { rep = r })
	})
	f.Sim.RunUntil(400 * time.Millisecond)
	if rep.Err != nil || rep.ChunksSent == 0 {
		t.Fatalf("migration: err %v, %d chunks", rep.Err, rep.ChunksSent)
	}
	dinst := f.Device("s2").Instance("mon")
	var bad []string
	for _, name := range sortedNames(sinst) {
		sm, dm := sinst.Store().Map(name), dinst.Store().Map(name)
		if sm == nil {
			continue
		}
		if sm.Len() != dm.Len() || !reflect.DeepEqual(sm.Export().Entries, dm.Export().Entries) {
			bad = append(bad, fmt.Sprintf("%s: %d entries at the source, %d at the destination", name, sm.Len(), dm.Len()))
		}
	}
	return bad
}

// TestMigrationCarriesZeroedSlots: a heavy-hitter row slot written with
// 0 is an entry of the monitor's state, and migration moves it.
func TestMigrationCarriesZeroedSlots(t *testing.T) {
	if bad := zeroedSlotsMismatch(t); len(bad) > 0 {
		t.Fatalf("migrated state differs from the source: %v", bad)
	}
}

func TestControlPlaneMigrationLosesUpdates(t *testing.T) {
	f, m, src := migrationFabric(t)
	src.StartCBR(100000)

	var rep plan.MoveReport
	f.Sim.At(20*time.Millisecond, func() {
		runMigration(f, m, "mon", "s1", "s2", false, func(r plan.MoveReport) { rep = r })
	})
	f.Sim.RunUntil(400 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if rep.Err != nil {
		t.Fatalf("baseline migration failed: %v", rep.Err)
	}
	if rep.LostUpdates == 0 {
		t.Fatal("control-plane migration lost nothing — per-packet mutation not modelled")
	}
	if rep.UpdatesDuringMigration != rep.LostUpdates {
		t.Fatalf("baseline loses exactly the migration-window updates: %d vs %d",
			rep.UpdatesDuringMigration, rep.LostUpdates)
	}
}

func TestDataPlaneBeatsControlPlaneOnLoss(t *testing.T) {
	// Run both on identical seeds and compare loss — the paper's
	// qualitative claim in one assertion.
	lossOf := func(dp bool) uint64 {
		f, m, src := migrationFabric(t)
		src.StartCBR(100000)
		var rep plan.MoveReport
		f.Sim.At(20*time.Millisecond, func() {
			if dp {
				runMigration(f, m, "mon", "s1", "s2", true, func(r plan.MoveReport) { rep = r })
			} else {
				runMigration(f, m, "mon", "s1", "s2", false, func(r plan.MoveReport) { rep = r })
			}
		})
		f.Sim.RunUntil(400 * time.Millisecond)
		if rep.Err != nil {
			t.Fatalf("migration failed: %v", rep.Err)
		}
		return rep.LostUpdates
	}
	dpLoss := lossOf(true)
	cpLoss := lossOf(false)
	if dpLoss != 0 || cpLoss == 0 {
		t.Fatalf("dp loss = %d, cp loss = %d", dpLoss, cpLoss)
	}
}

func TestMigrateErrors(t *testing.T) {
	f := fabric.New(1)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	m := New(f)

	var rep plan.MoveReport
	runMigration(f, m, "ghost", "s1", "s2", true, func(r plan.MoveReport) { rep = r })
	f.Sim.RunFor(time.Second)
	if rep.Err == nil {
		t.Fatal("migrating without dRPC succeeded")
	}

	runMigration(f, m, "ghost", "s1", "s2", false, func(r plan.MoveReport) { rep = r })
	f.Sim.RunFor(time.Second)
	if rep.Err == nil {
		t.Fatal("migrating missing program succeeded")
	}

	runMigration(f, m, "x", "nope", "s2", false, func(r plan.MoveReport) { rep = r })
	if rep.Err == nil {
		t.Fatal("migrating from unknown device succeeded")
	}
}

func TestDRPCPingAcrossFabric(t *testing.T) {
	f := fabric.New(7)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	r1, err := f.EnableDRPC("s1", packet.IP(172, 16, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.EnableDRPC("s2", packet.IP(172, 16, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}

	// Ping s2 from s1 across the simulated network.
	if err := r2.Register(drpc.ServicePing, drpc.PingHandler()); err != nil {
		t.Fatal(err)
	}
	var echoed uint64
	r1.Call(r2.IP, drpc.ServicePing, 0, [3]uint64{12345, 0, 0}, func(m drpc.Message, ok bool) {
		if ok {
			echoed = m.Args[0]
		}
	})
	f.Sim.RunFor(10 * time.Millisecond)
	if echoed != 12345 {
		t.Fatalf("ping echo = %d", echoed)
	}

	// Unknown service yields an error reply.
	gotErr := false
	r1.Call(r2.IP, 999, 0, [3]uint64{}, func(m drpc.Message, ok bool) { gotErr = !ok })
	f.Sim.RunFor(10 * time.Millisecond)
	if !gotErr {
		t.Fatal("unknown service did not error")
	}
}

func TestDiffLogical(t *testing.T) {
	old := []state.Logical{{Name: "m", Kind: "map", Entries: []state.KV{{Key: 1, Val: 10}, {Key: 2, Val: 5}}}}
	new := []state.Logical{{Name: "m", Kind: "map", Entries: []state.KV{{Key: 1, Val: 13}, {Key: 2, Val: 5}, {Key: 3, Val: 7}}}}
	d := diffLogical(new, old)
	if len(d) != 1 || len(d[0].Entries) != 2 {
		t.Fatalf("delta = %+v", d)
	}
	want := map[uint64]uint64{1: 3, 3: 7}
	for _, kv := range d[0].Entries {
		if want[kv.Key] != kv.Val {
			t.Fatalf("delta entry %d = %d", kv.Key, kv.Val)
		}
	}
	// No change → empty delta.
	if d := diffLogical(old, old); len(d) != 0 {
		t.Fatalf("self-delta = %+v", d)
	}
}
