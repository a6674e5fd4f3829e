package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flexnet/internal/netsim"
)

// haHarness wires an HAGroup with event/activation recording.
type haHarness struct {
	sim *netsim.Sim
	g   *HAGroup
	// events is the ordered protocol trace: "apply:<rep>:<seq>",
	// "activate:<rep>:<applied>/<loglen>", "event:<kind>:<n>".
	events []string
}

func newHAHarness(t *testing.T, n int, seed int64) *haHarness {
	t.Helper()
	h := &haHarness{sim: netsim.New(1)}
	h.g = NewHA(h.sim, n, HAConfig{Seed: seed})
	h.g.OnApply = func(rep int, rec SyncRecord) {
		h.events = append(h.events, fmt.Sprintf("apply:%d:%d", rep, rec.Seq))
	}
	h.g.OnActivate = func(rep int, term uint64) {
		h.events = append(h.events,
			fmt.Sprintf("activate:%d:%d/%d", rep, h.g.Replica(rep).Applied(), h.g.LogLen()))
	}
	h.g.OnEvent = func(kind string, n uint64) {
		if kind != "heartbeat" { // too chatty for a trace
			h.events = append(h.events, fmt.Sprintf("event:%s:%d", kind, n))
		}
	}
	return h
}

func (h *haHarness) appendN(t *testing.T, n int) {
	t.Helper()
	act := h.g.Active()
	if act == nil {
		t.Fatal("no active replica to append through")
	}
	for i := 0; i < n; i++ {
		if _, err := h.g.Append(act.ID(), "audit", fmt.Sprintf("rec-%d", i), nil); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

func TestHABootAndReplication(t *testing.T) {
	h := newHAHarness(t, 3, 7)
	if got := h.g.Active(); got == nil || got.ID() != 0 {
		t.Fatalf("replica 0 should boot as active, got %v", got)
	}
	h.appendN(t, 5)
	h.sim.RunFor(50 * time.Millisecond)
	for i := 0; i < 3; i++ {
		rep := h.g.Replica(i)
		if rep.Known() != 5 || rep.Applied() != 5 {
			t.Fatalf("replica %d: known=%d applied=%d, want 5/5", i, rep.Known(), rep.Applied())
		}
	}
	if n := h.g.ServingCount(); n != 1 {
		t.Fatalf("serving count %d, want 1", n)
	}
}

func TestHALeaderKillFailsOver(t *testing.T) {
	h := newHAHarness(t, 3, 7)
	h.appendN(t, 3)
	h.sim.RunFor(100 * time.Millisecond)

	h.g.Replica(0).Kill()
	h.sim.RunFor(time.Second)

	act := h.g.Active()
	if act == nil {
		t.Fatal("no leader after kill")
	}
	if act.ID() == 0 {
		t.Fatal("dead replica still active")
	}
	if act.Applied() != h.g.LogLen() {
		t.Fatalf("new leader applied %d of %d", act.Applied(), h.g.LogLen())
	}
	if n := h.g.ServingCount(); n != 1 {
		t.Fatalf("serving count %d, want 1", n)
	}

	// The revived old leader rejoins as a standby and catches up on the
	// records appended while it was down.
	h.appendN(t, 2)
	h.g.Replica(0).Revive()
	h.sim.RunFor(500 * time.Millisecond)
	rep0 := h.g.Replica(0)
	if rep0.Role() == "leader" {
		t.Fatal("revived replica should be a standby")
	}
	if rep0.Applied() != h.g.LogLen() {
		t.Fatalf("revived replica applied %d of %d", rep0.Applied(), h.g.LogLen())
	}
}

// TestHASplitBrainPrevention partitions the serving leader away from
// both standbys and asserts that at no simulated instant do two
// replicas serve at once: the old leader's majority lease expires
// strictly before the partitioned majority can elect a successor.
func TestHASplitBrainPrevention(t *testing.T) {
	h := newHAHarness(t, 3, 11)
	h.sim.RunFor(100 * time.Millisecond)

	h.g.SetPartition([][]int{{0}, {1, 2}})
	sawNewLeader := false
	for i := 0; i < 1500; i++ {
		h.sim.RunFor(time.Millisecond)
		if n := h.g.ServingCount(); n > 1 {
			t.Fatalf("split brain at %v: %d replicas serving", h.sim.Now(), n)
		}
		if act := h.g.Active(); act != nil && act.ID() != 0 {
			sawNewLeader = true
		}
	}
	if !sawNewLeader {
		t.Fatal("majority side never elected a leader")
	}
	// The minority leader must have lost its lease (and stepped down).
	if h.g.Replica(0).Serving() {
		t.Fatal("partitioned minority leader still serving")
	}

	// Healing the partition must not create a second leader either: the
	// old leader hears the higher term and stays a follower.
	h.g.SetPartition(nil)
	for i := 0; i < 1000; i++ {
		h.sim.RunFor(time.Millisecond)
		if n := h.g.ServingCount(); n > 1 {
			t.Fatalf("split brain after heal at %v: %d serving", h.sim.Now(), n)
		}
	}
	if h.g.Replica(0).Role() == "leader" {
		t.Fatal("deposed leader did not step down after heal")
	}
}

// TestHAStaleBacklogReplaysBeforeServing cuts the leader off, appends
// records only it knows (the syncs are dropped by the partition), and
// checks that the standby that takes over replays every missed record
// before its activation fires — applied == log head at OnActivate.
func TestHAStaleBacklogReplaysBeforeServing(t *testing.T) {
	h := newHAHarness(t, 3, 13)
	h.appendN(t, 2)
	h.sim.RunFor(100 * time.Millisecond)

	// Partition the leader alone; it still serves under its lease for a
	// moment — records appended now reach the durable log but no standby.
	h.g.SetPartition([][]int{{0}, {1, 2}})
	h.appendN(t, 4)
	if h.g.Replica(1).Known() != 2 || h.g.Replica(2).Known() != 2 {
		t.Fatalf("standbys should be stale at 2, got %d/%d",
			h.g.Replica(1).Known(), h.g.Replica(2).Known())
	}

	h.sim.RunFor(2 * time.Second)
	act := h.g.Active()
	if act == nil || act.ID() == 0 {
		t.Fatalf("majority side did not take over (active %v)", act)
	}
	// The activation trace line proves replay happened before serving.
	want := fmt.Sprintf("activate:%d:6/6", act.ID())
	found := false
	for _, ev := range h.events {
		if ev == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %q in trace %v", want, h.events)
	}
	if act.Applied() != 6 {
		t.Fatalf("new leader applied %d, want 6", act.Applied())
	}
}

func TestHAAppendOnStandbyRejected(t *testing.T) {
	h := newHAHarness(t, 3, 3)
	h.sim.RunFor(100 * time.Millisecond)
	for i := 1; i < 3; i++ {
		if _, err := h.g.Append(i, "audit", "x", nil); err == nil {
			t.Fatalf("standby %d accepted an append", i)
		}
	}
	if h.g.LogLen() != 0 {
		t.Fatalf("log grew to %d through refused appends", h.g.LogLen())
	}
}

// TestHALeaderFailoverFiveReplicas kills the leader of a 5-replica group:
// a successor takes over, and after more appends through it every
// survivor has applied the whole log.
func TestHALeaderFailoverFiveReplicas(t *testing.T) {
	h := newHAHarness(t, 5, 4)
	h.appendN(t, 5)
	h.sim.RunFor(time.Second)
	h.g.Replica(0).Kill()
	h.sim.RunFor(time.Second)
	act := h.g.Active()
	if act == nil || act.ID() == 0 {
		t.Fatalf("no successor after leader kill (active %v)", act)
	}
	h.appendN(t, 10)
	h.sim.RunFor(time.Second)
	if h.g.LogLen() != 15 {
		t.Fatalf("log length %d, want 15", h.g.LogLen())
	}
	for i := 1; i < 5; i++ {
		if rep := h.g.Replica(i); rep.Applied() != h.g.LogLen() {
			t.Fatalf("survivor %d applied %d of %d", i, rep.Applied(), h.g.LogLen())
		}
	}
}

// TestHAMinorityStopsServing kills 3 of 5 replicas: the leader, left
// without a majority, stops serving within three heartbeat rounds and
// refuses appends, and no survivor serves afterwards.
func TestHAMinorityStopsServing(t *testing.T) {
	h := newHAHarness(t, 5, 6)
	h.sim.RunFor(100 * time.Millisecond)
	for i := 2; i < 5; i++ {
		h.g.Replica(i).Kill()
	}
	// The kill lands just after the leader sent its 100 ms round; that
	// round and the next two go unacked, and the third miss forces the
	// step-down.
	h.sim.RunFor(3 * heartbeatNs)
	ld := h.g.Replica(0)
	if ld.Serving() {
		t.Fatal("leader still serving without a majority")
	}
	if _, err := h.g.Append(0, "audit", "doomed", nil); err == nil {
		t.Fatal("minority leader accepted an append")
	}
	for i := 0; i < 2000; i++ {
		h.sim.RunFor(time.Millisecond)
		if n := h.g.ServingCount(); n != 0 {
			t.Fatalf("%d replicas serving at %v without a majority", n, h.sim.Now())
		}
	}
}

// appliedInOrder checks that replica rep applied exactly records
// 1..want through OnApply, each once and in log order.
func (h *haHarness) appliedInOrder(t *testing.T, rep int, want uint64) {
	t.Helper()
	prefix := fmt.Sprintf("apply:%d:", rep)
	var next uint64 = 1
	for _, ev := range h.events {
		if !strings.HasPrefix(ev, prefix) {
			continue
		}
		if got := ev[len(prefix):]; got != fmt.Sprint(next) {
			t.Fatalf("replica %d applied seq %s, want %d", rep, got, next)
		}
		next++
	}
	if next-1 != want {
		t.Fatalf("replica %d applied %d records, want %d", rep, next-1, want)
	}
}

// leaders counts live replicas that believe they lead.
func (h *haHarness) leaders() int {
	n := 0
	for i := 0; i < h.g.Size(); i++ {
		if rep := h.g.Replica(i); rep.Alive() && rep.Role() == "leader" {
			n++
		}
	}
	return n
}

// TestLeaderElection checks that a 5-replica group has exactly one
// leader at boot and, after that leader is killed, exactly one elected
// successor that serves.
func TestLeaderElection(t *testing.T) {
	h := newHAHarness(t, 5, 1)
	h.sim.RunFor(2 * time.Second)
	if n := h.leaders(); n != 1 {
		t.Fatalf("%d leaders at boot", n)
	}
	h.g.Replica(0).Kill()
	h.sim.RunFor(2 * time.Second)
	act := h.g.Active()
	if act == nil || act.ID() == 0 {
		t.Fatalf("no successor elected (active %v)", act)
	}
	if n := h.leaders(); n != 1 {
		t.Fatalf("%d leaders after election", n)
	}
	if n := h.g.ServingCount(); n != 1 {
		t.Fatalf("serving count %d, want 1", n)
	}
}

// TestReplicationAndApply appends 10 records through the leader and
// checks that every standby applies all of them, in log order.
func TestReplicationAndApply(t *testing.T) {
	h := newHAHarness(t, 3, 2)
	h.sim.RunFor(100 * time.Millisecond)
	h.appendN(t, 10)
	h.sim.RunFor(time.Second)
	if h.g.LogLen() != 10 {
		t.Fatalf("log length %d, want 10", h.g.LogLen())
	}
	for i := 0; i < 3; i++ {
		if rep := h.g.Replica(i); rep.Applied() != 10 {
			t.Fatalf("replica %d applied %d/10", i, rep.Applied())
		}
	}
	for i := 1; i < 3; i++ {
		h.appliedInOrder(t, i, 10)
	}
}

// TestCrashedNodeCatchesUpOnRevive kills a standby, appends 8 records
// while it is down, and checks that it applies none of them until it is
// revived and then all of them, in order.
func TestCrashedNodeCatchesUpOnRevive(t *testing.T) {
	h := newHAHarness(t, 3, 5)
	h.sim.RunFor(100 * time.Millisecond)
	const victim = 1
	h.g.Replica(victim).Kill()
	h.appendN(t, 8)
	h.sim.RunFor(time.Second)
	if got := h.g.Replica(victim).Applied(); got != 0 {
		t.Fatalf("dead replica applied %d records", got)
	}
	h.g.Replica(victim).Revive()
	h.sim.RunFor(2 * time.Second)
	if got := h.g.Replica(victim).Applied(); got != 8 {
		t.Fatalf("revived replica applied %d/8", got)
	}
	h.appliedInOrder(t, victim, 8)
	h.appliedInOrder(t, 2, 8)
}

// TestDeterministicElections reruns a 5-replica leader kill at one seed
// and requires the same successor to win in the same term.
func TestDeterministicElections(t *testing.T) {
	run := func() (int, uint64) {
		h := newHAHarness(t, 5, 77)
		h.sim.RunFor(100 * time.Millisecond)
		h.g.Replica(0).Kill()
		h.sim.RunFor(3 * time.Second)
		act := h.g.Active()
		if act == nil {
			t.Fatal("no leader")
		}
		return act.ID(), act.Term()
	}
	l1, t1 := run()
	l2, t2 := run()
	if l1 != l2 || t1 != t2 {
		t.Fatalf("non-deterministic election: (%d,%d) vs (%d,%d)", l1, t1, l2, t2)
	}
}

// TestHADeterministicTrace reruns the same failover scenario and
// requires the full protocol event trace to be identical.
func TestHADeterministicTrace(t *testing.T) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			run := func() []string {
				h := newHAHarness(t, n, 7)
				h.appendN(t, 3)
				h.sim.RunFor(100 * time.Millisecond)
				h.g.Replica(0).Kill()
				h.sim.RunFor(time.Second)
				h.appendN(t, 2)
				h.g.Replica(0).Revive()
				h.sim.RunFor(time.Second)
				return h.events
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trace diverges at %d: %q vs %q", i, a[i], b[i])
				}
			}
		})
	}
}
