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
	// events is the ordered protocol trace:
	// "activate:<rep>:<known>/<loglen>", "event:<kind>:<n>".
	events []string
}

func newHAHarness(t *testing.T, n int, seed int64) *haHarness {
	t.Helper()
	h := &haHarness{sim: netsim.New(1)}
	h.g = NewHA(h.sim, n, HAConfig{Seed: seed})
	h.g.OnActivate = func(rep int, term uint64) {
		h.events = append(h.events,
			fmt.Sprintf("activate:%d:%d/%d", rep, h.g.Replica(rep).Known(), h.g.LogLen()))
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
		if err := h.g.Append(act.ID(), []byte(fmt.Sprintf("rec-%d", i))); err != nil {
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
		if rep.Known() != 5 {
			t.Fatalf("replica %d: known=%d, want 5", i, rep.Known())
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
	if act.Known() != h.g.LogLen() {
		t.Fatalf("new leader knows %d of %d", act.Known(), h.g.LogLen())
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
	if rep0.Known() != h.g.LogLen() {
		t.Fatalf("revived replica knows %d of %d", rep0.Known(), h.g.LogLen())
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
// before its activation fires — known == log head at OnActivate.
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
	if act.Known() != 6 {
		t.Fatalf("new leader knows %d, want 6", act.Known())
	}
}

func TestHAAppendOnStandbyRejected(t *testing.T) {
	h := newHAHarness(t, 3, 3)
	h.sim.RunFor(100 * time.Millisecond)
	for i := 1; i < 3; i++ {
		if err := h.g.Append(i, []byte("x")); err == nil {
			t.Fatalf("standby %d accepted an append", i)
		}
	}
	if h.g.LogLen() != 0 {
		t.Fatalf("log grew to %d through refused appends", h.g.LogLen())
	}
}

// TestHALeaderFailoverFiveReplicas kills the leader of a 5-replica group:
// a successor takes over, and after more appends through it every
// survivor knows the whole log.
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
		if rep := h.g.Replica(i); rep.Known() != h.g.LogLen() {
			t.Fatalf("survivor %d knows %d of %d", i, rep.Known(), h.g.LogLen())
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
	if err := h.g.Append(0, []byte("doomed")); err == nil {
		t.Fatal("minority leader accepted an append")
	}
	for i := 0; i < 2000; i++ {
		h.sim.RunFor(time.Millisecond)
		if n := h.g.ServingCount(); n != 0 {
			t.Fatalf("%d replicas serving at %v without a majority", n, h.sim.Now())
		}
	}
}

// knownInOrder checks that replica rep's watermark is want and that its
// copy of the log is exactly records 1..want, each once and in log
// order, carrying the payloads appendN wrote.
func (h *haHarness) knownInOrder(t *testing.T, rep int, want uint64) {
	t.Helper()
	r := h.g.Replica(rep)
	if r.Known() != want {
		t.Fatalf("replica %d knows %d records, want %d", rep, r.Known(), want)
	}
	for i, rec := range r.Log() {
		if rec.Seq != uint64(i+1) || string(rec.Payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("replica %d log[%d] = seq %d %q, want seq %d %q",
				rep, i, rec.Seq, rec.Payload, i+1, fmt.Sprintf("rec-%d", i))
		}
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
// checks that every standby learns all of them, in log order.
func TestReplicationAndApply(t *testing.T) {
	h := newHAHarness(t, 3, 2)
	h.sim.RunFor(100 * time.Millisecond)
	h.appendN(t, 10)
	h.sim.RunFor(time.Second)
	if h.g.LogLen() != 10 {
		t.Fatalf("log length %d, want 10", h.g.LogLen())
	}
	for i := 0; i < 3; i++ {
		h.knownInOrder(t, i, 10)
	}
}

// TestCrashedNodeCatchesUpOnRevive kills a standby, appends 8 records
// while it is down, and checks that it learns none of them until it is
// revived and then all of them, in order.
func TestCrashedNodeCatchesUpOnRevive(t *testing.T) {
	h := newHAHarness(t, 3, 5)
	h.sim.RunFor(100 * time.Millisecond)
	const victim = 1
	h.g.Replica(victim).Kill()
	h.appendN(t, 8)
	h.sim.RunFor(time.Second)
	if got := h.g.Replica(victim).Known(); got != 0 {
		t.Fatalf("dead replica learned %d records", got)
	}
	h.g.Replica(victim).Revive()
	h.sim.RunFor(2 * time.Second)
	h.knownInOrder(t, victim, 8)
	h.knownInOrder(t, 2, 8)
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
// requires the full protocol event trace to be identical across runs
// and equal to the pinned one: the election that follows the kill, and
// the successor's activation at the log head.
func TestHADeterministicTrace(t *testing.T) {
	syncs := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "event:sync:1"
		}
		return out
	}
	for _, tc := range []struct {
		n         int
		successor int
	}{{3, 2}, {5, 1}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			run := func() []string {
				h := newHAHarness(t, tc.n, 7)
				h.appendN(t, 3)
				h.sim.RunFor(100 * time.Millisecond)
				h.g.Replica(0).Kill()
				h.sim.RunFor(time.Second)
				h.appendN(t, 2)
				h.g.Replica(0).Revive()
				h.sim.RunFor(time.Second)
				return h.events
			}
			want := append(syncs(3), "event:election:1", fmt.Sprintf("activate:%d:3/3", tc.successor))
			want = append(want, syncs(2)...)
			for range 2 {
				if got := run(); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("trace\n%v\nwant\n%v", got, want)
				}
			}
		})
	}
}
