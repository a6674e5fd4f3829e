package flexnet

// Facade-level HA failover semantics (DESIGN.md §15.3): a leader killed
// while a plan is in flight must freeze the transactional executor,
// fail over to a standby, and then resolve the plan deterministically —
// a plan killed between prepare and commit rolls back (the staged
// destination state is aborted, ErrFailover classifies the outcome),
// while a plan killed after its commit instant resumes its post steps
// and completes. The timeline is measured from a fault-free baseline
// run, so the kill lands at an exact simulated instant and the whole
// scenario replays byte-for-byte across reruns.

import (
	"context"
	"errors"
	"testing"
	"time"

	"flexnet/internal/controller"
	"flexnet/internal/plan"
)

const haTestURI = "flexnet://ha/mon"

// haNet builds the three-switch chain used by the failover tests, with
// a 3-replica HA controller group and the monitor app on s1.
func haNet(t *testing.T, seed int64) *Network {
	t.Helper()
	nw := New(seed).
		Switch("s1", DRMT).
		Switch("s2", DRMT).
		Switch("s3", DRMT).
		Host("h1", "10.0.0.1").
		Host("h2", "10.0.0.2").
		Link("h1", "s1").
		Link("s1", "s2").
		Link("s2", "h2").
		Link("s2", "s3").
		DRPC("s1", "172.16.0.1").
		DRPC("s2", "172.16.0.2").
		DRPC("s3", "172.16.0.3").
		MustBuild()
	nw.EnableHA(3, HAConfig{Seed: seed})
	if _, err := nw.Deploy(context.Background(), haTestURI, AppSpec{
		Programs: []*Program{HeavyHitter("hh", 2, 128, 1<<60)},
		Path:     []string{"s1"},
	}, DeployOptions{}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return nw
}

func haMigrate(nw *Network) (MigrationReport, *PlanReport, error) {
	return nw.Migrate(context.Background(), MigrateRequest{
		URI: haTestURI, Segment: "hh", Dst: "s3", DataPlane: true,
	})
}

// haMigrateTimeline measures the migration plan's fault-free timeline:
// the first prepare span's start, the commit instant, and the plan's
// end, as absolute simulated times.
func haMigrateTimeline(t *testing.T, seed int64) (prep, commit, end time.Duration) {
	t.Helper()
	nw := haNet(t, seed)
	_, prep2, err := haMigrate(nw)
	if err != nil {
		t.Fatalf("baseline migrate: %v", err)
	}
	tr := nw.PlanTrace(prep2.ID)
	for _, sp := range tr.Spans {
		switch {
		case sp.Name == "prepare" && prep == 0:
			prep = time.Duration(sp.StartNs)
		case sp.Name == "commit":
			commit = time.Duration(sp.StartNs)
		}
	}
	end = time.Duration(tr.EndNs)
	if prep == 0 || commit == 0 || end <= commit {
		t.Fatalf("could not measure plan timeline from trace %+v", tr)
	}
	return prep, commit, end
}

// haKillScenario replays the migration with the leader killed at the
// given absolute simulated time and returns the network for assertions.
func haKillScenario(t *testing.T, seed int64, killAt time.Duration) (*Network, MigrationReport, *PlanReport, error) {
	t.Helper()
	nw := haNet(t, seed)
	killed := -1
	nw.After(killAt-nw.Now(), func() {
		if id, ok := nw.HA().KillActive(); ok {
			killed = id
		}
	})
	rep, prep2, err := haMigrate(nw)
	if killed != 0 {
		t.Fatalf("kill fired on replica %d, want boot leader 0", killed)
	}
	return nw, rep, prep2, err
}

func TestHAKillBetweenPrepareAndCommitRollsBack(t *testing.T) {
	prep, commit, _ := haMigrateTimeline(t, 1)
	killAt := prep + (commit-prep)/2

	nw, _, prep2, err := haKillScenario(t, 1, killAt)
	if !errors.Is(err, ErrFailover) {
		t.Fatalf("err = %v, want ErrFailover", err)
	}
	if prep2.Outcome != plan.OutcomeRolledBack {
		t.Fatalf("outcome %v, want rolled back", prep2.Outcome)
	}
	if nw.Device("s3").Instance(haTestURI+"#hh") != nil {
		t.Fatal("rolled-back migration left state on s3")
	}
	if nw.Device("s1").Instance(haTestURI+"#hh") == nil {
		t.Fatal("source replica lost during rollback")
	}
	if drift := nw.IntentDrift(); len(drift) != 0 {
		t.Fatalf("intent drift after rollback: %v", drift)
	}
	assertHAFailoverClean(t, nw, 0, 1)
}

func TestHAKillAfterCommitResumes(t *testing.T) {
	_, commit, end := haMigrateTimeline(t, 1)
	killAt := commit + (end-commit)/2

	nw, rep, prep2, err := haKillScenario(t, 1, killAt)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if prep2.Outcome != plan.OutcomeSucceeded {
		t.Fatalf("outcome %v, want succeeded", prep2.Outcome)
	}
	if rep.LostUpdates != 0 {
		t.Fatalf("resumed migration lost %d updates", rep.LostUpdates)
	}
	if nw.Device("s3").Instance(haTestURI+"#hh") == nil {
		t.Fatal("committed migration missing from s3")
	}
	if drift := nw.IntentDrift(); len(drift) != 0 {
		t.Fatalf("intent drift after resume: %v", drift)
	}
	assertHAFailoverClean(t, nw, 1, 0)
}

// assertHAFailoverClean checks the invariants every failover owes the
// operator: exactly one failover happened, a standby (not the dead
// boot leader) now serves, the executor is unfrozen, the replayed
// shadow chain verified against the dead leader's audit trail, and the
// ha.* counters agree with the expected plan resolution.
func assertHAFailoverClean(t *testing.T, nw *Network, resumed, rolled uint64) {
	t.Helper()
	st := nw.HAStatus()
	if !st.Enabled || st.Failovers != 1 {
		t.Fatalf("HA status %+v, want enabled with 1 failover", st)
	}
	if st.Active == 0 || st.Active == -1 {
		t.Fatalf("active replica %d, want an elected standby", st.Active)
	}
	if st.Frozen {
		t.Fatal("executor still frozen after failover")
	}
	if err := nw.HA().LastErr(); err != nil {
		t.Fatalf("audit shadow chain mismatch: %v", err)
	}
	if err := nw.Audit().Verify(); err != nil {
		t.Fatalf("audit chain broken after failover: %v", err)
	}
	m := nw.Metrics()
	if got := m.CounterValue("ha.plans_resumed"); got != resumed {
		t.Fatalf("ha.plans_resumed = %d, want %d", got, resumed)
	}
	if got := m.CounterValue("ha.plans_rolled_back"); got != rolled {
		t.Fatalf("ha.plans_rolled_back = %d, want %d", got, rolled)
	}
	if got := m.CounterValue("ha.failovers"); got != 1 {
		t.Fatalf("ha.failovers = %d, want 1", got)
	}
}

// TestHAFailoverByteIdentical replays the mid-prepare kill twice: the
// full telemetry snapshot — traffic, plans, and every ha.* line — must
// not change by a byte.
func TestHAFailoverByteIdentical(t *testing.T) {
	prep, commit, _ := haMigrateTimeline(t, 1)
	killAt := prep + (commit-prep)/2
	run := func() string {
		nw, _, _, err := haKillScenario(t, 1, killAt)
		if !errors.Is(err, ErrFailover) {
			t.Fatalf("err = %v, want ErrFailover", err)
		}
		// Settle past the failover so heartbeat cadence is included.
		nw.RunFor(time.Second)
		return nw.Stats().Format()
	}
	if run() != run() {
		t.Fatal("same seed diverged across reruns")
	}
}

// TestHAOperatorFailoverDrill runs the documented runbook drill on a
// healthy network: HAFailover kills the leader, a standby takes over
// with nothing in flight, and the old leader rejoins as a standby.
func TestHAOperatorFailoverDrill(t *testing.T) {
	nw := haNet(t, 1)
	killed, err := nw.HAFailover()
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if killed != 0 {
		t.Fatalf("killed replica %d, want boot leader 0", killed)
	}
	nw.RunFor(2 * time.Second)
	st := nw.HAStatus()
	if st.Active <= 0 {
		t.Fatalf("no standby took over: %+v", st)
	}
	for _, r := range st.Replicas {
		if r.ID == killed {
			if !r.Alive || r.Role == "leader" {
				t.Fatalf("old leader did not rejoin as standby: %+v", r)
			}
			if r.Applied != st.LogLen {
				t.Fatalf("rejoined standby applied %d of %d", r.Applied, st.LogLen)
			}
		}
	}
	if got := nw.Metrics().CounterValue("ha.failovers"); got != 1 {
		t.Fatalf("ha.failovers = %d, want 1", got)
	}
}

// TestConcurrentMigrationsKeepTheirReportsAcrossFailover runs two
// control-plane migrations at once, one per switch pair, and kills the
// leader while both are in flight. The failover parks both plans'
// continuations and the new leader resumes them in order, so each
// Migrate callback must get the report of its own move, not whichever
// move finished last.
func TestConcurrentMigrationsKeepTheirReportsAcrossFailover(t *testing.T) {
	nw := New(1).
		Switch("s1", DRMT).Switch("s2", DRMT).
		Switch("s3", DRMT).Switch("s4", DRMT).
		Host("h1", "10.0.0.1").Host("h2", "10.0.0.2").
		Host("h3", "10.0.0.3").Host("h4", "10.0.0.4").
		Link("h1", "s1").Link("s1", "s2").Link("s2", "h2").
		Link("s2", "s3").
		Link("h3", "s3").Link("s3", "s4").Link("s4", "h4").
		MustBuild()
	nw.EnableHA(3, HAConfig{Seed: 1})
	moves := []struct{ uri, src, dst string }{
		{"flexnet://ha/a", "s1", "s2"},
		{"flexnet://ha/b", "s3", "s4"},
	}
	for _, mv := range moves {
		if _, err := nw.Deploy(context.Background(), mv.uri, AppSpec{
			Programs: []*Program{HeavyHitter("hh", 2, 128, 1<<60)},
			Path:     []string{mv.src},
		}, DeployOptions{}); err != nil {
			t.Fatalf("deploy %s: %v", mv.uri, err)
		}
	}

	reps := make([]*MigrationReport, len(moves))
	for i, mv := range moves {
		i := i
		nw.Controller().Migrate(context.Background(), controller.MigrateRequest{URI: mv.uri, Segment: "hh", Dst: mv.dst},
			func(r MigrationReport) { reps[i] = &r })
	}
	killed := false
	nw.After(45*time.Millisecond, func() { _, killed = nw.HA().KillActive() })
	for step := 0; step < 1000 && (reps[0] == nil || reps[1] == nil); step++ {
		nw.RunFor(10 * time.Millisecond)
	}
	if !killed {
		t.Fatal("no active leader to kill")
	}
	for i, mv := range moves {
		r := reps[i]
		if r == nil {
			t.Fatalf("migration of %s never reported", mv.uri)
		}
		if r.Err != nil {
			t.Fatalf("migration of %s: %v", mv.uri, r.Err)
		}
		if want := mv.uri + "#hh"; r.Program != want || r.Src != mv.src || r.Dst != mv.dst {
			t.Errorf("%s got the report of Program %s Src %s Dst %s, want %s %s -> %s",
				mv.uri, r.Program, r.Src, r.Dst, want, mv.src, mv.dst)
		}
	}
	if st := nw.HAStatus(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
}
