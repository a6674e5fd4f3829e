package runtime

import (
	"testing"
	"time"

	"flexnet/internal/netsim"
	"flexnet/internal/plan"
)

// submit runs p through x and records the simulated instant it finished.
func submit(x *Executor, sim *netsim.Sim, p *plan.ChangePlan) (finished *netsim.Time, rep **plan.Report) {
	var at netsim.Time
	var r *plan.Report
	x.Execute(p, func(rr *plan.Report) { at, r = sim.Now(), rr })
	return &at, &r
}

func TestExecutorDisjointPlansRunConcurrently(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)

	// s1 and s3 are disjoint footprints: both plans must be admitted at
	// submission and prepare in parallel, so they finish at the same
	// simulated instant — one install's latency, not two.
	doneA, repA := submit(x, f.Sim, plan.New("A").Install("s1", "a", aclProgram("a"), nil, 0))
	doneB, repB := submit(x, f.Sim, plan.New("B").Install("s3", "b", aclProgram("b"), nil, 0))
	f.Sim.RunFor(2 * time.Second)
	if *repA == nil || *repB == nil {
		t.Fatal("plans did not finish")
	}
	if (*repA).Err != nil || (*repB).Err != nil {
		t.Fatalf("errs: %v / %v", (*repA).Err, (*repB).Err)
	}
	if *doneA != *doneB {
		t.Fatalf("disjoint plans serialized: A finished at %v, B at %v", *doneA, *doneB)
	}
	if (*repA).Actual != (*repB).Actual {
		t.Fatalf("latencies differ: %v vs %v", (*repA).Actual, (*repB).Actual)
	}
}

func TestExecutorConflictingPlansSerializeFIFO(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)

	// A and B both touch s1: B waits for A. C touches only s3 and
	// conflicts with neither, so it overtakes B and finishes with A.
	doneA, _ := submit(x, f.Sim, plan.New("A").Install("s1", "a", aclProgram("a"), nil, 0))
	doneB, _ := submit(x, f.Sim, plan.New("B").Install("s1", "b", aclProgram("b"), nil, 0))
	doneC, _ := submit(x, f.Sim, plan.New("C").Install("s3", "c", aclProgram("c"), nil, 0))
	f.Sim.RunFor(2 * time.Second)
	if *doneB <= *doneA {
		t.Fatalf("conflicting plan B (done %v) did not wait for A (done %v)", *doneB, *doneA)
	}
	if *doneC != *doneA {
		t.Fatalf("disjoint plan C (done %v) failed to overtake the blocked queue (A done %v)", *doneC, *doneA)
	}
	// Completion order — and therefore Reports order — is A, C, B.
	if reps := x.ReportsSince(0); x.Completed() != 3 || reps[0].Label != "A" || reps[1].Label != "C" || reps[2].Label != "B" {
		var got []string
		for _, r := range reps {
			got = append(got, r.Label)
		}
		t.Fatalf("report order %v, want [A C B]", got)
	}
}

func TestExecutorGlobalPlanBlocksEverything(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)

	// A route update is a global footprint: the disjoint install behind
	// it must NOT overtake (FIFO against a global plan), even though its
	// devices are free.
	doneR, repR := submit(x, f.Sim, plan.New("routes").RouteUpdate())
	doneB, _ := submit(x, f.Sim, plan.New("B").Install("s3", "b", aclProgram("b"), nil, 0))
	f.Sim.RunFor(2 * time.Second)
	if *repR == nil || (*repR).Err != nil {
		t.Fatalf("route update: %+v", *repR)
	}
	if *doneB <= *doneR {
		t.Fatalf("install overtook a global route update: B done %v, routes done %v", *doneB, *doneR)
	}
}

func TestExecutorMigrateSourceIsPartOfFootprint(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, &fakeMover{})

	if rep := runPlan(t, f, x, plan.New("seed").Install("s1", "m", counterProgram("m", 0), nil, 0)); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	// The move plan installs on s2 but drains state FROM s1; a plan
	// touching only s1 must conflict with it and wait.
	doneMove, repMove := submit(x, f.Sim, plan.New("move").
		Install("s2", "m", counterProgram("m", 0), nil, 0).
		MigrateState("m", "s1", "s2", false).
		Remove("s1", "m"))
	doneS1, repS1 := submit(x, f.Sim, plan.New("touch-src").Install("s1", "x", aclProgram("x"), nil, 0))
	f.Sim.RunFor(5 * time.Second)
	if *repMove == nil || (*repMove).Err != nil {
		t.Fatalf("move: %+v", *repMove)
	}
	if *repS1 == nil || (*repS1).Err != nil {
		t.Fatalf("touch-src: %+v", *repS1)
	}
	if *doneS1 <= *doneMove {
		t.Fatalf("plan touching migration source ran concurrently: touch-src done %v, move done %v", *doneS1, *doneMove)
	}
}

// TestExecutorSerialModeMatchesConcurrentState: submitting every plan
// at once (concurrent admission) leaves the devices as running each plan
// to completion before submitting the next does.
func TestExecutorSerialModeMatchesConcurrentState(t *testing.T) {
	build := func(serial bool) string {
		f, _ := threeSwitchLine(t)
		_, x := newTestExecutor(f, nil)
		plans := []*plan.ChangePlan{
			plan.New("A").Install("s1", "a", aclProgram("a"), nil, 0),
			plan.New("B").Install("s3", "b", aclProgram("b"), nil, 0),
			plan.New("C").Install("s2", "c", counterProgram("c", 4), nil, 0),
			plan.New("D").Swap("s1", "a", aclProgram("a2"), nil),
		}
		n := 0
		for _, p := range plans {
			x.Execute(p, func(r *plan.Report) {
				if r.Err != nil {
					t.Fatalf("serial=%v plan %s: %v", serial, r.Label, r.Err)
				}
				n++
			})
			if serial {
				f.Sim.RunFor(5 * time.Second)
			}
		}
		f.Sim.RunFor(5 * time.Second)
		if n != len(plans) {
			t.Fatalf("serial=%v: only %d/%d plans finished", serial, n, len(plans))
		}
		var snap string
		for _, d := range []string{"s1", "s2", "s3"} {
			snap += "== " + d + "\n" + deviceSnapshot(f.Device(d))
		}
		return snap
	}

	serialSnap, concSnap := build(true), build(false)
	if serialSnap != concSnap {
		t.Fatalf("device state diverged between serial and concurrent admission:\nserial:\n%s\nconcurrent:\n%s", serialSnap, concSnap)
	}
}
