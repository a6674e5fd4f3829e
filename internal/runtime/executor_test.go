package runtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"flexnet/internal/dataplane"
	"flexnet/internal/errdefs"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
	"flexnet/internal/telemetry"
)

// threeSwitchLine builds h1 — s1 — s2 — s3 — h2 with base routing and
// returns the fabric plus a CBR source at h1.
func threeSwitchLine(t *testing.T) (*fabric.Fabric, *netsim.Source) {
	t.Helper()
	f := fabric.New(7)
	f.AddSwitch("s1", dataplane.ArchDRMT)
	f.AddSwitch("s2", dataplane.ArchDRMT)
	f.AddSwitch("s3", dataplane.ArchTile)
	h1 := f.AddHost("h1", packet.IP(10, 0, 0, 1))
	f.AddHost("h2", packet.IP(10, 0, 0, 2))
	f.Connect("h1", "s1", netsim.DefaultLink())
	f.Connect("s1", "s2", netsim.DefaultLink())
	f.Connect("s2", "s3", netsim.DefaultLink())
	f.Connect("s3", "h2", netsim.DefaultLink())
	if err := f.InstallBaseRouting(); err != nil {
		t.Fatal(err)
	}
	src := h1.NewSource(netsim.FlowSpec{
		Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP,
		SrcPort: 1000, DstPort: 2000, PacketLen: 300,
	})
	return f, src
}

func newTestExecutor(f *fabric.Fabric, mover plan.StateMover) (*Engine, *Executor) {
	eng := NewEngine(f.Sim, DefaultCosts())
	return eng, NewExecutor(eng, f.Device, mover, f)
}

// counterProgram is a pure-compute program that counts every packet.
func counterProgram(name string, extraNops int) *flexbpf.Program {
	code := flexbpf.NewAsm().
		MovImm(0, 0).
		MovImm(1, 1).
		Count(name+"_pkts", 0, 1).
		MustBuild()
	for i := 0; i < extraNops; i++ {
		code = append(code, flexbpf.Instr{Op: flexbpf.OpNop})
	}
	return flexbpf.NewProgram(name).
		Counter(name+"_pkts", 1).
		Do(append(code, flexbpf.Instr{Op: flexbpf.OpRet})).
		MustBuild()
}

// deviceSnapshot renders a device's packet-visible configuration and
// state — installed programs, their logical state, and table contents —
// as a canonical string for byte-identical comparisons.
func deviceSnapshot(d *dataplane.Device) string {
	var b strings.Builder
	progs := append([]string(nil), d.Programs()...)
	sort.Strings(progs)
	for _, name := range progs {
		inst := d.Instance(name)
		fmt.Fprintf(&b, "program %s\n", name)
		for _, l := range inst.ExportState() {
			kvs := l.Entries
			sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
			fmt.Fprintf(&b, "  state %s/%v %v\n", l.Name, l.Kind, kvs)
		}
		var tables []string
		for tn := range inst.Tables() {
			tables = append(tables, tn)
		}
		sort.Strings(tables)
		for _, tn := range tables {
			fmt.Fprintf(&b, "  table %s:", tn)
			for _, e := range inst.Table(tn).Entries() {
				fmt.Fprintf(&b, " %v->%s%v", e.Match, e.Action, e.Params)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func runPlan(t *testing.T, f *fabric.Fabric, x *Executor, p *plan.ChangePlan) *plan.Report {
	t.Helper()
	var rep *plan.Report
	x.Execute(p, func(r *plan.Report) { rep = r })
	f.Sim.RunFor(2 * time.Second)
	if rep == nil {
		t.Fatalf("plan %q did not finish", p.Label)
	}
	return rep
}

func TestExecutorCommitsMultiDevicePlan(t *testing.T) {
	f, src := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	src.StartCBR(20000)
	f.Sim.RunFor(30 * time.Millisecond)

	p := plan.New("deploy acl").
		Install("s1", "acl1", aclProgram("acl1"), nil, 0).
		Install("s2", "acl2", aclProgram("acl2"), nil, 0).
		Install("s3", "acl3", aclProgram("acl3"), nil, 0)
	rep := runPlan(t, f, x, p)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if rep.Err != nil {
		t.Fatalf("plan failed: %v", rep.Err)
	}
	if rep.Outcome != plan.OutcomeSucceeded || rep.Phase != plan.PhaseDone {
		t.Fatalf("outcome %v phase %v", rep.Outcome, rep.Phase)
	}
	if rep.Estimated <= 0 || rep.Actual <= 0 {
		t.Fatalf("estimated %v actual %v", rep.Estimated, rep.Actual)
	}
	for i, sw := range []string{"s1", "s2", "s3"} {
		if f.Device(sw).Instance(fmt.Sprintf("acl%d", i+1)) == nil {
			t.Fatalf("%s missing its instance", sw)
		}
	}
	for _, sr := range rep.Steps {
		if sr.Status != plan.StepCommitted {
			t.Fatalf("step %s status %v", sr.Step, sr.Status)
		}
	}
	if got, want := f.Host("h2").Received, src.Sent; got != want {
		t.Fatalf("lost packets during plan: %d of %d", got, want)
	}
	if f.InfrastructureDrops() != 0 {
		t.Fatalf("infrastructure drops = %d", f.InfrastructureDrops())
	}
}

func TestExecutorValidateIsPureDryRun(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	p := plan.New("dry").Install("s1", "acl", aclProgram("acl"), nil, 0)
	rep := x.Validate(p)
	if rep.Err != nil {
		t.Fatalf("valid plan rejected: %v", rep.Err)
	}
	if rep.Outcome != plan.OutcomePlanned {
		t.Fatalf("outcome = %v", rep.Outcome)
	}
	if rep.Estimated <= 0 {
		t.Fatal("no cost estimate")
	}
	if f.Device("s1").Instance("acl") != nil {
		t.Fatal("dry run mutated the device")
	}
	if f.Sim.Now() != 0 {
		t.Fatal("dry run advanced simulated time")
	}
}

func TestExecutorValidateRejections(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)

	bad := &flexbpf.Program{Name: "bad", Actions: map[string]*flexbpf.Action{}}
	bad.Pipeline = []flexbpf.Stmt{{Apply: "ghost"}}

	cases := []struct {
		name string
		p    *plan.ChangePlan
		want error
	}{
		{"unknown device", plan.New("x").Install("nope", "a", aclProgram("a"), nil, 0), nil},
		{"unverifiable", plan.New("x").Install("s1", "bad", bad, nil, 0), errdefs.ErrVerifyFailed},
		{"remove missing", plan.New("x").Remove("s1", "ghost"), nil},
		{"swap missing", plan.New("x").Swap("s1", "ghost", aclProgram("a"), nil), nil},
		{"migrate without mover", plan.New("x").MigrateState("ghost", "s1", "s2", false), nil},
	}
	for _, tc := range cases {
		rep := x.Validate(tc.p)
		if rep.Err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if rep.Outcome != plan.OutcomeFailed {
			t.Errorf("%s: outcome %v", tc.name, rep.Outcome)
		}
		if tc.want != nil && !errors.Is(rep.Err, tc.want) {
			t.Errorf("%s: err %v does not wrap %v", tc.name, rep.Err, tc.want)
		}
	}
}

func TestExecutorValidateRejectsDownDevice(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	f.Device("s2").SetDown(true)
	rep := x.Validate(plan.New("x").Install("s2", "a", aclProgram("a"), nil, 0))
	if !errors.Is(rep.Err, errdefs.ErrDeviceDown) {
		t.Fatalf("err %v does not wrap ErrDeviceDown", rep.Err)
	}
}

func TestExecutorPrepareFaultAbortsWholePlan(t *testing.T) {
	f, src := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	injected := errors.New("flash write failed")
	f.Device("s2").SetFaultInjector(func(dev string, op dataplane.FaultOp) error {
		if op == dataplane.FaultPrepare {
			return injected
		}
		return nil
	})
	src.StartCBR(20000)
	f.Sim.RunFor(20 * time.Millisecond)

	p := plan.New("deploy").
		Install("s1", "acl1", aclProgram("acl1"), nil, 0).
		Install("s2", "acl2", aclProgram("acl2"), nil, 0).
		Install("s3", "acl3", aclProgram("acl3"), nil, 0)
	rep := runPlan(t, f, x, p)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)

	if !errors.Is(rep.Err, injected) {
		t.Fatalf("err = %v", rep.Err)
	}
	if rep.Phase != plan.PhasePrepare || rep.Outcome != plan.OutcomeFailed {
		t.Fatalf("phase %v outcome %v", rep.Phase, rep.Outcome)
	}
	if !rep.RolledBack {
		t.Fatal("staged work not rolled back")
	}
	for i, sw := range []string{"s1", "s2", "s3"} {
		if f.Device(sw).Instance(fmt.Sprintf("acl%d", i+1)) != nil {
			t.Fatalf("%s kept a staged instance after abort", sw)
		}
	}
	if got, want := f.Host("h2").Received, src.Sent; got != want {
		t.Fatalf("lost packets during aborted plan: %d of %d", got, want)
	}
}

func TestExecutorCommitFaultRollsBackByteIdentical(t *testing.T) {
	f, src := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)

	// Pre-plan network: a stateful counter runs on s2 and accumulates.
	if err := f.Device("s2").InstallProgram(counterProgram("cnt", 0)); err != nil {
		t.Fatal(err)
	}
	src.StartCBR(20000)
	f.Sim.RunFor(50 * time.Millisecond)
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond) // drain in-flight packets
	if v := f.Device("s2").Instance("cnt").Store().Counter("cnt_pkts").Value(0); v == 0 {
		t.Fatal("counter never incremented")
	}

	before := map[string]string{}
	for _, sw := range []string{"s1", "s2", "s3"} {
		before[sw] = deviceSnapshot(f.Device(sw))
	}

	// s3 fails at the commit instant, after s1 and s2 already activated.
	injected := errors.New("asic commit fault")
	f.Device("s3").SetFaultInjector(func(dev string, op dataplane.FaultOp) error {
		if op == dataplane.FaultCommit {
			return injected
		}
		return nil
	})
	p := plan.New("upgrade").
		Install("s1", "acl1", aclProgram("acl1"), nil, 0).
		Swap("s2", "cnt", counterProgram("cnt", 2), nil).
		Install("s3", "acl3", aclProgram("acl3"), nil, 0)
	rep := runPlan(t, f, x, p)

	if !errors.Is(rep.Err, injected) {
		t.Fatalf("err = %v", rep.Err)
	}
	if rep.Phase != plan.PhaseCommit || rep.Outcome != plan.OutcomeRolledBack || !rep.RolledBack {
		t.Fatalf("phase %v outcome %v rolledback %v", rep.Phase, rep.Outcome, rep.RolledBack)
	}
	for _, sw := range []string{"s1", "s2", "s3"} {
		if got := deviceSnapshot(f.Device(sw)); got != before[sw] {
			t.Fatalf("%s not byte-identical after rollback:\n--- before ---\n%s--- after ---\n%s", sw, before[sw], got)
		}
	}

	// The restored network still forwards.
	h1 := f.Host("h1")
	src2 := h1.NewSource(netsim.FlowSpec{
		Dst: packet.IP(10, 0, 0, 2), Proto: packet.ProtoUDP,
		SrcPort: 1001, DstPort: 2000, PacketLen: 300,
	})
	got0 := f.Host("h2").Received
	src2.StartCBR(10000)
	f.Sim.RunFor(50 * time.Millisecond)
	src2.Stop()
	f.Sim.RunFor(10 * time.Millisecond)
	if f.Host("h2").Received-got0 != src2.Sent {
		t.Fatalf("rolled-back network dropped packets: %d of %d",
			f.Host("h2").Received-got0, src2.Sent)
	}
}

func TestExecutorSwapCarriesState(t *testing.T) {
	f, src := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	if err := f.Device("s2").InstallProgram(counterProgram("cnt", 0)); err != nil {
		t.Fatal(err)
	}
	src.StartCBR(20000)
	f.Sim.RunFor(50 * time.Millisecond)
	pre := f.Device("s2").Instance("cnt").Store().Counter("cnt_pkts").Value(0)
	if pre == 0 {
		t.Fatal("counter never incremented")
	}

	rep := runPlan(t, f, x, plan.New("swap").Swap("s2", "cnt", counterProgram("cnt", 3), nil))
	src.Stop()
	f.Sim.RunFor(10 * time.Millisecond)
	if rep.Err != nil {
		t.Fatalf("swap failed: %v", rep.Err)
	}
	post := f.Device("s2").Instance("cnt").Store().Counter("cnt_pkts").Value(0)
	if post < pre {
		t.Fatalf("state lost across swap: %d -> %d", pre, post)
	}
	if got, want := f.Host("h2").Received, src.Sent; got != want {
		t.Fatalf("lost packets during swap: %d of %d", got, want)
	}
}

// fakeMover implements plan.StateMover for executor-level tests.
type fakeMover struct {
	err   error
	moved []string
}

func (m *fakeMover) ValidateMove(inst, src, dst string, dp bool) error { return nil }
func (m *fakeMover) EstimateMove(inst, src string, dp bool) netsim.Time {
	return 5 * time.Millisecond
}
func (m *fakeMover) MoveState(inst, src, dst string, dp bool, done func(plan.MoveReport)) {
	if m.err == nil {
		m.moved = append(m.moved, inst)
	}
	done(plan.MoveReport{Program: inst, Src: src, Dst: dst, Err: m.err})
}

func TestExecutorMigrateStepRunsAfterCommit(t *testing.T) {
	f, _ := threeSwitchLine(t)
	mover := &fakeMover{}
	_, x := newTestExecutor(f, mover)
	if err := f.Device("s1").InstallProgram(counterProgram("cnt", 0)); err != nil {
		t.Fatal(err)
	}
	p := plan.New("migrate").
		Install("s3", "cnt", counterProgram("cnt", 0), nil, 0).
		MigrateState("cnt", "s1", "s3", false)
	rep := runPlan(t, f, x, p)
	if rep.Err != nil {
		t.Fatalf("plan failed: %v", rep.Err)
	}
	if len(mover.moved) != 1 || mover.moved[0] != "cnt" {
		t.Fatalf("mover ran %v", mover.moved)
	}
	if mv := rep.Steps[1].Move; mv == nil || mv.Program != "cnt" || mv.Dst != "s3" {
		t.Fatalf("migrate step carries move report %+v", mv)
	}
	if rep.Steps[0].Move != nil {
		t.Fatal("install step carries a move report")
	}
}

func TestExecutorMigrateFaultRollsBackInstall(t *testing.T) {
	f, _ := threeSwitchLine(t)
	injected := errors.New("state transfer stalled")
	mover := &fakeMover{err: injected}
	_, x := newTestExecutor(f, mover)
	if err := f.Device("s1").InstallProgram(counterProgram("cnt", 0)); err != nil {
		t.Fatal(err)
	}
	before := deviceSnapshot(f.Device("s3"))
	p := plan.New("migrate").
		Install("s3", "cnt", counterProgram("cnt", 0), nil, 0).
		MigrateState("cnt", "s1", "s3", false)
	rep := runPlan(t, f, x, p)
	if !errors.Is(rep.Err, injected) {
		t.Fatalf("err = %v", rep.Err)
	}
	if rep.Phase != plan.PhasePost || rep.Outcome != plan.OutcomeRolledBack {
		t.Fatalf("phase %v outcome %v", rep.Phase, rep.Outcome)
	}
	if f.Device("s3").Instance("cnt") != nil {
		t.Fatal("destination install not rolled back")
	}
	if deviceSnapshot(f.Device("s3")) != before {
		t.Fatal("s3 not byte-identical after rollback")
	}
	if f.Device("s1").Instance("cnt") == nil {
		t.Fatal("source instance lost")
	}
}

// TestExecutorReportsBounded runs more plans than the executor retains:
// Reports stays a window of the newest reportsKept in completion order,
// the count keeps the total, and ReportsSince clamps to what is left.
func TestExecutorReportsBounded(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	const total = reportsKept + 300
	for i := 0; i < total; i++ {
		// Alternate install/remove of one instance: conflicting
		// footprints, so completion order is submission order.
		p := plan.New(fmt.Sprint(i))
		if i%2 == 0 {
			p.Install("s1", "acl", aclProgram("acl"), nil, 0)
		} else {
			p.Remove("s1", "acl")
		}
		x.Execute(p, nil)
	}
	for i := 0; i < 1000 && x.Completed() < total; i++ {
		f.Sim.RunFor(time.Second)
	}
	if x.Completed() != total || len(x.Reports) != reportsKept {
		t.Fatalf("completed %d retained %d, want %d and %d", x.Completed(), len(x.Reports), total, reportsKept)
	}
	for i, r := range x.Reports {
		if want := fmt.Sprint(total - reportsKept + i); r.Label != want || r.Err != nil {
			t.Fatalf("Reports[%d] = %q (err %v), want %q", i, r.Label, r.Err, want)
		}
	}
	if got := x.ReportsSince(total - 5); len(got) != 5 || got[0].Label != fmt.Sprint(total-5) {
		t.Fatalf("ReportsSince(total-5) = %d reports from %q", len(got), got[0].Label)
	}
	if got := x.ReportsSince(0); len(got) != reportsKept {
		t.Fatalf("ReportsSince(0) = %d reports, want the %d retained", len(got), reportsKept)
	}
}

func TestExecutorSerializesPlans(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	// Plan B removes what plan A installs: it can only validate after A
	// commits, which is exactly the serialize-at-head-of-queue contract.
	var repA, repB *plan.Report
	x.Execute(plan.New("A").Install("s1", "acl", aclProgram("acl"), nil, 0),
		func(r *plan.Report) { repA = r })
	x.Execute(plan.New("B").Remove("s1", "acl"),
		func(r *plan.Report) { repB = r })
	f.Sim.RunFor(2 * time.Second)
	if repA == nil || repB == nil {
		t.Fatal("plans did not finish")
	}
	if repA.Err != nil || repB.Err != nil {
		t.Fatalf("errs: %v / %v", repA.Err, repB.Err)
	}
	if reps := x.ReportsSince(0); x.Completed() != 2 || reps[0].Label != "A" || reps[1].Label != "B" {
		t.Fatalf("report order: %+v", reps)
	}
	if f.Device("s1").Instance("acl") != nil {
		t.Fatal("instance survived remove")
	}
}

func TestExecutorRouteUpdateStep(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	rep := runPlan(t, f, x, plan.New("routes").RouteUpdate())
	if rep.Err != nil {
		t.Fatalf("route update failed: %v", rep.Err)
	}
	if rep.Outcome != plan.OutcomeSucceeded {
		t.Fatalf("outcome %v", rep.Outcome)
	}
}

// spanNames flattens a trace's spans to "name" or "name:device" labels.
func spanNames(tr *telemetry.Trace) []string {
	var out []string
	for _, sp := range tr.Snapshot().Spans {
		n := sp.Name
		if sp.Device != "" {
			n += ":" + sp.Device
		}
		out = append(out, n)
	}
	return out
}

func TestExecutorEmitsTraceAndMetrics(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	x.SetTelemetry(f.Metrics, f.Tracer)

	p := plan.New("deploy acl").
		Install("s1", "acl1", aclProgram("acl1"), nil, 0).
		Install("s2", "acl2", aclProgram("acl2"), nil, 0)
	rep := runPlan(t, f, x, p)
	if rep.Err != nil {
		t.Fatalf("plan failed: %v", rep.Err)
	}
	if rep.ID != "plan-1" {
		t.Fatalf("report ID = %q, want plan-1", rep.ID)
	}
	tr := f.Tracer.Trace(rep.ID)
	if tr == nil {
		t.Fatal("no trace filed under the report's plan ID")
	}
	snap := tr.Snapshot()
	if snap.Outcome != "succeeded" {
		t.Fatalf("trace outcome %q", snap.Outcome)
	}
	want := []string{"validate", "prepare:s1", "prepare:s2", "commit"}
	got := spanNames(tr)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("spans %v, want %v", got, want)
	}
	// The prepare spans must carry the per-device reconfiguration time.
	for _, sp := range snap.Spans {
		if sp.Name == "prepare" && sp.EndNs <= sp.StartNs {
			t.Fatalf("prepare span on %s has no duration", sp.Device)
		}
	}
	if v := f.Metrics.CounterValue("plan.executed"); v != 1 {
		t.Fatalf("plan.executed = %d", v)
	}
	if v := f.Metrics.CounterValue("plan.succeeded"); v != 1 {
		t.Fatalf("plan.succeeded = %d", v)
	}
	if c := f.Metrics.Histogram("plan.prepare_ns", nil).Count(); c != 2 {
		t.Fatalf("prepare_ns observations = %d, want 2 (one per device)", c)
	}
}

func TestExecutorRollbackSpanAndCounters(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	x.SetTelemetry(f.Metrics, f.Tracer)

	injected := errors.New("asic commit fault")
	f.Device("s2").SetFaultInjector(func(dev string, op dataplane.FaultOp) error {
		if op == dataplane.FaultCommit {
			return injected
		}
		return nil
	})
	p := plan.New("upgrade").
		Install("s1", "acl1", aclProgram("acl1"), nil, 0).
		Install("s2", "acl2", aclProgram("acl2"), nil, 0)
	rep := runPlan(t, f, x, p)
	if !errors.Is(rep.Err, injected) || rep.Outcome != plan.OutcomeRolledBack {
		t.Fatalf("err %v outcome %v", rep.Err, rep.Outcome)
	}
	tr := f.Tracer.Trace(rep.ID)
	if tr == nil {
		t.Fatal("no trace for rolled-back plan")
	}
	snap := tr.Snapshot()
	if snap.Outcome != "rolled-back" {
		t.Fatalf("trace outcome %q", snap.Outcome)
	}
	var commitErr, sawRollback bool
	for _, sp := range snap.Spans {
		if sp.Name == "commit" && sp.Err != "" {
			commitErr = true
		}
		if sp.Name == "rollback" {
			sawRollback = true
		}
	}
	if !commitErr {
		t.Fatalf("commit span did not record the fault: %v", snap.Spans)
	}
	if !sawRollback {
		t.Fatalf("no rollback span: %v", snap.Spans)
	}
	if v := f.Metrics.CounterValue("plan.rolled_back"); v != 1 {
		t.Fatalf("plan.rolled_back = %d", v)
	}
	if v := f.Metrics.CounterValue("plan.succeeded"); v != 0 {
		t.Fatalf("plan.succeeded = %d", v)
	}
}

// TestExecutorNoTelemetryIsInert: executors without SetTelemetry must run
// plans identically (nil-safe handles) and leave no trace behind.
func TestExecutorNoTelemetryIsInert(t *testing.T) {
	f, _ := threeSwitchLine(t)
	_, x := newTestExecutor(f, nil)
	rep := runPlan(t, f, x, plan.New("deploy").Install("s1", "acl1", aclProgram("acl1"), nil, 0))
	if rep.Err != nil {
		t.Fatalf("plan failed: %v", rep.Err)
	}
	if rep.ID != "" {
		t.Fatalf("untraced plan got ID %q", rep.ID)
	}
	if ids := f.Tracer.IDs(); len(ids) != 0 {
		t.Fatalf("tracer has traces %v without SetTelemetry", ids)
	}
}
