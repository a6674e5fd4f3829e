package runtime

import (
	"context"
	"errors"
	"fmt"

	"flexnet/internal/dataplane"
	"flexnet/internal/dataplane/state"
	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
	"flexnet/internal/plan"
	"flexnet/internal/telemetry"
)

// Executor runs ChangePlans through the three-phase transactional
// pipeline (validate → prepare → commit, plus post-commit state moves
// and route updates), with automatic rollback on any failure.
//
// Admission is conflict-based: a submitted plan starts immediately if
// its device footprint is disjoint from every running plan and from
// every earlier-queued plan it conflicts with (FIFO is preserved within
// a conflict set; disjoint plans may overtake). Plans touching
// overlapping devices — and global plans (route updates, empty
// footprints) — serialize exactly as before. Because the simulator's
// event loop is single-threaded, concurrent admission stays
// deterministic; SetMaxInflight(1) restores strict serial order. This
// is the single abortable change path every controller operation goes
// through — there is no other way configuration reaches devices from
// the control plane.
//
// Phase timing mirrors the engine's cost model: each device's prepare
// takes its estimated reconfiguration latency of simulated time (traffic
// keeps flowing under the old configuration), and every device then
// activates at one simulated instant — the epoch-atomic network-wide
// flip. Rollback also happens within a single instant, so no packet
// ever observes a mixed configuration, even on failure.
type Executor struct {
	eng    *Engine
	device func(string) *dataplane.Device
	mover  plan.StateMover
	routes plan.RouteUpdater

	maxInflight int
	running     []*runningPlan
	queue       []queuedPlan
	kicking     bool
	rekick      bool
	// Reports holds the reports of the most recent reportsKept executed
	// plans in completion order (identical to submission order when plans
	// conflict or SetMaxInflight(1) is set); a report holds its plan's
	// programs, so keeping every one grows with the daemon's history.
	// completed counts every plan that finished, retained or not.
	Reports   []*plan.Report
	completed int

	// tracer and met are the telemetry hookup (inert until SetTelemetry):
	// every executed plan gets a trace keyed by its assigned plan ID,
	// with spans for validate, per-device prepare, commit, rollback, and
	// each post-commit step.
	tracer *telemetry.Tracer
	met    execMetrics
	// reg is kept for lazily-created instruments ("plan.degraded"): a
	// counter that only exists once a degraded plan actually happens, so
	// fault-free runs export an unchanged snapshot.
	reg *telemetry.Registry

	// auditFn, when set, receives every executed plan's final report —
	// committed, degraded, failed or rolled back — at the instant the
	// pipeline finishes. The controller hangs the audit trail here
	// (internal/audit); dry runs go through Validate only and leave no
	// record, matching the trail's "mutations only" contract.
	auditFn func(*plan.Report)

	// HA freeze/recover plumbing (DESIGN.md §15.3). While frozen — the
	// serving leader died and no replica holds the lease — no new plan
	// is admitted and every in-flight pipeline parks at its next phase
	// boundary. Recover, called by the newly-activated leader, resumes
	// plans past their commit instant and aborts the rest through the
	// normal rollback path. Both fields are inert in non-HA runs.
	frozen bool
	pipes  []*pipeState
	// journal, when set, receives plan lifecycle events ("submit",
	// "commit", "done") with the plan's label — the HA layer replicates
	// them so a standby knows which plans are in flight at takeover.
	journal func(event, label string)
}

// reportsKept bounds Executor.Reports.
const reportsKept = 1024

// Completed returns how many plans have finished executing since the
// executor was created.
func (x *Executor) Completed() int { return x.completed }

// ReportsSince returns, oldest first, the reports of the plans that
// finished after the first n did (n being an earlier Completed()),
// less any that have since left the retained window.
func (x *Executor) ReportsSince(n int) []*plan.Report {
	start := n - (x.completed - len(x.Reports))
	if start < 0 {
		start = 0
	}
	return x.Reports[start:]
}

// pipeState fences one in-flight pipeline across a failover: fenced
// parks continuations, resolved drops stale timers after the plan has
// finished (or was aborted), committed records whether the plan passed
// its epoch-atomic commit instant — the resume-vs-rollback pivot.
type pipeState struct {
	label     string
	committed bool
	fenced    bool
	resolved  bool
	parked    []func()
	abort     func(error)
}

// gate wraps a pipeline continuation with the pipe's freeze fence:
// resolved pipes drop the (stale) event, fenced pipes park it for
// Recover, live pipes run it immediately. Without HA every pipe stays
// unfenced, so the wrapper is a plain call — byte-identical schedules.
func (x *Executor) gate(ps *pipeState, fn func()) func() {
	return func() {
		switch {
		case ps.resolved:
		case ps.fenced:
			ps.parked = append(ps.parked, fn)
		default:
			fn()
		}
	}
}

// SetJournal registers the plan-lifecycle journal tap (HA replication).
func (x *Executor) SetJournal(fn func(event, label string)) {
	x.journal = fn
}

func (x *Executor) journalEvent(event, label string) {
	if x.journal != nil {
		x.journal(event, label)
	}
}

// Freeze halts the executor at the instant the serving leader is lost:
// admission stops and every in-flight pipeline is fenced so no further
// phase boundary is crossed while the fabric has no controller.
// Already-scheduled data-plane work (a state migration in flight)
// continues — freezing governs the control decisions, not the wire.
func (x *Executor) Freeze() {
	x.frozen = true
	for _, ps := range x.pipes {
		ps.fenced = true
	}
}

// Frozen reports whether the executor is fenced awaiting a new leader.
func (x *Executor) Frozen() bool { return x.frozen }

// Inflight returns the labels of fenced or running pipelines, for
// ha-status reporting.
func (x *Executor) Inflight() []string {
	out := make([]string, 0, len(x.pipes))
	for _, ps := range x.pipes {
		out = append(out, ps.label)
	}
	return out
}

// Recover is the new leader's takeover step (DESIGN.md §15.3): every
// fenced pipeline either resumes or rolls back, deterministically, by
// where its commit instant fell relative to the crash. A plan past
// commit already flipped every device to the new configuration, so it
// resumes its post steps; a plan still staging aborts its prepared
// changes through the normal rollback path and finishes rolled-back
// with errdefs.ErrFailover. Plans still in planning/validation simply
// continue — nothing was staged. Queued plans are then re-admitted.
func (x *Executor) Recover() (resumed, rolledBack int) {
	x.frozen = false
	pipes := append([]*pipeState(nil), x.pipes...)
	for _, ps := range pipes {
		ps.fenced = false
		if ps.committed || ps.abort == nil {
			resumed++
			parked := ps.parked
			ps.parked = nil
			for _, fn := range parked {
				fn()
			}
		} else {
			rolledBack++
			ps.abort(fmt.Errorf("plan %q: %w", ps.label, errdefs.ErrFailover))
		}
	}
	x.kick()
	return resumed, rolledBack
}

// SetAuditSink registers the per-plan audit callback. It fires inside
// the executor's completion path, before the plan's done callback, so
// the trail orders records exactly as outcomes became visible.
func (x *Executor) SetAuditSink(fn func(*plan.Report)) {
	x.auditFn = fn
}

// execMetrics are the executor's instruments; nil handles are no-ops.
type execMetrics struct {
	executed   *telemetry.Counter
	succeeded  *telemetry.Counter
	failed     *telemetry.Counter
	rolledBack *telemetry.Counter
	execNs     *telemetry.Histogram
	prepareNs  *telemetry.Histogram
}

// SetTelemetry wires the executor to a metrics registry and span tracer.
// Plan executions then increment the "plan.*" counters, observe
// execution and per-device prepare latency histograms, and record a
// queryable trace per plan ID.
func (x *Executor) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	x.tracer = tr
	x.reg = reg
	x.met = execMetrics{
		executed:   reg.Counter("plan.executed"),
		succeeded:  reg.Counter("plan.succeeded"),
		failed:     reg.Counter("plan.failed"),
		rolledBack: reg.Counter("plan.rolled_back"),
		execNs:     reg.Histogram("plan.exec_ns", telemetry.DefaultLatencyBounds),
		prepareNs:  reg.Histogram("plan.prepare_ns", telemetry.DefaultLatencyBounds),
	}
}

type queuedPlan struct {
	ctx  context.Context
	p    *plan.ChangePlan
	done func(*plan.Report)
	fp   footprint
}

// runningPlan tracks one in-flight plan's footprint for admission.
type runningPlan struct {
	fp footprint
}

// footprint is the conflict domain of one plan: the devices its steps
// touch (including migration sources, which plan.Devices omits), or
// "global" for plans that touch fabric-wide state — route updates, and
// plans naming no device at all.
type footprint struct {
	devs   map[string]bool
	global bool
}

func planFootprint(p *plan.ChangePlan) footprint {
	fp := footprint{devs: map[string]bool{}}
	for _, s := range p.Steps {
		if s.Op == plan.OpRouteUpdate {
			fp.global = true
		}
		if s.Device != "" {
			fp.devs[s.Device] = true
		}
		if s.Src != "" {
			fp.devs[s.Src] = true
		}
	}
	if len(fp.devs) == 0 {
		fp.global = true
	}
	return fp
}

// conflicts reports whether two footprints may not run concurrently.
func (a footprint) conflicts(b footprint) bool {
	if a.global || b.global {
		return true
	}
	small, big := a.devs, b.devs
	if len(big) < len(small) {
		small, big = big, small
	}
	for d := range small {
		if big[d] {
			return true
		}
	}
	return false
}

func (a footprint) empty() bool { return !a.global && len(a.devs) == 0 }

// SetMaxInflight bounds concurrently-running plans; n <= 0 means
// unlimited (conflict-based admission only). SetMaxInflight(1)
// reproduces the strict submission-order serial executor.
func (x *Executor) SetMaxInflight(n int) {
	if n < 0 {
		n = 0
	}
	x.maxInflight = n
}

// NewExecutor creates an executor over the engine's simulator and cost
// model. device resolves names to devices; mover and routes handle the
// post-commit step types (either may be nil if the corresponding step
// type is never used).
func NewExecutor(eng *Engine, device func(string) *dataplane.Device, mover plan.StateMover, routes plan.RouteUpdater) *Executor {
	return &Executor{eng: eng, device: device, mover: mover, routes: routes}
}

// group is one device's slice of a plan: the structural steps (install,
// remove, swap) that commit together in that device's epoch bump.
type group struct {
	dev   *dataplane.Device
	steps []int // indices into the plan's Steps
	lat   netsim.Time
}

// split partitions a plan into per-device structural groups (in
// first-appearance device order) and post-commit step indices (in plan
// order). Step indices in skip (degraded-mode skips from Validate) are
// excluded; pass nil to include everything. Call only after Validate:
// unknown devices are skipped here.
func (x *Executor) split(p *plan.ChangePlan, skip map[int]bool) (groups []*group, post []int) {
	byDev := map[string]*group{}
	for i, s := range p.Steps {
		if skip[i] {
			continue
		}
		switch s.Op {
		case plan.OpMigrateState, plan.OpRouteUpdate:
			post = append(post, i)
		default:
			g := byDev[s.Device]
			if g == nil {
				g = &group{dev: x.device(s.Device)}
				byDev[s.Device] = g
				groups = append(groups, g)
			}
			g.steps = append(g.steps, i)
		}
	}
	for _, g := range groups {
		g.lat = x.estimateGroup(p, g)
	}
	return groups, post
}

// estimateGroup prices one device's structural steps with the shared
// cost model.
func (x *Executor) estimateGroup(p *plan.ChangePlan, g *group) netsim.Time {
	var ta, tr int
	tables := func(prog *flexbpf.Program) int {
		if len(prog.Tables) == 0 {
			return 1 // pure-compute programs still reprogram one unit
		}
		return len(prog.Tables)
	}
	removedTables := func(name string) int {
		if g.dev != nil {
			if inst := g.dev.Instance(name); inst != nil {
				return tables(inst.Program())
			}
		}
		return 1
	}
	for _, i := range g.steps {
		s := p.Steps[i]
		switch s.Op {
		case plan.OpInstallInstance:
			ta += tables(s.Program)
		case plan.OpRemoveInstance:
			tr += removedTables(s.Instance)
		case plan.OpSwapProgram:
			tr += removedTables(s.Instance)
			ta += tables(s.Program)
		}
	}
	return x.eng.EstimateOps(ta, tr, 0, 0)
}

// estimate prices the whole plan: prepare proceeds on all devices in
// parallel (cost = the slowest device), then post steps run in sequence.
func (x *Executor) estimate(p *plan.ChangePlan) netsim.Time {
	groups, post := x.split(p, nil)
	var prep netsim.Time
	for _, g := range groups {
		if g.lat > prep {
			prep = g.lat
		}
	}
	total := p.PlanningLat + prep
	for _, i := range post {
		s := p.Steps[i]
		switch s.Op {
		case plan.OpMigrateState:
			if x.mover != nil {
				total += x.mover.EstimateMove(s.Instance, s.Src, s.UseDataPlane)
			}
		case plan.OpRouteUpdate:
			total += x.eng.EstimateOps(0, 0, 0, 0)
		}
	}
	return total
}

// Validate dry-runs the plan: device, capability, verifier, and resource
// checks plus the cost estimate. Nothing is mutated and no simulated
// time passes, so the report doubles as the --dry-run answer. A viable
// plan reports OutcomePlanned with a nil Err.
func (x *Executor) Validate(p *plan.ChangePlan) *plan.Report {
	rep := &plan.Report{
		Label:   p.Label,
		Origin:  p.Origin,
		Steps:   make([]plan.StepReport, len(p.Steps)),
		Phase:   plan.PhaseValidate,
		Outcome: plan.OutcomePlanned,
	}
	// Instances this plan adds/removes so far, per device: later steps
	// may legitimately reference them (swap-after-install is nonsense,
	// but migrate-after-install is the normal migration shape).
	adds := map[string]map[string]bool{}
	added := func(dev, inst string) bool { return adds[dev][inst] }
	noteAdd := func(dev, inst string) {
		if adds[dev] == nil {
			adds[dev] = map[string]bool{}
		}
		adds[dev][inst] = true
	}
	for i, s := range p.Steps {
		err := x.validateStep(s, added, noteAdd)
		rep.Steps[i] = plan.StepReport{Step: s, Status: plan.StepValidated, Err: err}
		if err != nil {
			if p.AllowDegraded && isDownErr(err) {
				// Degraded mode: the device is dead, its state with it.
				// Skip the step, record why, and let the rest proceed.
				rep.Steps[i].Status = plan.StepSkipped
				rep.Degraded = append(rep.Degraded, fmt.Sprintf("skipped %s: %v", s, err))
				continue
			}
			rep.Steps[i].Status = plan.StepFailed
			if rep.Err == nil {
				rep.Err = fmt.Errorf("plan %q step %d (%s): %w", p.Label, i+1, s, err)
			}
		}
	}
	rep.Estimated = x.estimate(p)
	if rep.Err != nil {
		rep.Outcome = plan.OutcomeFailed
	}
	return rep
}

// isDownErr reports whether err means "the device is down" — the one
// failure class degraded-mode plans may skip past (DESIGN.md §10).
func isDownErr(err error) bool { return errors.Is(err, errdefs.ErrDeviceDown) }

func (x *Executor) validateStep(s plan.Step, added func(dev, inst string) bool, noteAdd func(dev, inst string)) error {
	if s.Op == plan.OpRouteUpdate {
		if x.routes == nil {
			return fmt.Errorf("runtime: no route updater configured")
		}
		return nil
	}
	dev := x.device(s.Device)
	if dev == nil {
		return fmt.Errorf("runtime: unknown device %q", s.Device)
	}
	if err := dev.FaultCheck(dataplane.FaultValidate); err != nil {
		return err
	}
	switch s.Op {
	case plan.OpInstallInstance:
		if err := flexbpf.Verify(s.Program); err != nil {
			return fmt.Errorf("%w: %w", errdefs.ErrVerifyFailed, err)
		}
		if !dev.Capabilities().Satisfies(s.Program.Requires) {
			return fmt.Errorf("runtime: %s lacks capabilities for %s", s.Device, s.Instance)
		}
		if dev.Instance(s.Instance) != nil {
			return fmt.Errorf("runtime: instance %q already installed on %s", s.Instance, s.Device)
		}
		if !dev.CanHost(s.Program) {
			return fmt.Errorf("runtime: %s cannot host %s: %w", s.Device, s.Instance, errdefs.ErrInsufficientResources)
		}
		noteAdd(s.Device, s.Instance)
	case plan.OpRemoveInstance:
		if dev.Instance(s.Instance) == nil {
			return fmt.Errorf("runtime: instance %q not installed on %s", s.Instance, s.Device)
		}
	case plan.OpSwapProgram:
		old := dev.Instance(s.Instance)
		if old == nil {
			return fmt.Errorf("runtime: instance %q not installed on %s", s.Instance, s.Device)
		}
		if err := flexbpf.Verify(s.Program); err != nil {
			return fmt.Errorf("%w: %w", errdefs.ErrVerifyFailed, err)
		}
		growth := flexbpf.ProgramDemand(s.Program).Sub(flexbpf.ProgramDemand(old.Program()))
		if !growth.Fits(dev.Free()) {
			return fmt.Errorf("runtime: swap grows %q by %v, which does not fit on %s (free %v) — migrate first: %w",
				s.Instance, growth, s.Device, dev.Free(), errdefs.ErrInsufficientResources)
		}
	case plan.OpMigrateState:
		src := x.device(s.Src)
		if src == nil {
			return fmt.Errorf("runtime: unknown device %q", s.Src)
		}
		if err := src.FaultCheck(dataplane.FaultValidate); err != nil {
			return err
		}
		if x.mover == nil {
			return fmt.Errorf("runtime: no state mover configured")
		}
		if src.Instance(s.Instance) == nil {
			return fmt.Errorf("runtime: instance %q not installed on %s", s.Instance, s.Src)
		}
		if dev.Instance(s.Instance) == nil && !added(s.Device, s.Instance) {
			return fmt.Errorf("runtime: migrate target %s neither hosts nor installs %q", s.Device, s.Instance)
		}
		if err := x.mover.ValidateMove(s.Instance, s.Src, s.Device, s.UseDataPlane); err != nil {
			return err
		}
	}
	return nil
}

// Execute runs the plan through validate → prepare → commit → post,
// rolling back on any failure, and invokes done with the final report.
// Plans are serialized in submission order; validation happens when the
// plan reaches the head of the queue.
func (x *Executor) Execute(p *plan.ChangePlan, done func(*plan.Report)) {
	x.ExecuteCtx(context.Background(), p, done)
}

// ExecuteCtx is Execute with a cancellation context. Cancellation is
// observed at phase boundaries of the simulated pipeline: a plan whose
// context is cancelled before commit aborts its staged changes, and one
// cancelled between commit and its post steps reverts the activated
// devices — either way the report carries ctx.Err() (wrapping
// context.Canceled) and the network is back in its pre-plan
// configuration. A nil ctx means no cancellation.
func (x *Executor) ExecuteCtx(ctx context.Context, p *plan.ChangePlan, done func(*plan.Report)) {
	if ctx == nil {
		ctx = context.Background()
	}
	x.journalEvent("submit", p.Label)
	x.queue = append(x.queue, queuedPlan{ctx: ctx, p: p, done: done, fp: planFootprint(p)})
	x.kick()
}

// kick admits every queued plan whose footprint is disjoint from all
// running plans and from every earlier-queued plan still waiting. The
// kicking/rekick guard flattens the recursion that happens when an
// admitted plan completes synchronously (validate failure) and kicks
// again from inside its done callback.
func (x *Executor) kick() {
	if x.frozen {
		return // no admission while the fabric has no serving leader
	}
	if x.kicking {
		x.rekick = true
		return
	}
	x.kicking = true
	for {
		x.rekick = false
		x.kickOnce()
		if !x.rekick {
			break
		}
	}
	x.kicking = false
}

func (x *Executor) kickOnce() {
	// blocked accumulates the footprints of plans left waiting ahead in
	// the queue: a later plan may only overtake them if it conflicts with
	// none (FIFO within a conflict set).
	blocked := footprint{devs: map[string]bool{}}
	i := 0
	for i < len(x.queue) {
		q := x.queue[i]
		if x.admissible(q.fp, blocked) {
			x.queue = append(x.queue[:i], x.queue[i+1:]...)
			x.start(q)
			continue
		}
		blocked.global = blocked.global || q.fp.global
		for d := range q.fp.devs {
			blocked.devs[d] = true
		}
		i++
	}
}

func (x *Executor) admissible(fp, blocked footprint) bool {
	if x.maxInflight > 0 && len(x.running) >= x.maxInflight {
		return false
	}
	if !blocked.empty() && fp.conflicts(blocked) {
		return false
	}
	for _, r := range x.running {
		if fp.conflicts(r.fp) {
			return false
		}
	}
	return true
}

func (x *Executor) start(q queuedPlan) {
	r := &runningPlan{fp: q.fp}
	x.running = append(x.running, r)
	x.run(q.ctx, q.p, func(rep *plan.Report) {
		x.completed++
		x.Reports = append(x.Reports, rep)
		if len(x.Reports) > reportsKept {
			// Slide the window; append's regrowth copies only what is
			// left of it, so the trim is amortised.
			x.Reports[0] = nil
			x.Reports = x.Reports[1:]
		}
		for i, rr := range x.running {
			if rr == r {
				x.running = append(x.running[:i], x.running[i+1:]...)
				break
			}
		}
		if q.done != nil {
			q.done(rep)
		}
		x.kick()
	})
}

func (x *Executor) run(ctx context.Context, p *plan.ChangePlan, done func(*plan.Report)) {
	trace := x.tracer.StartTrace(p.Label)
	x.met.executed.Inc()
	started := x.eng.sim.Now()
	ps := &pipeState{label: p.Label}
	x.pipes = append(x.pipes, ps)
	if p.PlanningLat > 0 {
		// The controller's placement work (ChangePlan.PlanningLat) is
		// charged here as simulated time, before validation, so plan
		// latency reflects how much planning the operation needed — the
		// quantity E18 contrasts between incremental and full placement.
		psp := trace.StartSpan("plan", "")
		x.eng.sim.After(p.PlanningLat, x.gate(ps, func() {
			psp.EndSpan()
			x.runPipeline(ctx, p, ps, trace, started, done)
		}))
		return
	}
	x.runPipeline(ctx, p, ps, trace, started, done)
}

func (x *Executor) runPipeline(ctx context.Context, p *plan.ChangePlan, ps *pipeState, trace *telemetry.Trace, started netsim.Time, done func(*plan.Report)) {
	vspan := trace.StartSpan("validate", "")
	rep := x.Validate(p)
	vspan.Fail(rep.Err)
	if trace != nil {
		rep.ID = trace.ID
	}
	finish := func(phase plan.Phase, outcome plan.Outcome, err error) {
		ps.resolved = true
		for i, pp := range x.pipes {
			if pp == ps {
				x.pipes = append(x.pipes[:i], x.pipes[i+1:]...)
				break
			}
		}
		if outcome == plan.OutcomeSucceeded && len(rep.Degraded) > 0 {
			outcome = plan.OutcomeDegraded
		}
		rep.Phase, rep.Outcome = phase, outcome
		if rep.Err == nil {
			rep.Err = err
		}
		rep.Actual = x.eng.sim.Now() - started
		switch outcome {
		case plan.OutcomeSucceeded:
			x.met.succeeded.Inc()
		case plan.OutcomeDegraded:
			// The plan did commit; count it as a success plus a degraded
			// marker. The counter is created lazily so fault-free
			// snapshots stay byte-identical.
			x.met.succeeded.Inc()
			if x.reg != nil {
				x.reg.Counter("plan.degraded").Inc()
			}
		case plan.OutcomeRolledBack:
			x.met.rolledBack.Inc()
		default:
			x.met.failed.Inc()
		}
		x.met.execNs.Observe(int64(rep.Actual))
		trace.Finish(outcome.String())
		if x.auditFn != nil {
			x.auditFn(rep)
		}
		x.journalEvent("done", p.Label)
		done(rep)
	}
	if rep.Err == nil && ctx.Err() != nil {
		rep.Err = fmt.Errorf("plan %q cancelled before execution: %w", p.Label, ctx.Err())
	}
	if rep.Err != nil {
		finish(plan.PhaseValidate, plan.OutcomeFailed, rep.Err)
		return
	}
	// Degraded-mode skips decided at validate time are excluded from the
	// execution groups; their StepSkipped status and Report.Degraded
	// entries are already recorded.
	skipped := map[int]bool{}
	for i := range rep.Steps {
		if rep.Steps[i].Status == plan.StepSkipped {
			skipped[i] = true
		}
	}
	groups, post := x.split(p, skipped)
	prepared := make([]*dataplane.PreparedChange, len(groups))
	var activated []*dataplane.PreparedChange

	setStatus := func(steps []int, st plan.StepStatus) {
		for _, i := range steps {
			rep.Steps[i].Status = st
		}
	}

	// rollback undoes everything: activated changes are reverted (reverse
	// order), staged ones aborted. Runs within one simulated instant.
	rollback := func() error {
		sp := trace.StartSpan("rollback", "")
		var firstErr error
		for i := len(activated) - 1; i >= 0; i-- {
			if err := activated[i].Revert(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, pc := range prepared {
			if pc != nil {
				pc.Abort()
			}
		}
		rep.RolledBack = true
		sp.Fail(firstErr)
		return firstErr
	}

	// abort is the failover path (Executor.Recover): the plan never
	// reached its commit instant, so nothing was activated — aborting
	// the staged changes is a complete rollback, and the plan finishes
	// rolled-back with the failover sentinel.
	ps.abort = func(err error) {
		sp := trace.StartSpan("rollback", "")
		for _, pc := range prepared {
			if pc != nil {
				pc.Abort()
			}
		}
		sp.EndSpan()
		rep.RolledBack = true
		for i := range rep.Steps {
			if rep.Steps[i].Status != plan.StepSkipped {
				rep.Steps[i].Status = plan.StepRolledBack
			}
		}
		finish(plan.PhasePrepare, plan.OutcomeRolledBack, err)
	}

	// Post steps run sequentially after all devices committed.
	var runPost func(i int)
	runPost = func(i int) {
		if i == len(post) {
			finish(plan.PhaseDone, plan.OutcomeSucceeded, nil)
			return
		}
		idx := post[i]
		s := p.Steps[idx]
		psp := trace.StartSpan("post:"+s.Op.String(), s.Device)
		var onDone func(error)
		onDoneNow := func(err error) {
			if err == nil {
				err = ctx.Err() // cancellation between post steps rolls back
			}
			psp.Fail(err)
			if err != nil {
				rep.Steps[idx].Status = plan.StepFailed
				rep.Steps[idx].Err = err
				for j := 0; j < i; j++ {
					rep.Steps[post[j]].Status = plan.StepRolledBack
				}
				for gi, g := range groups {
					if prepared[gi] != nil {
						setStatus(g.steps, plan.StepRolledBack)
					}
				}
				if rbErr := rollback(); rbErr != nil {
					err = fmt.Errorf("%w (rollback incomplete: %v)", err, rbErr)
				}
				finish(plan.PhasePost, plan.OutcomeRolledBack, err)
				return
			}
			rep.Steps[idx].Status = plan.StepCommitted
			runPost(i + 1)
		}
		// Post-step completions cross a phase boundary, so they pass the
		// freeze fence: a state move that lands while the fabric has no
		// leader parks until the new leader's Recover resumes the plan.
		onDone = func(err error) {
			x.gate(ps, func() { onDoneNow(err) })()
		}
		if err := ctx.Err(); err != nil {
			onDone(err)
			return
		}
		switch s.Op {
		case plan.OpMigrateState:
			x.mover.MoveState(s.Instance, s.Src, s.Device, s.UseDataPlane, onDone)
		case plan.OpRouteUpdate:
			x.eng.sim.After(x.eng.EstimateOps(0, 0, 0, 0), func() {
				// A scoped updater limits the refresh to the devices this
				// plan touched; topology-driven deltas still reach every
				// affected device (plan.ScopedRouteUpdater).
				if sru, ok := x.routes.(plan.ScopedRouteUpdater); ok {
					if devs := p.Devices(); len(devs) > 0 {
						onDone(sru.RefreshRoutesTouched(devs))
						return
					}
				}
				onDone(x.routes.RefreshRoutes())
			})
		}
	}

	// Commit activates every prepared group at one simulated instant. A
	// failure mid-loop reverts the already-activated devices and aborts
	// the rest before any simulated time passes, so packets only ever see
	// all-old or all-new.
	commit := func(prepErr error) {
		if prepErr == nil {
			// Cancellation observed at the commit instant: nothing has
			// been activated yet, so aborting the staged changes is a
			// complete rollback.
			prepErr = ctx.Err()
		}
		if prepErr != nil {
			for _, pc := range prepared {
				if pc != nil {
					pc.Abort()
				}
			}
			rep.RolledBack = true
			finish(plan.PhasePrepare, plan.OutcomeFailed, prepErr)
			return
		}
		csp := trace.StartSpan("commit", "")
		for gi, g := range groups {
			pc := prepared[gi]
			if pc == nil {
				// Degraded skip decided during prepare: nothing staged.
				continue
			}
			carries, err := x.captureCarries(p, g)
			if err == nil {
				if err = pc.Activate(); err == nil {
					activated = append(activated, pc)
					err = x.applyCarries(g.dev, carries)
				}
			}
			if err != nil {
				setStatus(g.steps, plan.StepFailed)
				for _, i := range g.steps {
					if rep.Steps[i].Err == nil {
						rep.Steps[i].Err = err
					}
				}
				for j := 0; j < gi; j++ {
					if prepared[j] != nil {
						setStatus(groups[j].steps, plan.StepRolledBack)
					}
				}
				csp.Fail(err)
				if rbErr := rollback(); rbErr != nil {
					err = fmt.Errorf("%w (rollback incomplete: %v)", err, rbErr)
				}
				finish(plan.PhaseCommit, plan.OutcomeRolledBack, err)
				return
			}
			setStatus(g.steps, plan.StepCommitted)
		}
		csp.EndSpan()
		// The commit instant has passed: every device now runs the new
		// configuration. From here a failover resumes the plan rather
		// than rolling it back (DESIGN.md §15.3).
		ps.committed = true
		x.journalEvent("commit", p.Label)
		runPost(0)
	}

	if len(groups) == 0 {
		x.eng.sim.After(0, x.gate(ps, func() { commit(nil) }))
		return
	}
	// Prepare proceeds on all devices in parallel; the commit instant is
	// gated by the slowest prepare.
	remaining := len(groups)
	var prepErr error
	for gi, g := range groups {
		gi, g := gi, g
		psp := trace.StartSpan("prepare", g.dev.Name())
		pstart := x.eng.sim.Now()
		x.eng.sim.After(g.lat, x.gate(ps, func() {
			var pc *dataplane.PreparedChange
			err := ctx.Err() // cancelled mid-prepare: stage nothing
			if err == nil {
				pc, err = x.prepareGroup(p, g)
			}
			x.met.prepareNs.Observe(int64(x.eng.sim.Now() - pstart))
			psp.Fail(err)
			switch {
			case err != nil && p.AllowDegraded && isDownErr(err):
				// The device died between validate and prepare. Same rule
				// as a validate-time skip: drop this group, continue; the
				// commit loop steps over the nil prepared entry.
				setStatus(g.steps, plan.StepSkipped)
				for _, i := range g.steps {
					rep.Steps[i].Err = err
					rep.Degraded = append(rep.Degraded, fmt.Sprintf("skipped %s: %v", p.Steps[i], err))
				}
			case err != nil:
				setStatus(g.steps, plan.StepFailed)
				for _, i := range g.steps {
					rep.Steps[i].Err = err
				}
				if prepErr == nil {
					prepErr = err
				}
			default:
				prepared[gi] = pc
				setStatus(g.steps, plan.StepPrepared)
			}
			remaining--
			if remaining == 0 {
				commit(prepErr)
			}
		}))
	}
}

// prepareGroup stages one device's structural steps as a single
// two-phase change.
func (x *Executor) prepareGroup(p *plan.ChangePlan, g *group) (*dataplane.PreparedChange, error) {
	return g.dev.PrepareChange(func(st *dataplane.StagedConfig) error {
		for _, i := range g.steps {
			s := p.Steps[i]
			switch s.Op {
			case plan.OpInstallInstance:
				prog := s.Program.Clone()
				prog.Name = s.Instance
				if err := st.InstallOpt(prog, dataplane.InstallOptions{Filter: s.Filter, Priority: s.Priority}); err != nil {
					return err
				}
			case plan.OpRemoveInstance:
				if err := st.Remove(s.Instance); err != nil {
					return err
				}
			case plan.OpSwapProgram:
				if err := st.Remove(s.Instance); err != nil {
					return err
				}
				prog := s.Program.Clone()
				prog.Name = s.Instance
				if err := st.InstallOpt(prog, dataplane.InstallOptions{Filter: s.Filter, Priority: s.Priority}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// carry is the state and table entries captured from an instance about
// to be swapped, to be re-imported into its replacement.
type carry struct {
	instance string
	state    []state.Logical
	entries  map[string][]*flexbpf.TableEntry
}

// captureCarries snapshots the old instances of this group's swap steps.
// It runs at the commit instant, immediately before activation, so the
// replacement starts from the state the packet stream left behind.
func (x *Executor) captureCarries(p *plan.ChangePlan, g *group) ([]carry, error) {
	var out []carry
	for _, i := range g.steps {
		s := p.Steps[i]
		if s.Op != plan.OpSwapProgram {
			continue
		}
		old := g.dev.Instance(s.Instance)
		if old == nil {
			return nil, fmt.Errorf("runtime: instance %q vanished from %s before commit", s.Instance, g.dev.Name())
		}
		c := carry{instance: s.Instance, state: old.ExportState(), entries: map[string][]*flexbpf.TableEntry{}}
		for name, ti := range old.Tables() {
			c.entries[name] = ti.Entries()
		}
		out = append(out, c)
	}
	return out, nil
}

// applyCarries restores captured state into the freshly-activated
// replacement instances: objects that survive the swap keep their
// values, vanished objects are dropped, new objects start empty.
// Incompatible table entries are skipped (the delta report already told
// the caller which tables changed shape).
func (x *Executor) applyCarries(dev *dataplane.Device, carries []carry) error {
	for _, c := range carries {
		inst := dev.Instance(c.instance)
		if inst == nil {
			return fmt.Errorf("runtime: swapped instance %q missing on %s", c.instance, dev.Name())
		}
		surviving := map[string]bool{}
		for _, n := range inst.Store().Names() {
			surviving[n] = true
		}
		var keep []state.Logical
		for _, l := range c.state {
			if surviving[l.Name] {
				keep = append(keep, l)
			}
		}
		if err := inst.ImportState(keep); err != nil {
			return err
		}
		for name, entries := range c.entries {
			ti := inst.Table(name)
			if ti == nil {
				continue
			}
			for _, e := range entries {
				if err := ti.Insert(e); err != nil {
					break
				}
			}
		}
	}
	return nil
}
