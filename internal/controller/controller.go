// Package controller implements FlexNet's central controller (§3.4
// "Real-time Network Control"): it pilots a runtime-programmable fabric
// with *app-level* abstractions — applications are named by URIs and
// managed as first-class objects (deploy, remove, migrate, scale,
// query), with the translation into low-level device operations
// (program installs, table entries) done automatically.
//
// It also implements the paper's multi-tenant scenario (§3): tenants are
// admitted with a VLAN allocation; their extension programs are isolated
// by VLAN filters; departures trigger program removal and resource
// reclamation.
//
// Control-plane cost is proportional to what an operation touches
// (DESIGN.md §13): the compile target list is cached by fabric
// generation, and update/scale operations recompile placement
// incrementally from the app's previous plan instead of recomputing the
// fabric-wide placement.
//
// Each intent change — create or delete an app, add or drop a replica,
// replace a segment's program — has one lowering to plan steps (an item),
// shared by the imperative op and ApplySpec; one change per app is
// admitted at a time, and every plan the controller makes — app ops,
// spec batches and heal plans — executes through one run helper.
//
// DESIGN.md §2 (S9) inventories the controller; operations execute as §5 change plans, and §10.3 specifies the self-healing loop (heal.go).
package controller

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"flexnet/internal/audit"
	"flexnet/internal/compiler"
	"flexnet/internal/errdefs"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/migrate"
	"flexnet/internal/netsim"
	"flexnet/internal/plan"
	"flexnet/internal/runtime"
	"flexnet/internal/spec"
	"flexnet/internal/telemetry"
)

// AppStatus is an application's lifecycle state: running, or which kind
// of change has a plan in flight. An app takes one change at a time
// (Controller.claim).
type AppStatus uint8

// Application states.
const (
	StatusDeploying AppStatus = iota
	StatusRunning
	StatusMigrating
	StatusRemoving
	// StatusChanging covers scale, update, redeploy and spec changes.
	StatusChanging
)

func (s AppStatus) String() string {
	switch s {
	case StatusDeploying:
		return "deploying"
	case StatusRunning:
		return "running"
	case StatusMigrating:
		return "migrating"
	case StatusRemoving:
		return "removing"
	case StatusChanging:
		return "changing"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// App is a managed application: a datapath deployed under a URI handle.
type App struct {
	// URI names the app ("flexnet://tenant-a/syn-defense").
	URI string
	// Tenant is the owning tenant ("" = infrastructure).
	Tenant string
	// Datapath is the logical program chain.
	Datapath *flexbpf.Datapath
	// Plan is the current placement. It is kept current across updates,
	// migrations, and redeploys — the incremental recompiler keys off it.
	Plan *compiler.Plan
	// Path is the deployment's placement restriction (DeployOptions.Path),
	// remembered so recompiles plan against the same candidate order.
	Path []string
	// Replicas maps segment name → devices hosting replicas (the first
	// is the primary from Plan; extras come from ScaleOut).
	Replicas map[string][]string
	Status   AppStatus

	// fps remembers each segment's fingerprint beside the program it was
	// computed from; see Controller.liveFP. Guarded by the registry
	// mutex.
	fps map[string]segmentFP
}

// segments returns the app's segment names in sorted order.
func (a *App) segments() []string {
	segs := make([]string, 0, len(a.Replicas))
	for seg := range a.Replicas {
		segs = append(segs, seg)
	}
	sort.Strings(segs)
	return segs
}

// setSegment gives dp's segment seg the program prog. It is the one
// place a live segment changes program short of a whole new datapath
// (create, Redeploy), and it stores prog's pointer rather than editing
// the old program, which is what liveFP relies on (DESIGN.md §14.2).
func setSegment(dp *flexbpf.Datapath, seg string, prog *flexbpf.Program) {
	for i, s := range dp.Segments {
		if s.Name == seg {
			dp.Segments[i] = prog
		}
	}
}

// segmentFP is one remembered compiler.Fingerprint(prog).
type segmentFP struct {
	prog *flexbpf.Program
	fp   uint64
}

// fingerprint is the package's one call of compiler.Fingerprint.
var fingerprint = compiler.Fingerprint

// instanceName is the device-level program name for an app segment.
func instanceName(uri, segment string) string {
	return uri + "#" + segment
}

// Tenant is an admitted tenant with its isolation VLAN.
type Tenant struct {
	Name string
	VLAN uint64
	Apps []string
}

// Controller pilots one fabric.
type Controller struct {
	fab  *fabric.Fabric
	comp *compiler.Compiler
	mig  *migrate.Migrator

	// exec is the single transactional change path: every operation's
	// ChangePlan is executed (through run) or dry-run through it.
	exec *runtime.Executor
	// lastReport is the report of the most recently finished plan.
	lastReport *plan.Report

	// state is the app and tenant registry (state.go).
	state *registry
	// targets is the generation-keyed compile-target cache.
	targets *targetCache
	// incremental selects incremental placement recompilation for
	// update/scale operations (the default); off recomputes the app's
	// full placement per op — the fabric-size-proportional baseline E18
	// contrasts against.
	incremental bool

	// placeScans / placeSegs count placement work: candidate targets
	// examined and segment placements recomputed across all operations.
	placeScans *telemetry.Counter
	placeSegs  *telemetry.Counter

	// audit is the append-only hash-chained trail of every control-plane
	// mutation: the executor's audit sink records each executed plan,
	// and tenant admissions/departures append their own records. Always
	// on; timestamps come from the simulated clock, so the chain is
	// byte-identical at a seed.
	audit *audit.Log

	// ha, when non-nil, is the active/standby replica manager (ha.go):
	// the controller's durable log replicates to standbys and a leader
	// kill fails over through the executor's freeze/recover protocol.
	ha *HA

	// Declarative spec state (spec.go): the last successfully applied
	// spec and when.
	specMu     sync.Mutex
	lastSpec   *spec.Resolved
	lastSpecAt netsim.Time
	specApply  bool // an ApplySpec is in flight
}

// New creates a controller over the fabric. It places with the fungible
// compiler.
func New(fab *fabric.Fabric) *Controller {
	c := &Controller{
		fab:         fab,
		comp:        compiler.New(compiler.StrategyFungible),
		mig:         migrate.New(fab),
		state:       newRegistry(),
		targets:     newTargetCache(fab),
		incremental: true,
		placeScans:  fab.Metrics.Counter("ctl.placement.targets_scanned"),
		placeSegs:   fab.Metrics.Counter("ctl.placement.segments_recompiled"),
	}
	c.exec = runtime.NewExecutor(fab.Sim, fab.Device, c.mig, fab)
	c.exec.SetTelemetry(fab.Metrics, fab.Tracer)
	c.audit = audit.NewLog(func() int64 { return int64(fab.Sim.Now()) })
	// Every record after the genesis one is an appended mutation.
	fab.Metrics.CounterView("ctl.audit.records", func() uint64 { return uint64(c.audit.Len() - 1) })
	c.exec.SetAuditSink(func(r *plan.Report) {
		c.audit.Append(audit.FromReport(r))
	})
	return c
}

// instrument counts one controller operation ("ctl.ops.<op>") and wraps
// its completion callback so failures also bump "ctl.op_failures". The
// returned callback is never nil, so callers can invoke it directly.
func (c *Controller) instrument(op string, done func(error)) func(error) {
	c.fab.Metrics.Counter("ctl.ops." + op).Inc()
	return func(err error) {
		if err != nil {
			c.fab.Metrics.Counter("ctl.op_failures").Inc()
		}
		if done != nil {
			done(err)
		}
	}
}

// SetIncrementalPlacement toggles incremental placement recompilation
// (on by default). Off, every update/scale operation recomputes the
// app's placement from scratch and re-lists the fabric — the
// O(fabric-size) baseline the E18 experiment measures against.
func (c *Controller) SetIncrementalPlacement(on bool) { c.incremental = on }

// planningCharge prices one operation's placement work (scanned
// candidate targets, recompiled segment placements) and records it in
// the ctl.placement.* counters. Full mode additionally pays the per-op
// target list rebuild the cache elides.
func (c *Controller) planningCharge(scanned, segments int) netsim.Time {
	if !c.incremental {
		scanned += c.targets.size()
	}
	if scanned > 0 {
		c.placeScans.Add(uint64(scanned))
	}
	if segments > 0 {
		c.placeSegs.Add(uint64(segments))
	}
	return runtime.EstimatePlacement(scanned, segments)
}

// Compiler exposes the placement compiler, for callers that plan
// against the controller's own placement rules.
func (c *Controller) Compiler() *compiler.Compiler { return c.comp }

// Executor exposes the transactional plan executor.
func (c *Controller) Executor() *runtime.Executor { return c.exec }

// LastReport returns the report of the most recently executed plan
// (nil before the first operation).
func (c *Controller) LastReport() *plan.Report { return c.lastReport }

// DryRun validates a plan — device, verifier, capability, and resource
// checks plus the cost estimate — without mutating anything.
func (c *Controller) DryRun(cp *plan.ChangePlan) *plan.Report { return c.exec.Validate(cp) }

// tenantFilter returns the VLAN isolation filter for a tenant's
// instances (nil for infrastructure apps).
func (c *Controller) tenantFilter(tenant string) *flexbpf.Cond {
	if tenant == "" {
		return nil
	}
	t := c.state.tenant(tenant)
	if t == nil {
		return nil
	}
	return &flexbpf.Cond{Field: "vlan.vid", Op: flexbpf.CmpEq, Value: t.VLAN}
}

// ValidURI checks the app URI shape: flexnet://<owner>/<name>.
func ValidURI(uri string) bool {
	if !strings.HasPrefix(uri, "flexnet://") {
		return false
	}
	rest := strings.TrimPrefix(uri, "flexnet://")
	parts := strings.Split(rest, "/")
	return len(parts) == 2 && parts[0] != "" && parts[1] != ""
}

// AddTenant admits a tenant and allocates its isolation VLAN.
func (c *Controller) AddTenant(name string) (*Tenant, error) {
	c.fab.Metrics.Counter("ctl.ops.tenant_add").Inc()
	t := c.state.addTenant(name)
	if t == nil {
		c.fab.Metrics.Counter("ctl.op_failures").Inc()
		return nil, fmt.Errorf("controller: tenant %q already admitted", name)
	}
	c.audit.Append(audit.Record{Kind: "tenant-add", Tenant: name})
	return t, nil
}

// Audit exposes the controller's append-only mutation trail.
func (c *Controller) Audit() *audit.Log { return c.audit }

// RemoveTenant removes a tenant and all of its apps, reclaiming their
// resources (§1.1 "Tenant departures trigger program removal to trim the
// network and release unused resources"). done fires when all removals
// committed. ctx cancellation propagates to each app's removal plan.
func (c *Controller) RemoveTenant(ctx context.Context, name string, done func(error)) {
	done = c.instrument("tenant_remove", done)
	t := c.state.tenant(name)
	if t == nil {
		done(fmt.Errorf("controller: no tenant %q", name))
		return
	}
	uris := append([]string(nil), t.Apps...)
	remaining := len(uris)
	if remaining == 0 {
		c.state.deleteTenant(name)
		c.audit.Append(audit.Record{Kind: "tenant-remove", Tenant: name})
		done(nil)
		return
	}
	var firstErr error
	for _, uri := range uris {
		c.Remove(ctx, uri, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 {
				c.state.deleteTenant(name)
				c.audit.Append(audit.Record{Kind: "tenant-remove", Tenant: name})
				done(firstErr)
			}
		})
	}
}

// DeployOptions tunes a deployment.
type DeployOptions struct {
	// Path restricts placement to these devices in traffic order
	// (nil = any device).
	Path []string
	// Tenant attributes the app and applies VLAN isolation filters.
	Tenant string
}

// item is one intent change lowered to plan steps: the controller's one
// lowering, shared by the imperative ops (one item in one plan) and
// ApplySpec (items packed into batched plans). It names the app it
// changes (for a create, the app it registers), carries the placement
// work its plan is charged, and apply makes the change in controller
// state once the plan commits.
type item struct {
	key     string // deterministic sort key for spec packing
	app     *App
	steps   []plan.Step
	scanned int
	segs    int
	apply   func()
}

// planOf wraps one item in a plan labelled label, charged for the
// item's placement work.
func (c *Controller) planOf(label string, it item) *plan.ChangePlan {
	cp := plan.New(label)
	cp.Steps = it.steps
	return cp.Planning(c.planningCharge(it.scanned, it.segs))
}

// createItem lowers "create app uri": compile dp's placement (onto path
// when one is given), install every segment's primary, then
// scale[segment]-1 auto-placed extra replicas per segment. Applying it
// registers the app, running.
func (c *Controller) createItem(uri, tenant string, dp *flexbpf.Datapath, path []string, scale map[string]int) (item, error) {
	if !ValidURI(uri) {
		return item{}, fmt.Errorf("controller: malformed app URI %q", uri)
	}
	if c.state.app(uri) != nil {
		return item{}, fmt.Errorf("controller: app %q already deployed", uri)
	}
	if tenant != "" && c.state.tenant(tenant) == nil {
		return item{}, fmt.Errorf("controller: tenant %q not admitted", tenant)
	}
	targets, err := c.targetList(path)
	if err != nil {
		return item{}, err
	}
	placement, err := c.comp.Compile(dp, targets, path)
	if err != nil {
		return item{}, err
	}
	if err := compiler.CheckSLA(placement, dp); err != nil {
		return item{}, err
	}
	app := &App{URI: uri, Tenant: tenant, Datapath: dp, Plan: placement, Path: path, Replicas: map[string][]string{}, Status: StatusRunning}
	filter := c.tenantFilter(tenant)
	var p plan.ChangePlan
	for _, a := range placement.Assignments {
		app.Replicas[a.Segment] = []string{a.Device}
		p.Install(a.Device, instanceName(uri, a.Segment), dp.Segment(a.Segment), filter, 0)
	}
	scanned := placement.TargetsScanned
	for _, seg := range dp.Segments {
		devs, sc, err := c.placeReplicas(seg, path, app.Replicas[seg.Name], scale[seg.Name]-1)
		if err != nil {
			return item{}, fmt.Errorf("segment %s: %w", seg.Name, err)
		}
		scanned += sc
		for _, dev := range devs {
			app.Replicas[seg.Name] = append(app.Replicas[seg.Name], dev)
			p.Install(dev, instanceName(uri, seg.Name), seg, filter, 0)
		}
	}
	return item{key: "create " + uri, app: app, steps: p.Steps, scanned: scanned, segs: len(dp.Segments),
		apply: func() { c.state.putApp(app) }}, nil
}

// removeItem lowers "delete app": remove every replica of every segment,
// segments in name order. Applying it unregisters the app.
func (c *Controller) removeItem(app *App) item {
	var p plan.ChangePlan
	for _, seg := range app.segments() {
		for _, dev := range app.Replicas[seg] {
			p.Remove(dev, instanceName(app.URI, seg))
		}
	}
	return item{key: "delete " + app.URI, app: app, steps: p.Steps, apply: func() { c.state.deleteApp(app.URI) }}
}

// placeReplicas auto-places n replicas of prog — the path's devices
// first, then the fabric, first fit — on devices outside have. It
// returns the devices in placement order and the candidates scanned.
func (c *Controller) placeReplicas(prog *flexbpf.Program, path, have []string, n int) ([]string, int, error) {
	if n <= 0 {
		return nil, 0, nil
	}
	exclude := make(map[string]bool, len(have)+n)
	for _, d := range have {
		exclude[d] = true
	}
	devs := make([]string, 0, n)
	scanned := 0
	for len(devs) < n {
		dev, sc, err := compiler.PlaceSegment(prog, c.targets.list(), path, exclude)
		if err != nil {
			return nil, 0, err
		}
		scanned += sc
		exclude[dev] = true
		devs = append(devs, dev)
	}
	return devs, scanned, nil
}

// addReplicasItem lowers "add replicas of segment, running prog, on
// devs"; scanned is the placement work that chose devs.
func (c *Controller) addReplicasItem(app *App, segment string, prog *flexbpf.Program, devs []string, scanned int) item {
	var p plan.ChangePlan
	filter := c.tenantFilter(app.Tenant)
	for _, dev := range devs {
		p.Install(dev, instanceName(app.URI, segment), prog, filter, 0)
	}
	return item{key: "scale-up " + app.URI + "#" + segment, app: app, steps: p.Steps, scanned: scanned, segs: 1,
		apply: func() { app.Replicas[segment] = append(app.Replicas[segment], devs...) }}
}

// dropReplicasItem lowers "drop segment's replicas on victims", removed
// in the order given.
func (c *Controller) dropReplicasItem(app *App, segment string, victims []string) item {
	var p plan.ChangePlan
	for _, dev := range victims {
		p.Remove(dev, instanceName(app.URI, segment))
	}
	return item{key: "scale-down " + app.URI + "#" + segment, app: app, steps: p.Steps, apply: func() {
		app.Replicas[segment] = slices.DeleteFunc(app.Replicas[segment], func(dev string) bool { return slices.Contains(victims, dev) })
	}}
}

// swapItem lowers "replace segment's program with prog" on every
// replica; applying it gives the live segment prog (setSegment).
func (c *Controller) swapItem(app *App, segment string, prog *flexbpf.Program) item {
	var p plan.ChangePlan
	filter := c.tenantFilter(app.Tenant)
	for _, dev := range app.Replicas[segment] {
		p.Swap(dev, instanceName(app.URI, segment), prog, filter)
	}
	return item{key: "swap " + app.URI + "#" + segment, app: app, steps: p.Steps, segs: 1,
		apply: func() { setSegment(app.Datapath, segment, prog) }}
}

// claim marks apps as having a change in flight (status st), or refuses
// the change and marks nothing if any of them already has one: two
// changes to one app would each be planned from state the other is about
// to replace. run returns a claimed app to StatusRunning when its plan
// settles.
func (c *Controller) claim(st AppStatus, apps ...*App) error {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	for _, a := range apps {
		if a.Status != StatusRunning {
			return fmt.Errorf("controller: app %q is %s; one change at a time", a.URI, a.Status)
		}
	}
	for _, a := range apps {
		a.Status = st
	}
	return nil
}

func (c *Controller) release(apps ...*App) {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	for _, a := range apps {
		a.Status = StatusRunning
	}
}

// run submits every plan the controller makes. It records the report as
// LastReport, makes the op's state change (apply, may be nil) if the plan
// committed, returns the claimed app to StatusRunning (app is nil when
// there is none to release here), and hands the report to done.
func (c *Controller) run(ctx context.Context, cp *plan.ChangePlan, app *App, apply func(), done func(*plan.Report)) {
	c.exec.ExecuteCtx(ctx, cp, func(r *plan.Report) {
		c.lastReport = r
		if r.Err == nil && apply != nil {
			apply()
		}
		if app != nil {
			c.release(app)
		}
		done(r)
	})
}

// change runs an imperative op on one app from what planning returned:
// it counts the op, claims the item's app under st and runs cp. done gets
// the first error — planning's, the claim's or the plan's.
func (c *Controller) change(ctx context.Context, op string, st AppStatus, cp *plan.ChangePlan, it item, err error, done func(error)) {
	done = c.instrument(op, done)
	if err == nil {
		err = c.claim(st, it.app)
	}
	if err != nil {
		done(err)
		return
	}
	c.run(ctx, cp, it.app, it.apply, func(r *plan.Report) { done(r.Err) })
}

func errNoApp(uri string) error {
	return fmt.Errorf("controller: no app %q: %w", uri, errdefs.ErrNoSuchApp)
}

// PlanDeploy validates and compiles a deployment, returning the change
// plan and the placement without executing anything. The returned plan
// can be dry-run (DryRun) or handed back through Deploy's execution by
// the caller's choice.
func (c *Controller) PlanDeploy(uri string, dp *flexbpf.Datapath, opts DeployOptions) (*plan.ChangePlan, *compiler.Plan, error) {
	it, err := c.createItem(uri, opts.Tenant, dp, opts.Path, nil)
	if err != nil {
		return nil, nil, err
	}
	return c.planOf("deploy "+uri, it), it.app.Plan, nil
}

// Deploy compiles and installs an app's datapath under the URI handle.
// done receives the final error (nil on success) after all devices
// commit; on any failure the plan is rolled back and the URI released
// so a corrected deployment can retry. Cancelling ctx mid-plan rolls
// the deployment back (see runtime.Executor.ExecuteCtx).
func (c *Controller) Deploy(ctx context.Context, uri string, dp *flexbpf.Datapath, opts DeployOptions, done func(error)) {
	done = c.instrument("deploy", done)
	it, err := c.createItem(uri, opts.Tenant, dp, opts.Path, nil)
	if err != nil {
		done(err)
		return
	}
	cp := c.planOf("deploy "+uri, it)
	// Unlike a spec create, Deploy registers the app before its plan
	// runs; registering it deploying is its claim.
	it.app.Status = StatusDeploying
	it.apply()
	c.run(ctx, cp, it.app, nil, func(r *plan.Report) {
		if r.Err != nil {
			// Rollback restored the devices; release the URI so a
			// corrected deployment can retry.
			c.state.deleteApp(uri)
		}
		done(r.Err)
	})
}

// targetList returns compile targets, restricted to path when given.
// The unrestricted list comes straight from the generation-keyed cache;
// a path naming a device the fabric does not have is an error
// (errdefs.ErrUnknownDevice) — compiling onto the silently-shrunk
// target set used to mask typos as placement failures.
func (c *Controller) targetList(path []string) ([]compiler.Target, error) {
	if path == nil {
		return c.targets.list(), nil
	}
	out := make([]compiler.Target, 0, len(path))
	for _, n := range path {
		t := c.targets.get(n)
		if t == nil {
			return nil, fmt.Errorf("controller: path names %q: %w", n, errdefs.ErrUnknownDevice)
		}
		out = append(out, t)
	}
	return out, nil
}

// App returns the app registered under uri, or nil.
func (c *Controller) App(uri string) *App { return c.state.app(uri) }

// Apps returns deployed URIs in sorted order.
func (c *Controller) Apps() []string { return c.state.appURIs() }

// PlanRemove builds the removal plan for every replica of an app.
func (c *Controller) PlanRemove(uri string) (*plan.ChangePlan, error) {
	cp, _, err := c.planRemove(uri)
	return cp, err
}

func (c *Controller) planRemove(uri string) (*plan.ChangePlan, item, error) {
	app := c.state.app(uri)
	if app == nil {
		return nil, item{}, errNoApp(uri)
	}
	it := c.removeItem(app)
	cp := plan.New("remove " + uri)
	// A removal's intent survives a dead replica — the crashed device
	// already lost the instance — so the plan may skip down devices and
	// report OutcomeDegraded instead of aborting (DESIGN.md §10).
	cp.AllowDegraded = true
	cp.Steps = it.steps
	return cp, it, nil
}

// Remove uninstalls an app everywhere and releases its resources. On
// failure the rollback re-places every instance (state intact) and the
// app stays registered and running.
func (c *Controller) Remove(ctx context.Context, uri string, done func(error)) {
	cp, it, err := c.planRemove(uri)
	c.change(ctx, "remove", StatusRemoving, cp, it, err, done)
}

// PlanScaleOut builds the plan for one additional replica. An empty
// device auto-places the replica: the compiler scans the app's path
// first, then the fabric, for the first device that fits — the chosen
// device is returned. The returned device equals the argument when one
// was given.
func (c *Controller) PlanScaleOut(uri, segment, device string) (*plan.ChangePlan, string, error) {
	cp, _, err := c.planScaleOut(uri, segment, device)
	if err != nil {
		return nil, "", err
	}
	return cp, cp.Steps[0].Device, nil
}

func (c *Controller) planScaleOut(uri, segment, device string) (*plan.ChangePlan, item, error) {
	app := c.state.app(uri)
	if app == nil {
		return nil, item{}, errNoApp(uri)
	}
	seg := app.Datapath.Segment(segment)
	if seg == nil {
		return nil, item{}, fmt.Errorf("controller: app %q has no segment %q: %w", uri, segment, errdefs.ErrNoSuchApp)
	}
	devs, scanned := []string{device}, 1
	if device == "" {
		var err error
		if devs, scanned, err = c.placeReplicas(seg, app.Path, app.Replicas[segment], 1); err != nil {
			return nil, item{}, fmt.Errorf("controller: scale-out %s/%s: %w", uri, segment, err)
		}
	} else if slices.Contains(app.Replicas[segment], device) {
		return nil, item{}, fmt.Errorf("controller: %q already replicated on %s", uri, device)
	}
	it := c.addReplicasItem(app, segment, seg, devs, scanned)
	return c.planOf(fmt.Sprintf("scale-out %s/%s -> %s", uri, segment, devs[0]), it), it, nil
}

// ScaleOut installs an additional replica of an app segment on a device
// (elastic defenses, §1.1: defenses "dynamically scale in and out based
// on attack traffic volume"). An empty device lets the controller pick
// one (see PlanScaleOut).
func (c *Controller) ScaleOut(ctx context.Context, uri, segment, device string, done func(error)) {
	cp, it, err := c.planScaleOut(uri, segment, device)
	c.change(ctx, "scale_out", StatusChanging, cp, it, err, done)
}

// PlanScaleIn builds the plan to retire one replica.
func (c *Controller) PlanScaleIn(uri, segment, device string) (*plan.ChangePlan, error) {
	cp, _, err := c.planScaleIn(uri, segment, device)
	return cp, err
}

func (c *Controller) planScaleIn(uri, segment, device string) (*plan.ChangePlan, item, error) {
	app := c.state.app(uri)
	if app == nil {
		return nil, item{}, errNoApp(uri)
	}
	devs := app.Replicas[segment]
	if !slices.Contains(devs, device) {
		return nil, item{}, fmt.Errorf("controller: %q segment %q has no replica on %s", uri, segment, device)
	}
	if len(devs) == 1 {
		return nil, item{}, fmt.Errorf("controller: refusing to remove the last replica of %q/%q", uri, segment)
	}
	it := c.dropReplicasItem(app, segment, []string{device})
	cp := c.planOf(fmt.Sprintf("scale-in %s/%s on %s", uri, segment, device), it)
	// Like removal, retiring a replica on a dead device is already done
	// as far as the network is concerned; degrade instead of aborting.
	cp.AllowDegraded = true
	return cp, it, nil
}

// ScaleIn removes a replica from a device.
func (c *Controller) ScaleIn(ctx context.Context, uri, segment, device string, done func(error)) {
	cp, it, err := c.planScaleIn(uri, segment, device)
	c.change(ctx, "scale_in", StatusChanging, cp, it, err, done)
}

// MigrateRequest names a segment migration. The explicit DataPlane field
// replaces the bare bool that used to ride the end of Migrate's
// parameter list, which was unreadable (and therefore error-prone) at
// call sites: Migrate(..., true) said nothing about what true meant.
type MigrateRequest struct {
	// URI and Segment select the app segment; its primary replica moves.
	URI, Segment string
	// Dst is the destination device.
	Dst string
	// DataPlane selects in-band dRPC state transfer; false uses the
	// control-plane baseline (export via controller, import at dst).
	DataPlane bool
}

// PlanMigrate builds the migration plan for an app segment's primary
// replica: install the instance at dst (committed epoch-atomically),
// then move its state and flip traffic as a post-commit step.
func (c *Controller) PlanMigrate(req MigrateRequest) (*plan.ChangePlan, error) {
	uri, segment, dst := req.URI, req.Segment, req.Dst
	app := c.state.app(uri)
	if app == nil {
		return nil, errNoApp(uri)
	}
	devs := app.Replicas[segment]
	if len(devs) == 0 {
		return nil, fmt.Errorf("controller: app %q segment %q not placed: %w", uri, segment, errdefs.ErrNoSuchApp)
	}
	src := devs[0]
	if src == dst {
		return nil, fmt.Errorf("controller: %q segment %q already on %s", uri, segment, dst)
	}
	instName := instanceName(uri, segment)
	// Install the instance's *live* program (it may have been updated
	// since deployment), falling back to the logical segment.
	prog := app.Datapath.Segment(segment)
	if sdev := c.fab.Device(src); sdev != nil {
		if inst := sdev.Instance(instName); inst != nil {
			prog = inst.Program()
		}
	}
	if prog == nil {
		return nil, fmt.Errorf("controller: app %q has no segment %q: %w", uri, segment, errdefs.ErrNoSuchApp)
	}
	cp := plan.New(fmt.Sprintf("migrate %s/%s %s -> %s", uri, segment, src, dst))
	cp.Install(dst, instName, prog, c.tenantFilter(app.Tenant), 0)
	cp.MigrateState(instName, src, dst, req.DataPlane)
	return cp, nil
}

// Migrate moves an app segment between devices using data-plane state
// migration (req.DataPlane) or the control-plane baseline. A failure at
// any point — including ctx cancellation — rolls the plan back: the
// destination install is undone and the source stays authoritative. done
// receives the report of this plan's own move.
func (c *Controller) Migrate(ctx context.Context, req MigrateRequest, done func(plan.MoveReport)) {
	count := c.instrument("migrate", nil)
	inner := done
	done = func(r plan.MoveReport) {
		count(r.Err)
		if inner != nil {
			inner(r)
		}
	}
	cp, err := c.PlanMigrate(req)
	app := c.state.app(req.URI)
	if err == nil {
		err = c.claim(StatusMigrating, app)
	}
	if err != nil {
		done(plan.MoveReport{Err: err})
		return
	}
	segment, dst := req.Segment, req.Dst
	src := app.Replicas[segment][0]
	c.run(ctx, cp, app, func() {
		app.Replicas[segment][0] = dst
		// Keep the placement plan current: the incremental recompiler
		// keys off it, so a stale assignment would undo the migration on
		// the next update.
		if app.Plan != nil {
			for i, a := range app.Plan.Assignments {
				if a.Segment == segment {
					app.Plan.Assignments[i].Device = dst
				}
			}
		}
	}, func(r *plan.Report) {
		mv := r.Steps[len(r.Steps)-1].Move
		if mv == nil || (r.Err != nil && mv.Err == nil) {
			// The plan failed before the mover ran (install phase) or
			// after it (cancellation): report the plan's error.
			mv = &plan.MoveReport{Program: instanceName(req.URI, segment), Src: src, Dst: dst, Err: r.Err}
		}
		done(*mv)
	})
}

// Resources reports per-device free resources and fungibility — the
// network-wide resource view the compiler plans against.
type Resources struct {
	Device      string
	Free        flexbpf.Demand
	Fungibility float64
	Programs    []string
}

// ResourceView returns the global resource table, sorted by device.
func (c *Controller) ResourceView() []Resources {
	var out []Resources
	for _, name := range c.fab.Devices() {
		d := c.fab.Device(name)
		out = append(out, Resources{
			Device:      name,
			Free:        d.Free(),
			Fungibility: d.Fungibility(),
			Programs:    d.Programs(),
		})
	}
	return out
}
