// Package controller implements FlexNet's central controller (§3.4
// "Real-time Network Control"): it pilots a runtime-programmable fabric
// with *app-level* abstractions — applications are named by URIs and
// managed as first-class objects (deploy, remove, migrate, scale,
// query), with the translation into low-level device operations
// (program installs, table entries, parser edits) done automatically.
//
// It also implements the paper's multi-tenant scenario (§3): tenants are
// admitted with a VLAN allocation; their extension programs are isolated
// by VLAN filters; departures trigger program removal and resource
// reclamation.
//
// Control-plane cost is proportional to what an operation touches
// (DESIGN.md §13): app/tenant state is sharded by owner, the compile
// target list is cached by fabric generation, and update/scale
// operations recompile placement incrementally from the app's previous
// plan instead of recomputing the fabric-wide placement.
//
// DESIGN.md §2 (S9) inventories the controller; operations execute as §5 change plans, and §10.3 specifies the self-healing loop (heal.go).
package controller

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"flexnet/internal/audit"
	"flexnet/internal/compiler"
	"flexnet/internal/errdefs"
	"flexnet/internal/fabric"
	"flexnet/internal/flexbpf"
	"flexnet/internal/migrate"
	"flexnet/internal/netsim"
	"flexnet/internal/packet"
	"flexnet/internal/plan"
	"flexnet/internal/runtime"
	"flexnet/internal/spec"
	"flexnet/internal/telemetry"
)

// AppStatus is an application's lifecycle state.
type AppStatus uint8

// Application states.
const (
	StatusDeploying AppStatus = iota
	StatusRunning
	StatusMigrating
	StatusRemoving
	StatusFailed
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
	case StatusFailed:
		return "failed"
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
	// computed from; see Controller.liveFP. Guarded by the app's state
	// shard lock.
	fps map[string]segmentFP
}

// segmentFP is one remembered compiler.Fingerprint(prog).
type segmentFP struct {
	prog *flexbpf.Program
	fp   uint64
}

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
	eng  *runtime.Engine
	comp *compiler.Compiler
	mig  *migrate.Migrator

	// exec is the single transactional change path: every operation's
	// ChangePlan is executed (or dry-run) through it.
	exec *runtime.Executor
	// lastReport is the report of the most recently finished plan.
	lastReport *plan.Report

	// state holds apps and tenants, sharded by owner (shard.go).
	state *shardedState
	// targets is the generation-keyed compile-target cache.
	targets *targetCache
	// incremental selects incremental placement recompilation for
	// update/scale operations (the default); off recomputes the app's
	// full placement per op — the fabric-size-proportional baseline E18
	// contrasts against.
	incremental bool
	// nextVLAN allocates tenant VLANs (atomic).
	nextVLAN uint64

	// placeScans / placeSegs count placement work: candidate targets
	// examined and segment placements recomputed across all operations.
	placeScans *telemetry.Counter
	placeSegs  *telemetry.Counter

	// Punts buffers packets the data plane sends to the controller
	// (bounded; see PuntRing).
	Punts *PuntRing
	// OnPunt, when set, is called for each punted packet.
	OnPunt func(dev string, pkt *packet.Packet)

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
	// spec and when, plus the reconcile counter.
	specMu     sync.Mutex
	lastSpec   *spec.Resolved
	lastSpecAt netsim.Time
	specApply  bool // an ApplySpec is in flight
}

// PuntRecord is one packet punted to the controller.
type PuntRecord struct {
	Device string
	At     netsim.Time
	FlowID uint64
}

// New creates a controller over the fabric.
func New(fab *fabric.Fabric, eng *runtime.Engine, strategy compiler.Strategy) *Controller {
	c := &Controller{
		fab:         fab,
		eng:         eng,
		comp:        compiler.New(strategy),
		mig:         migrate.New(fab, eng),
		state:       newShardedState(),
		targets:     newTargetCache(fab),
		incremental: true,
		nextVLAN:    100,
		placeScans:  fab.Metrics.Counter("ctl.placement.targets_scanned"),
		placeSegs:   fab.Metrics.Counter("ctl.placement.segments_recompiled"),
		Punts:       NewPuntRing(0),
	}
	c.Punts.onDrop = func() {
		// Lazily created so punt-light runs export an unchanged snapshot.
		fab.Metrics.Counter("ctl.punts_dropped").Inc()
	}
	c.mig.Flip = func(prog, src, dst string) {
		// Migration flip: the source instance is removed; traffic
		// reaching dst is processed by the new instance.
		_ = fab.Device(src).RemoveProgram(prog)
	}
	c.exec = runtime.NewExecutor(eng, fab.Device, c.mig, fab)
	c.exec.SetTelemetry(fab.Metrics, fab.Tracer)
	c.audit = audit.NewLog(func() int64 { return int64(fab.Sim.Now()) })
	auditRecords := fab.Metrics.Counter("ctl.audit.records")
	c.audit.OnAppend(func() { auditRecords.Inc() })
	c.exec.SetAuditSink(func(r *plan.Report) {
		c.audit.Append(audit.FromReport(r))
	})
	fab.Punted = func(dev string, pkt *packet.Packet) {
		c.Punts.Append(PuntRecord{Device: dev, At: fab.Sim.Now(), FlowID: pkt.FlowKey().Hash()})
		if c.OnPunt != nil {
			c.OnPunt(dev, pkt)
		}
	}
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

// IncrementalPlacement reports the current placement mode.
func (c *Controller) IncrementalPlacement() bool { return c.incremental }

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
	return c.eng.EstimatePlacement(scanned, segments)
}

// Compiler exposes the placement compiler (for strategy tweaks).
func (c *Controller) Compiler() *compiler.Compiler { return c.comp }

// Migrator exposes the migrator.
func (c *Controller) Migrator() *migrate.Migrator { return c.mig }

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
	sh := c.state.shardFor(name)
	sh.mu.Lock()
	if _, dup := sh.tenants[name]; dup {
		sh.mu.Unlock()
		c.fab.Metrics.Counter("ctl.op_failures").Inc()
		return nil, fmt.Errorf("controller: tenant %q already admitted", name)
	}
	t := &Tenant{Name: name, VLAN: atomic.AddUint64(&c.nextVLAN, 1) - 1}
	sh.tenants[name] = t
	sh.mu.Unlock()
	c.audit.Append(audit.Record{Kind: "tenant-add", Tenant: name})
	return t, nil
}

// Audit exposes the controller's append-only mutation trail.
func (c *Controller) Audit() *audit.Log { return c.audit }

// Tenant returns an admitted tenant, or nil.
func (c *Controller) Tenant(name string) *Tenant { return c.state.tenant(name) }

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

// PlanDeploy validates and compiles a deployment, returning the change
// plan and the placement without executing anything. The returned plan
// can be dry-run (DryRun) or handed back through Deploy's execution by
// the caller's choice.
func (c *Controller) PlanDeploy(uri string, dp *flexbpf.Datapath, opts DeployOptions) (*plan.ChangePlan, *compiler.Plan, error) {
	if !ValidURI(uri) {
		return nil, nil, fmt.Errorf("controller: malformed app URI %q", uri)
	}
	if c.state.app(uri) != nil {
		return nil, nil, fmt.Errorf("controller: app %q already deployed", uri)
	}
	if opts.Tenant != "" && c.state.tenant(opts.Tenant) == nil {
		return nil, nil, fmt.Errorf("controller: tenant %q not admitted", opts.Tenant)
	}
	// Compile against current device state.
	targets, err := c.targetList(opts.Path)
	if err != nil {
		return nil, nil, err
	}
	placement, err := c.comp.Compile(dp, targets, opts.Path)
	if err != nil {
		return nil, nil, err
	}
	if err := compiler.CheckSLA(placement, dp); err != nil {
		return nil, nil, err
	}
	filter := c.tenantFilter(opts.Tenant)
	cp := plan.New("deploy " + uri)
	for _, a := range placement.Assignments {
		cp.Install(a.Device, instanceName(uri, a.Segment), dp.Segment(a.Segment), filter, 0)
	}
	cp.Planning(c.planningCharge(placement.TargetsScanned, len(dp.Segments)))
	return cp, placement, nil
}

// Deploy compiles and installs an app's datapath under the URI handle.
// done receives the final error (nil on success) after all devices
// commit; on any failure the plan is rolled back and the URI released
// so a corrected deployment can retry. Cancelling ctx mid-plan rolls
// the deployment back (see runtime.Executor.ExecuteCtx).
func (c *Controller) Deploy(ctx context.Context, uri string, dp *flexbpf.Datapath, opts DeployOptions, done func(error)) {
	done = c.instrument("deploy", done)
	fail := func(err error) {
		if done != nil {
			done(err)
		}
	}
	cp, placement, err := c.PlanDeploy(uri, dp, opts)
	if err != nil {
		fail(err)
		return
	}
	app := &App{
		URI:      uri,
		Tenant:   opts.Tenant,
		Datapath: dp,
		Plan:     placement,
		Path:     opts.Path,
		Replicas: map[string][]string{},
		Status:   StatusDeploying,
	}
	for _, a := range placement.Assignments {
		app.Replicas[a.Segment] = []string{a.Device}
	}
	c.state.putApp(app)
	if opts.Tenant != "" {
		c.state.addTenantApp(opts.Tenant, uri)
	}
	c.exec.ExecuteCtx(ctx, cp, func(r *plan.Report) {
		c.lastReport = r
		if r.Err != nil {
			// Rollback restored the devices; release the URI so a
			// corrected deployment can retry.
			app.Status = StatusFailed
			c.state.deleteApp(uri)
			if opts.Tenant != "" {
				c.state.removeTenantApp(opts.Tenant, uri)
			}
			fail(r.Err)
			return
		}
		app.Status = StatusRunning
		if done != nil {
			done(nil)
		}
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
	app := c.state.app(uri)
	if app == nil {
		return nil, fmt.Errorf("controller: no app %q: %w", uri, errdefs.ErrNoSuchApp)
	}
	cp := plan.New("remove " + uri)
	// A removal's intent survives a dead replica — the crashed device
	// already lost the instance — so the plan may skip down devices and
	// report OutcomeDegraded instead of aborting (DESIGN.md §10).
	cp.AllowDegraded = true
	segs := make([]string, 0, len(app.Replicas))
	for seg := range app.Replicas {
		segs = append(segs, seg)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		for _, dev := range app.Replicas[seg] {
			cp.Remove(dev, instanceName(uri, seg))
		}
	}
	return cp, nil
}

// Remove uninstalls an app everywhere and releases its resources. On
// failure the rollback re-places every instance (state intact) and the
// app stays registered and running.
func (c *Controller) Remove(ctx context.Context, uri string, done func(error)) {
	done = c.instrument("remove", done)
	cp, err := c.PlanRemove(uri)
	if err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	app := c.state.app(uri)
	app.Status = StatusRemoving
	c.exec.ExecuteCtx(ctx, cp, func(r *plan.Report) {
		c.lastReport = r
		if r.Err != nil {
			app.Status = StatusRunning
			if done != nil {
				done(r.Err)
			}
			return
		}
		c.state.deleteApp(uri)
		if app.Tenant != "" {
			c.state.removeTenantApp(app.Tenant, uri)
		}
		if done != nil {
			done(nil)
		}
	})
}

// PlanScaleOut builds the plan for one additional replica. An empty
// device auto-places the replica: the compiler scans the app's path
// first, then the fabric, for the first device that fits — the chosen
// device is returned. The returned device equals the argument when one
// was given.
func (c *Controller) PlanScaleOut(uri, segment, device string) (*plan.ChangePlan, string, error) {
	app := c.state.app(uri)
	if app == nil {
		return nil, "", fmt.Errorf("controller: no app %q: %w", uri, errdefs.ErrNoSuchApp)
	}
	seg := app.Datapath.Segment(segment)
	if seg == nil {
		return nil, "", fmt.Errorf("controller: app %q has no segment %q: %w", uri, segment, errdefs.ErrNoSuchApp)
	}
	scanned := 1
	if device == "" {
		exclude := map[string]bool{}
		for _, d := range app.Replicas[segment] {
			exclude[d] = true
		}
		var err error
		device, scanned, err = compiler.PlaceSegment(seg, c.targets.list(), app.Path, exclude)
		if err != nil {
			return nil, "", fmt.Errorf("controller: scale-out %s/%s: %w", uri, segment, err)
		}
	} else {
		for _, d := range app.Replicas[segment] {
			if d == device {
				return nil, "", fmt.Errorf("controller: %q already replicated on %s", uri, device)
			}
		}
	}
	cp := plan.New(fmt.Sprintf("scale-out %s/%s -> %s", uri, segment, device))
	cp.Install(device, instanceName(uri, segment), seg, c.tenantFilter(app.Tenant), 0)
	cp.Planning(c.planningCharge(scanned, 1))
	return cp, device, nil
}

// ScaleOut installs an additional replica of an app segment on a device
// (elastic defenses, §1.1: defenses "dynamically scale in and out based
// on attack traffic volume"). An empty device lets the controller pick
// one (see PlanScaleOut).
func (c *Controller) ScaleOut(ctx context.Context, uri, segment, device string, done func(error)) {
	done = c.instrument("scale_out", done)
	fail := func(err error) {
		if done != nil {
			done(err)
		}
	}
	cp, placed, err := c.PlanScaleOut(uri, segment, device)
	if err != nil {
		fail(err)
		return
	}
	app := c.state.app(uri)
	c.exec.ExecuteCtx(ctx, cp, func(r *plan.Report) {
		c.lastReport = r
		if r.Err != nil {
			fail(r.Err)
			return
		}
		app.Replicas[segment] = append(app.Replicas[segment], placed)
		if done != nil {
			done(nil)
		}
	})
}

// PlanScaleIn builds the plan to retire one replica.
func (c *Controller) PlanScaleIn(uri, segment, device string) (*plan.ChangePlan, error) {
	app := c.state.app(uri)
	if app == nil {
		return nil, fmt.Errorf("controller: no app %q: %w", uri, errdefs.ErrNoSuchApp)
	}
	devs := app.Replicas[segment]
	found := false
	for _, d := range devs {
		if d == device {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("controller: %q segment %q has no replica on %s", uri, segment, device)
	}
	if len(devs) == 1 {
		return nil, fmt.Errorf("controller: refusing to remove the last replica of %q/%q", uri, segment)
	}
	cp := plan.New(fmt.Sprintf("scale-in %s/%s on %s", uri, segment, device))
	// Like removal, retiring a replica on a dead device is already done
	// as far as the network is concerned; degrade instead of aborting.
	cp.AllowDegraded = true
	cp.Remove(device, instanceName(uri, segment))
	cp.Planning(c.planningCharge(0, 0))
	return cp, nil
}

// ScaleIn removes a replica from a device.
func (c *Controller) ScaleIn(ctx context.Context, uri, segment, device string, done func(error)) {
	done = c.instrument("scale_in", done)
	fail := func(err error) {
		if done != nil {
			done(err)
		}
	}
	cp, err := c.PlanScaleIn(uri, segment, device)
	if err != nil {
		fail(err)
		return
	}
	app := c.state.app(uri)
	c.exec.ExecuteCtx(ctx, cp, func(r *plan.Report) {
		c.lastReport = r
		if r.Err != nil {
			fail(r.Err)
			return
		}
		devs := app.Replicas[segment]
		for i, d := range devs {
			if d == device {
				app.Replicas[segment] = append(devs[:i], devs[i+1:]...)
				break
			}
		}
		if done != nil {
			done(nil)
		}
	})
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
		return nil, fmt.Errorf("controller: no app %q: %w", uri, errdefs.ErrNoSuchApp)
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
// destination install is undone and the source stays authoritative.
func (c *Controller) Migrate(ctx context.Context, req MigrateRequest, done func(migrate.Report)) {
	count := c.instrument("migrate", nil)
	inner := done
	done = func(r migrate.Report) {
		count(r.Err)
		if inner != nil {
			inner(r)
		}
	}
	cp, err := c.PlanMigrate(req)
	if err != nil {
		done(migrate.Report{Err: err})
		return
	}
	uri, segment, dst := req.URI, req.Segment, req.Dst
	app := c.state.app(uri)
	src := app.Replicas[segment][0]
	instName := instanceName(uri, segment)
	app.Status = StatusMigrating
	c.exec.ExecuteCtx(ctx, cp, func(r *plan.Report) {
		c.lastReport = r
		app.Status = StatusRunning
		if r.Err != nil {
			rep := c.mig.LastReport()
			if rep.Program != instName || rep.Err == nil {
				// The failure happened before the mover ran (install
				// phase); synthesize a report.
				rep = migrate.Report{Program: instName, Src: src, Dst: dst, Err: r.Err}
			}
			done(rep)
			return
		}
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
		done(c.mig.LastReport())
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

// MarkRemovable flags an app as reclaimable by the fungible compiler:
// its device placements become garbage-collection candidates.
func (c *Controller) MarkRemovable(uri string) error {
	app := c.state.app(uri)
	if app == nil {
		return fmt.Errorf("controller: no app %q: %w", uri, errdefs.ErrNoSuchApp)
	}
	for seg, devs := range app.Replicas {
		for _, dev := range devs {
			if t := c.targets.get(dev); t != nil {
				if err := t.MarkRemovable(instanceName(uri, seg)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
