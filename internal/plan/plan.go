// Package plan defines FlexNet's transactional change pipeline: every
// control-plane operation — deploy, remove, update, scale, migrate — is
// expressed as a ChangePlan, an ordered list of typed per-device steps
// with a three-phase lifecycle:
//
//	Validate  dry-run resource/verifier checks plus a cost estimate;
//	          touches nothing, so a validated plan doubles as --dry-run.
//	Prepare   stage new instances and placements on every device without
//	          activating them; traffic still sees the old configuration.
//	Commit    epoch-atomic activation, all devices at one simulated
//	          instant, so no packet observes a mixed configuration.
//
// If any step fails in any phase, the executor (internal/runtime) rolls
// back: staged-but-inactive changes are aborted, already-activated
// devices are reverted to their pre-plan configuration at the same
// simulated instant the failure is detected. The invariant is that a
// failed plan leaves the network byte-identical to its pre-plan state.
//
// This package is deliberately a leaf: steps name devices by string and
// the executor supplies the device lookup, state mover, and route
// updater, so controller, runtime, and migrate all speak one vocabulary
// without import cycles.
//
// DESIGN.md §5 documents the pipeline end to end; §10.4 defines when a plan may commit degraded.
package plan

import (
	"fmt"

	"flexnet/internal/flexbpf"
	"flexnet/internal/netsim"
)

// Op is the type of one plan step.
type Op uint8

// Step operations.
const (
	// OpInstallInstance installs a new program instance on a device.
	OpInstallInstance Op = iota
	// OpRemoveInstance removes an installed instance.
	OpRemoveInstance
	// OpSwapProgram replaces an instance's program in one epoch bump,
	// carrying over the state and table entries that survive the swap.
	OpSwapProgram
	// OpMigrateState moves an instance's state from Src to Device after
	// commit (the instance must have been installed at Device by an
	// earlier step or a previous plan).
	OpMigrateState
	// OpRouteUpdate recomputes fabric routing after commit.
	OpRouteUpdate
)

func (o Op) String() string {
	switch o {
	case OpInstallInstance:
		return "install"
	case OpRemoveInstance:
		return "remove"
	case OpSwapProgram:
		return "swap"
	case OpMigrateState:
		return "migrate-state"
	case OpRouteUpdate:
		return "route-update"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Step is one typed operation within a ChangePlan.
type Step struct {
	Op Op
	// Device is the target device (empty for OpRouteUpdate).
	Device string
	// Instance is the device-level instance name.
	Instance string
	// Program is the program to install or swap in (nil otherwise).
	Program *flexbpf.Program
	// Filter optionally isolates the instance (tenant VLAN guard).
	Filter *flexbpf.Cond
	// Priority orders the device's program chain (0 = extension default).
	Priority int
	// Src is the source device for OpMigrateState.
	Src string
	// UseDataPlane selects packet-carried state migration over the
	// control-plane baseline for OpMigrateState.
	UseDataPlane bool
}

func (s Step) String() string {
	switch s.Op {
	case OpMigrateState:
		mode := "control-plane"
		if s.UseDataPlane {
			mode = "data-plane"
		}
		return fmt.Sprintf("migrate-state %s: %s -> %s (%s)", s.Instance, s.Src, s.Device, mode)
	case OpRouteUpdate:
		return "route-update"
	default:
		return fmt.Sprintf("%s %s on %s", s.Op, s.Instance, s.Device)
	}
}

// ChangePlan is an ordered, inspectable network change. Build one with
// the fluent helpers, then hand it to the runtime executor.
type ChangePlan struct {
	// Label names the plan in reports ("deploy flexnet://t/app").
	Label string
	// Steps in declaration order. Structural steps (install, remove,
	// swap) commit together at one simulated instant; post-commit steps
	// (migrate-state, route-update) run sequentially afterwards.
	Steps []Step
	// AllowDegraded lets the plan proceed when a step's device is down:
	// the step is skipped (StepSkipped, with the reason recorded in
	// Report.Degraded) and the rest of the plan continues, finishing
	// with OutcomeDegraded instead of failing outright. Only ops whose
	// intent survives partial application should set this — removals and
	// scale-ins, where the dead device's state is already gone, and not
	// deploys, where a silently missing replica would corrupt intent.
	// See DESIGN.md §10.
	AllowDegraded bool
	// PlanningLat is the simulated time the controller spent computing
	// this plan (placement scans, segment recompiles — see
	// runtime.Costs.EstimatePlacement). The executor charges it before
	// Validate so control-plane latency reflects planning work, not just
	// device churn.
	PlanningLat netsim.Time
	// Origin attributes the plan in reports and the audit trail: ""
	// for imperative API calls, "spec:<version>" for declarative
	// applies, "heal" for self-healer reconciliation.
	Origin string
}

// New starts an empty plan.
func New(label string) *ChangePlan { return &ChangePlan{Label: label} }

// Planning records the simulated planning cost charged before Validate.
func (p *ChangePlan) Planning(t netsim.Time) *ChangePlan {
	p.PlanningLat = t
	return p
}

// Install appends an instance installation.
func (p *ChangePlan) Install(device, instance string, prog *flexbpf.Program, filter *flexbpf.Cond, priority int) *ChangePlan {
	p.Steps = append(p.Steps, Step{Op: OpInstallInstance, Device: device, Instance: instance, Program: prog, Filter: filter, Priority: priority})
	return p
}

// Remove appends an instance removal.
func (p *ChangePlan) Remove(device, instance string) *ChangePlan {
	p.Steps = append(p.Steps, Step{Op: OpRemoveInstance, Device: device, Instance: instance})
	return p
}

// Swap appends a state-preserving program replacement.
func (p *ChangePlan) Swap(device, instance string, prog *flexbpf.Program, filter *flexbpf.Cond) *ChangePlan {
	p.Steps = append(p.Steps, Step{Op: OpSwapProgram, Device: device, Instance: instance, Program: prog, Filter: filter})
	return p
}

// MigrateState appends a post-commit state move from src to dst.
func (p *ChangePlan) MigrateState(instance, src, dst string, useDataPlane bool) *ChangePlan {
	p.Steps = append(p.Steps, Step{Op: OpMigrateState, Device: dst, Src: src, Instance: instance, UseDataPlane: useDataPlane})
	return p
}

// RouteUpdate appends a post-commit routing refresh.
func (p *ChangePlan) RouteUpdate() *ChangePlan {
	p.Steps = append(p.Steps, Step{Op: OpRouteUpdate})
	return p
}

// Devices returns the distinct devices the plan's structural steps
// touch, in first-appearance order.
func (p *ChangePlan) Devices() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range p.Steps {
		if s.Device == "" || seen[s.Device] {
			continue
		}
		seen[s.Device] = true
		out = append(out, s.Device)
	}
	return out
}

// Phase identifies where in the lifecycle a plan (or its failure) is.
type Phase uint8

// Lifecycle phases.
const (
	PhaseValidate Phase = iota
	PhasePrepare
	PhaseCommit
	PhasePost
	PhaseDone
)

func (p Phase) String() string {
	switch p {
	case PhaseValidate:
		return "validate"
	case PhasePrepare:
		return "prepare"
	case PhaseCommit:
		return "commit"
	case PhasePost:
		return "post"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Outcome is a plan's final disposition.
type Outcome uint8

// Outcomes.
const (
	// OutcomePlanned: validate-only run (dry run); nothing executed.
	OutcomePlanned Outcome = iota
	// OutcomeSucceeded: all steps committed.
	OutcomeSucceeded
	// OutcomeFailed: rejected before anything became packet-visible
	// (validate or prepare); the network was never touched.
	OutcomeFailed
	// OutcomeRolledBack: a failure after activation was undone; the
	// network was restored to its pre-plan state.
	OutcomeRolledBack
	// OutcomeDegraded: the plan committed, but one or more steps were
	// skipped because their device was down and the plan opted in with
	// AllowDegraded. Report.Degraded lists what was skipped and why.
	OutcomeDegraded
)

func (o Outcome) String() string {
	switch o {
	case OutcomePlanned:
		return "planned"
	case OutcomeSucceeded:
		return "succeeded"
	case OutcomeFailed:
		return "failed"
	case OutcomeRolledBack:
		return "rolled-back"
	case OutcomeDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// StepStatus tracks one step through the lifecycle.
type StepStatus uint8

// Step statuses.
const (
	StepPending StepStatus = iota
	StepValidated
	StepPrepared
	StepCommitted
	StepFailed
	StepRolledBack
	StepSkipped
)

func (s StepStatus) String() string {
	switch s {
	case StepPending:
		return "pending"
	case StepValidated:
		return "validated"
	case StepPrepared:
		return "prepared"
	case StepCommitted:
		return "committed"
	case StepFailed:
		return "failed"
	case StepRolledBack:
		return "rolled-back"
	case StepSkipped:
		return "skipped"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// StepReport is one step's outcome.
type StepReport struct {
	Step   Step
	Status StepStatus
	Err    error
	// Move is the state mover's report for an OpMigrateState step that
	// ran (nil for every other step and for a move that never started).
	Move *MoveReport
}

// MoveReport describes one state move (an OpMigrateState step).
type MoveReport struct {
	Program string
	Src     string
	Dst     string
	// Started/Flipped/Done are simulation times: Flipped is when traffic
	// moved to the destination; Done when residual state finished.
	Started netsim.Time
	Flipped netsim.Time
	Done    netsim.Time
	// ChunksSent is the number of state-carrying packets (data plane) or
	// logical entries copied (control plane).
	ChunksSent int
	// LostUpdates counts state updates that did not survive migration.
	LostUpdates uint64
	// UpdatesDuringMigration counts source-side updates between start
	// and flip (the window the control-plane baseline loses).
	UpdatesDuringMigration uint64
	Err                    error
}

// Report describes one plan's execution (or dry run).
type Report struct {
	// ID is the executor-assigned plan ID ("plan-3"), the key under
	// which the telemetry tracer files this execution's trace. Empty for
	// dry runs, which execute nothing and leave no trace.
	ID    string
	Label string
	// Origin is copied from the plan ("", "spec:<version>", "heal").
	Origin string
	Steps  []StepReport
	// Phase is the phase reached (PhaseDone on success; the failing
	// phase otherwise).
	Phase   Phase
	Outcome Outcome
	// Estimated is the modelled cost from Validate; Actual is the
	// simulated time the plan actually took (zero for dry runs).
	Estimated netsim.Time
	Actual    netsim.Time
	// RolledBack reports whether any staged or committed work had to be
	// undone.
	RolledBack bool
	// Degraded lists, for OutcomeDegraded plans, the steps that were
	// skipped because their device was down ("skipped <step>: <cause>").
	Degraded []string
	// Err is the first error (nil on success).
	Err error
}

// StateMover executes OpMigrateState steps. internal/migrate implements
// it; the executor calls it after commit.
type StateMover interface {
	// ValidateMove checks a move without touching anything.
	ValidateMove(instance, src, dst string, useDataPlane bool) error
	// EstimateMove returns the modelled move duration.
	EstimateMove(instance, src string, useDataPlane bool) netsim.Time
	// MoveState transfers instance state from src to dst, flips
	// traffic and removes the source instance at the flip. done receives
	// the move's report; an Err set before the flip (Flipped zero) leaves
	// the source authoritative and untouched and fails the step, one set
	// after it (a short residual stream) is reported without undoing the
	// committed move.
	MoveState(instance, src, dst string, useDataPlane bool, done func(MoveReport))
}

// RouteUpdater executes OpRouteUpdate steps (the fabric implements it).
// The refresh is scoped to the devices a plan touched (nil means every
// device); topology-driven route deltas still reach every affected
// device (DESIGN.md §11).
type RouteUpdater interface {
	RefreshRoutesTouched(devices []string) error
}
