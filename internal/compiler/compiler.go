// Package compiler implements the FlexNet compiler (§3.3): it maps
// logical datapaths (ordered FlexBPF program segments) onto physical
// devices.
//
// Three strategies are provided, matching the paper's contrast:
//
//   - StrategyBinPack — the classical network compiler: device resources
//     are "an unyielding constraint"; placement is best-fit and fails
//     when nothing fits.
//   - StrategyFungible — the FlexNet compiler: when placement fails it
//     garbage-collects the targets' removable programs and attempts
//     another round of compilation.
//   - StrategyEnergy — fungible placement that additionally minimizes an
//     energy objective by consolidating programs onto already-active
//     devices (§3.3 "performance and energy optimizations", [57]).
//
// Planning never changes what a device runs, and no primitive reaches a
// device. Garbage collection is a compile round on the scratch view: a
// reclaimed program's demand is refunded to its device's free resources
// (RefundTarget), and the plan lists the (device, program) pairs it
// counted as freed; removing them is the caller's business, through the
// runtime executor like every other change. The paper's other primitive,
// resource reallocation, is absent because no device model has
// fragmentation a reallocation could recover: dRMT pools and tile types
// are interchangeable, and RMT's per-stage budgets are fixed.
//
// DESIGN.md §2 (S7) and §4 record the placement model and its design decisions; §3 (E8, E9, E10, E13) lists the compiler experiments.
package compiler

import (
	"fmt"
	"sort"

	"flexnet/internal/errdefs"
	"flexnet/internal/flexbpf"
)

// Target is the compiler's view of one physical device.
type Target interface {
	// Name identifies the device.
	Name() string
	// Capabilities the device offers.
	Capabilities() flexbpf.Capabilities
	// Free resources currently available.
	Free() flexbpf.Demand
	// CanHost reports whether the device can actually place the program
	// right now. Aggregate Demand arithmetic overpromises on devices
	// with typed sub-pools (tile types, per-stage budgets); this is the
	// authoritative per-program feasibility check.
	CanHost(prog *flexbpf.Program) bool
	// BaseLatencyNs is per-packet transit latency for SLA estimates.
	BaseLatencyNs() uint64
	// CapacityPPS is sustainable packet rate.
	CapacityPPS() uint64
	// Active reports whether the device currently hosts any program
	// (energy objective: adding to an active device is cheap).
	Active() bool
	// IdleWatts and ActiveWatts for the energy objective.
	IdleWatts() float64
	ActiveWatts() float64
	// Removable returns names of programs the owner has marked
	// reclaimable (unused functions, departed tenants), with their
	// resource demands.
	Removable() map[string]flexbpf.Demand
}

// Strategy selects the compilation algorithm.
type Strategy uint8

// Strategies.
const (
	StrategyBinPack Strategy = iota
	StrategyFungible
	StrategyEnergy
)

func (s Strategy) String() string {
	switch s {
	case StrategyBinPack:
		return "binpack"
	case StrategyFungible:
		return "fungible"
	case StrategyEnergy:
		return "energy"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// Assignment maps one segment to one device.
type Assignment struct {
	Segment string
	Device  string
}

// Plan is a compiled placement for a datapath.
type Plan struct {
	Assignments []Assignment
	// Iterations is how many compile rounds were needed (1 = first try).
	Iterations int
	// Reclaims lists the removable programs the placement counts as
	// freed, in device then program order. Nothing has removed them.
	Reclaims []Reclaim
	// EstLatencyNs is the summed device base latency along the placement.
	EstLatencyNs uint64
	// TargetsScanned counts candidate-device examinations performed while
	// placing — the work term the control-plane cost model charges for
	// (runtime.EstimatePlacement). Full compilation scans every target per
	// segment per round; incremental plans scan only around the touched
	// segments.
	TargetsScanned int
}

// Reclaim names one removable program a plan's placement relies on
// having freed.
type Reclaim struct {
	Device  string
	Program string
}

// DeviceFor returns the device assigned to a segment, or "".
func (p *Plan) DeviceFor(segment string) string {
	for _, a := range p.Assignments {
		if a.Segment == segment {
			return a.Device
		}
	}
	return ""
}

// Compiler plans datapath placements over a set of targets.
type Compiler struct {
	strategy Strategy
}

// New creates a compiler with the given strategy.
func New(s Strategy) *Compiler {
	return &Compiler{strategy: s}
}

// scratchTarget tracks planned consumption on top of a Target during one
// compilation, so multi-segment plans see their own earlier reservations.
type scratchTarget struct {
	Target
	planned flexbpf.Demand
	// activated marks targets that this plan turns on.
	activated bool
}

func (st *scratchTarget) freeNow() flexbpf.Demand {
	return st.Target.Free().Sub(st.planned)
}

// Compile places every segment of dp onto some target. The path argument
// restricts and orders candidates: segment i may be placed on any target
// whose index in path is >= the index used by segment i-1 (traffic flows
// through devices in path order; two segments may share a device). A nil
// path allows any order (vertical-only placement).
func (c *Compiler) Compile(dp *flexbpf.Datapath, targets []Target, path []string) (*Plan, error) {
	plan := &Plan{}
	scratch := make([]*scratchTarget, len(targets))
	index := map[string]int{}
	for i, t := range targets {
		scratch[i] = &scratchTarget{Target: t}
		index[t.Name()] = i
	}
	// pathPos[i] is the position of target i within path (-1 = not on
	// path, unusable when a path is given).
	pathPos := make([]int, len(targets))
	for i := range pathPos {
		pathPos[i] = -1
	}
	if path == nil {
		for i := range pathPos {
			pathPos[i] = 0
		}
	} else {
		for pos, name := range path {
			if i, ok := index[name]; ok {
				pathPos[i] = pos
			}
		}
	}

	// Round 1 places against the targets as they stand. If it fails, the
	// fungible strategies garbage-collect removable programs on the
	// scratch view and, when that freed anything, place once more.
	plan.Iterations = 1
	assignments, scanned, err := c.tryPlace(dp, scratch, pathPos)
	plan.TargetsScanned += scanned
	if err != nil && c.strategy != StrategyBinPack && collectGarbage(plan, scratch) {
		plan.Iterations = 2
		assignments, scanned, err = c.tryPlace(dp, scratch, pathPos)
		plan.TargetsScanned += scanned
	}
	if err != nil {
		return nil, fmt.Errorf("compiler: %s: placement failed after %d iteration(s): %w", dp.Name, plan.Iterations, err)
	}
	plan.Assignments = assignments
	c.finish(plan, scratch, index)
	return plan, nil
}

// collectGarbage refunds every target's removable programs on the
// scratch view, records them in plan.Reclaims in device then program
// order, and reports whether it freed anything.
func collectGarbage(plan *Plan, scratch []*scratchTarget) bool {
	freed := false
	for _, st := range scratch {
		removable := st.Removable()
		if len(removable) == 0 {
			continue
		}
		var refund flexbpf.Demand
		for _, name := range sortedKeys(removable) {
			refund = refund.Add(removable[name])
			plan.Reclaims = append(plan.Reclaims, Reclaim{Device: st.Name(), Program: name})
		}
		st.Target = &RefundTarget{Target: st.Target, Refund: refund}
		freed = true
	}
	return freed
}

func sortedKeys(m map[string]flexbpf.Demand) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// tryPlace attempts one placement round over scratch targets. The second
// result counts candidate-target examinations (the placement work term).
func (c *Compiler) tryPlace(dp *flexbpf.Datapath, scratch []*scratchTarget, pathPos []int) ([]Assignment, int, error) {
	var out []Assignment
	scanned := 0
	reserved := map[int]flexbpf.Demand{}
	activated := map[int]bool{}
	minPos := 0
	for _, seg := range dp.Segments {
		need := flexbpf.ProgramDemand(seg)
		best := -1
		bestScore := 0.0
		for i, st := range scratch {
			scanned++
			if pathPos[i] < 0 || pathPos[i] < minPos {
				continue
			}
			if !st.Capabilities().Satisfies(seg.Requires) {
				continue
			}
			free := st.freeNow().Sub(reserved[i])
			if !need.Fits(free) {
				continue
			}
			// Typed-pool feasibility: the device itself must agree. For
			// multi-segment plans the aggregate reservation above remains
			// the co-location constraint.
			if !st.CanHost(seg) {
				continue
			}
			if dp.SLA.MinThroughputPPS > 0 && st.CapacityPPS() < dp.SLA.MinThroughputPPS {
				continue
			}
			score := c.score(st, free, need, activated[i])
			if best == -1 || score > bestScore {
				best, bestScore = i, score
			}
		}
		if best == -1 {
			return nil, scanned, fmt.Errorf("no device fits segment %s (demand %v): %w", seg.Name, need, errdefs.ErrInsufficientResources)
		}
		reserved[best] = reserved[best].Add(need)
		if !scratch[best].Active() {
			activated[best] = true
		}
		out = append(out, Assignment{Segment: seg.Name, Device: scratch[best].Name()})
		minPos = pathPos[best]
	}
	// Commit reservations into scratch for subsequent iterations.
	for i, d := range reserved {
		scratch[i].planned = scratch[i].planned.Add(d)
		if activated[i] {
			scratch[i].activated = true
		}
	}
	return out, scanned, nil
}

// score ranks candidate devices; higher is better.
func (c *Compiler) score(st *scratchTarget, free, need flexbpf.Demand, activatedByPlan bool) float64 {
	switch c.strategy {
	case StrategyEnergy:
		// Prefer already-active devices; penalize waking idle ones by
		// their static power.
		s := 1000.0
		if !st.Active() && !activatedByPlan && !st.activated {
			s -= st.IdleWatts() + st.ActiveWatts()
		}
		// Tie-break toward tighter fit (consolidation).
		s -= float64(free.SRAMBits-need.SRAMBits) * 1e-9
		return s
	default:
		// First-fit-decreasing flavor: prefer the device with the least
		// leftover space that still fits (best fit reduces fragmentation)
		// and lower latency.
		return -float64(free.SRAMBits+free.TCAMBits) - float64(st.BaseLatencyNs())*1e3
	}
}

// finish sums the base latency of every device the plan uses into
// EstLatencyNs.
func (c *Compiler) finish(plan *Plan, scratch []*scratchTarget, index map[string]int) {
	seen := map[string]bool{}
	for _, a := range plan.Assignments {
		st := scratch[index[a.Device]]
		if !seen[a.Device] {
			seen[a.Device] = true
			plan.EstLatencyNs += st.BaseLatencyNs()
		}
	}
}

// CheckSLA verifies the plan against the datapath's SLA.
func CheckSLA(plan *Plan, dp *flexbpf.Datapath) error {
	if dp.SLA.MaxLatencyNs > 0 && plan.EstLatencyNs > dp.SLA.MaxLatencyNs {
		return fmt.Errorf("compiler: plan latency %dns exceeds SLA %dns", plan.EstLatencyNs, dp.SLA.MaxLatencyNs)
	}
	return nil
}
