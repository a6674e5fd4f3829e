// Package runtime is FlexNet's one reconfiguration pipeline: the
// transactional Executor that runs every ChangePlan against live devices
// (validate → prepare → commit → post, with rollback), and the cost model
// that prices each reconfiguration primitive in simulated time.
//
// The paper's device-level claims it reproduces (§2, for the Spectrum
// runtime-programmable switch):
//
//   - "match/action tables can be added and removed on-the-fly without
//     packet loss" — each device prepares its change over simulated time
//     while traffic runs under the old configuration, then commits
//     atomically between packets.
//   - "Program changes complete within a second" — the per-primitive cost
//     model is calibrated so realistic changes land in the 10ms–1s range.
//   - "packets are either processed by the new program or old one in a
//     consistent manner" — commits are epoch-atomic per device, and every
//     device of a plan commits at one simulated instant.
//
// DESIGN.md §2 (S8) places the package in the stack; §5 specifies the pipeline.
package runtime

import (
	"time"

	"flexnet/internal/netsim"
)

// The cost model: the time each reconfiguration primitive takes on a
// device's management path, in simulated time. The prices reflect the
// paper's reported magnitudes: runtime changes complete well under a
// second; compile-time reflash takes tens of seconds including draining
// (the "Evolve or Die" operational reality).
const (
	// costBase is fixed per-change overhead (control channel, validation).
	costBase = 20 * time.Millisecond
	// costTableAdd / costTableRemove per match/action table.
	costTableAdd    = 12 * time.Millisecond
	costTableRemove = 6 * time.Millisecond
	// costParserOp per parser state or transition change.
	costParserOp = 15 * time.Millisecond
	// costEntryOp per table entry insert/delete.
	costEntryOp = 20 * time.Microsecond
	// costStateByte per byte of state migrated through the control plane.
	costStateByte = 50 * time.Nanosecond
	// Reflash is the compile-time baseline's full-pipeline reprogram time
	// (device must be drained throughout).
	Reflash = 8 * time.Second
	// DrainLead is how long the baseline drains traffic before reflash.
	DrainLead = 2 * time.Second
	// costPlaceTarget is the planning cost of examining one candidate
	// device during placement (resource query + feasibility check against
	// the controller's inventory). Full compilation scans every fabric
	// device per segment; incremental recompilation scans only around
	// touched segments, which is what makes control-plane ops O(op) not
	// O(fabric).
	costPlaceTarget = 150 * time.Microsecond
	// costPlaceSegment is the planning cost of (re)compiling one
	// segment's placement decision (demand computation, SLA checks, plan
	// assembly).
	costPlaceSegment = 500 * time.Microsecond
)

// EstimateOps prices a change from primitive-operation counts. This is
// the one cost model: the executor prices every device's prepare here.
func EstimateOps(tablesAdded, tablesRemoved, parserOps, entryOps int) netsim.Time {
	return costBase +
		netsim.Time(tablesAdded)*costTableAdd +
		netsim.Time(tablesRemoved)*costTableRemove +
		netsim.Time(parserOps)*costParserOp +
		netsim.Time(entryOps)*costEntryOp
}

// EstimatePlacement prices the controller's planning work for one
// operation: targets is the number of candidate devices examined and
// segments the number of segment placement decisions recomputed. It is
// charged as ChangePlan.PlanningLat before Validate, so plan latency
// reflects how much of the fabric the placement had to look at.
func EstimatePlacement(targets, segments int) netsim.Time {
	return netsim.Time(targets)*costPlaceTarget +
		netsim.Time(segments)*costPlaceSegment
}

// MigrateLatency estimates control-plane state copy time for the given
// byte volume (used by the migration baseline).
func MigrateLatency(bytes int) netsim.Time {
	return costBase + netsim.Time(bytes)*costStateByte
}
