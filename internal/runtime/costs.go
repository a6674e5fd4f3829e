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

// Costs models the time each reconfiguration primitive takes on the
// device's management path. Values are simulated durations.
type Costs struct {
	// Base is fixed per-change overhead (control channel, validation).
	Base netsim.Time
	// TableAdd / TableRemove per match/action table.
	TableAdd    netsim.Time
	TableRemove netsim.Time
	// ParserOp per parser state or transition change.
	ParserOp netsim.Time
	// EntryOp per table entry insert/delete.
	EntryOp netsim.Time
	// StateBytes per byte of state migrated through the control plane.
	StateByte netsim.Time
	// Reflash is the compile-time baseline's full-pipeline reprogram time
	// (device must be drained throughout).
	Reflash netsim.Time
	// DrainLead is how long the baseline drains traffic before reflash.
	DrainLead netsim.Time
	// PlaceTarget is the planning cost of examining one candidate device
	// during placement (resource query + feasibility check against the
	// controller's inventory). Full compilation scans every fabric device
	// per segment; incremental recompilation scans only around touched
	// segments, which is what makes control-plane ops O(op) not O(fabric).
	PlaceTarget netsim.Time
	// PlaceSegment is the planning cost of (re)compiling one segment's
	// placement decision (demand computation, SLA checks, plan assembly).
	PlaceSegment netsim.Time
}

// DefaultCosts reflect the paper's reported magnitudes: runtime changes
// complete well under a second; compile-time reflash takes tens of
// seconds including draining (the "Evolve or Die" operational reality).
func DefaultCosts() Costs {
	return Costs{
		Base:         20 * time.Millisecond,
		TableAdd:     12 * time.Millisecond,
		TableRemove:  6 * time.Millisecond,
		ParserOp:     15 * time.Millisecond,
		EntryOp:      20 * time.Microsecond,
		StateByte:    50 * time.Nanosecond,
		Reflash:      8 * time.Second,
		DrainLead:    2 * time.Second,
		PlaceTarget:  150 * time.Microsecond,
		PlaceSegment: 500 * time.Microsecond,
	}
}

// Engine binds the cost model to a simulator; the Executor schedules
// every plan's phases on that simulator at the prices the Engine quotes.
type Engine struct {
	sim   *netsim.Sim
	costs Costs
}

// NewEngine creates an engine with the given cost model.
func NewEngine(sim *netsim.Sim, costs Costs) *Engine {
	return &Engine{sim: sim, costs: costs}
}

// EstimateOps prices a change from primitive-operation counts. This is
// the one cost model: the executor prices every device's prepare here.
func (e *Engine) EstimateOps(tablesAdded, tablesRemoved, parserOps, entryOps int) netsim.Time {
	return e.costs.Base +
		netsim.Time(tablesAdded)*e.costs.TableAdd +
		netsim.Time(tablesRemoved)*e.costs.TableRemove +
		netsim.Time(parserOps)*e.costs.ParserOp +
		netsim.Time(entryOps)*e.costs.EntryOp
}

// EstimatePlacement prices the controller's planning work for one
// operation: targets is the number of candidate devices examined and
// segments the number of segment placement decisions recomputed. It is
// charged as ChangePlan.PlanningLat before Validate, so plan latency
// reflects how much of the fabric the placement had to look at.
func (e *Engine) EstimatePlacement(targets, segments int) netsim.Time {
	return netsim.Time(targets)*e.costs.PlaceTarget +
		netsim.Time(segments)*e.costs.PlaceSegment
}

// MigrateLatency estimates control-plane state copy time for the given
// byte volume (used by the migration baseline).
func (e *Engine) MigrateLatency(bytes int) netsim.Time {
	return e.costs.Base + netsim.Time(bytes)*e.costs.StateByte
}
