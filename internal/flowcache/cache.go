// Package flowcache implements a megaflow-style exact-match flow cache
// for FlexNet devices: the first packet of a flow runs the full linked
// pipeline and records the resolved outcome keyed by the packet state
// the pipeline actually depended on; subsequent packets of the flow that
// match the recorded dependencies replay the outcome with a single
// lookup instead of re-executing the pipeline.
//
// Soundness rests on three validations per hit (DESIGN.md §12):
//
//   - Dependency fields: the recorded entry stores the *before* values
//     (and presence bits) of every field the pipeline could read or
//     write, the fields of its conditions and install filters included.
//     A follower packet must match them all. Write-set fields are included because replay
//     applies their *after* values: a conditional write that did not
//     fire for the recorded packet must not be replayed onto a packet it
//     would have fired for. Parser select fields are not: every device
//     runs the one fixed packet.StandardParseGraph and never walks it
//     per packet, so no outcome depends on them.
//   - Table generations: the entry pins the generation counter of every
//     table the pipeline applies, captured before the recorded run. Any
//     table mutation — including bulk ReplaceAll route refreshes that do
//     not bump the device epoch — bumps the generation and silently
//     retires dependent entries.
//   - Device epoch: a Cache belongs to one device configuration. The
//     device publishes every committed configuration with a new, empty
//     cache, so invalidation is the epoch-atomic publication itself: a
//     packet looks up (and a miss inserts into) the cache of the
//     configuration it was snapshotted under, and no packet arriving
//     after a swap can reach an outcome recorded before it. The cache
//     holds no epoch of its own and checks none; entries record theirs,
//     and the device reports it on every hit, which is where a cache
//     handed to the wrong configuration would show.
//
// Only pipelines whose static CacheProfile is cacheable (no per-flow
// state, clocks or header insertion) are eligible; the
// device layer enforces that before consulting the cache.
package flowcache

import (
	"flexnet/internal/flexbpf"
	"flexnet/internal/packet"
)

// maxVariants bounds the number of entries per flow key. Distinct
// variants arise when packets of one 5-tuple differ in a validated
// field (for example TTL or a VLAN tag), so a handful suffices.
const maxVariants = 4

// maxEntries bounds the total entry count; exceeding it wholesale-resets
// the cache, which is always safe (the cache is only an accelerator).
const maxEntries = 1 << 16

// FieldVal records one packet field's value and presence bit.
type FieldVal struct {
	FID     packet.FieldID
	Val     uint64
	Present bool
}

// TableGen pins one table instance at a recorded generation.
type TableGen struct {
	TI  *flexbpf.TableInstance
	Gen uint64
}

// Entry is one recorded pipeline outcome.
type Entry struct {
	// Epoch is the device configuration epoch the entry was recorded
	// under, reported with every replay of it.
	Epoch uint64
	// Gens pins every applied table at its pre-run generation.
	Gens []TableGen
	// Headers is the recorded packet's header chain. Matching it
	// wholesale, one == on the chain value, subsumes parser-walk
	// validation together with the select fields carried in Pre.
	Headers packet.Chain
	// PayloadLen is validated only when CheckLen is set (the pipeline
	// used OpPktLen).
	PayloadLen int
	CheckLen   bool
	// Pre holds before-values of the full dependency field set.
	Pre []FieldVal
	// Post holds after-values of the pipeline's write set; Replay
	// applies the present ones.
	Post []FieldVal

	// Verdict, Egress, Instrs and Lookups replay the recorded processing
	// outcome and its telemetry accounting.
	Verdict packet.Verdict
	Egress  int
	Instrs  int
	Lookups int
}

// match reports whether pkt still satisfies every validation the entry
// depends on. The epoch is not among them: which configuration an entry
// serves is decided by which cache it is in.
func (e *Entry) match(pkt *packet.Packet) bool {
	if e.CheckLen && pkt.PayloadLen != e.PayloadLen {
		return false
	}
	if pkt.Headers != e.Headers {
		return false
	}
	for i := range e.Pre {
		fv := &e.Pre[i]
		v, ok := pkt.FieldOKByID(fv.FID)
		if ok != fv.Present || (ok && v != fv.Val) {
			return false
		}
	}
	for i := range e.Gens {
		if e.Gens[i].TI.Generation() != e.Gens[i].Gen {
			return false
		}
	}
	return true
}

// stale reports whether the entry can never match again: a pinned table
// generation has moved on. Insert prunes stale variants so churn cannot
// pin a flow key full of dead entries.
func (e *Entry) stale() bool {
	for i := range e.Gens {
		if e.Gens[i].TI.Generation() != e.Gens[i].Gen {
			return true
		}
	}
	return false
}

// Replay applies the entry's recorded outcome to pkt: the write-set
// after-values, and the egress port when the verdict forwards. The
// caller replays the telemetry accounting (Instrs/Lookups).
func (e *Entry) Replay(pkt *packet.Packet) {
	for i := range e.Post {
		if e.Post[i].Present {
			pkt.SetFieldByID(e.Post[i].FID, e.Post[i].Val)
		}
	}
	if e.Verdict == packet.VerdictForward {
		pkt.EgressPort = e.Egress
	}
}

// Stats is a snapshot of a device's flow-cache activity counters
// (dataplane.Device.FlowCacheStats); the cache itself keeps none.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Inserts       uint64
	Invalidations uint64
}

// Cache is the flow cache of one device configuration. It has no lock:
// it is reached only through the configuration snapshot of the packet
// being processed, and one goroutine at a time drives a device's packet
// path (dataplane.Device.ProcessCtx). Reconfiguration never touches it;
// a commit publishes a new configuration with a new Cache.
type Cache struct {
	entries map[packet.FlowKey][]*Entry
	n       int
}

// New creates the empty cache of one device configuration. The epoch
// argument names the configuration; the cache does not keep it, since
// the configuration an entry serves is the one whose cache holds it.
func New(_ uint64) *Cache {
	return &Cache{entries: make(map[packet.FlowKey][]*Entry)}
}

// Lookup returns the entry matching pkt under key, if any. The epoch
// argument, the caller's configuration epoch, is not compared, for the
// same reason New does not keep one: the caller reaches this cache
// through that configuration.
func (c *Cache) Lookup(key packet.FlowKey, _ uint64, pkt *packet.Packet) (*Entry, bool) {
	for _, e := range c.entries[key] {
		if e.match(pkt) {
			return e, true
		}
	}
	return nil, false
}

// Insert records an entry under key and reports whether it landed. Stale
// variants of the key are pruned first; the insert is skipped if live
// variants already fill the key's budget.
func (c *Cache) Insert(key packet.FlowKey, e *Entry) bool {
	vars := c.entries[key]
	live := vars[:0]
	for _, v := range vars {
		if v.stale() {
			c.n--
		} else {
			live = append(live, v)
		}
	}
	if len(live) >= maxVariants {
		c.entries[key] = live
		return false
	}
	if c.n >= maxEntries {
		c.entries = make(map[packet.FlowKey][]*Entry)
		c.n = 0
		live = nil
	}
	c.entries[key] = append(live, e)
	c.n++
	return true
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.n }
