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
//     write, the program-filter condition fields, and the parser's
//     select fields. A follower packet must match them all. Write-set
//     fields are included because replay applies their *after* values:
//     a conditional write that did not fire for the recorded packet must
//     not be replayed onto a packet it would have fired for.
//   - Table generations: the entry pins the generation counter of every
//     table the pipeline applies, captured before the recorded run. Any
//     table mutation — including bulk ReplaceAll route refreshes that do
//     not bump the device epoch — bumps the generation and silently
//     retires dependent entries.
//   - Device epoch: entries record the configuration epoch they were
//     built under, and the device wholesale-invalidates the cache at
//     every epoch-atomic commit, so a hitless swap stays hitless and no
//     packet is ever served a pre-swap outcome after the swap point.
//
// Only pipelines whose static CacheProfile is cacheable (no per-flow
// state, clocks, randomness, or header restructuring) are eligible; the
// device layer enforces that before consulting the cache.
package flowcache

import (
	"sync"

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
	// under; a commit retires it.
	Epoch uint64
	// Gens pins every applied table at its pre-run generation.
	Gens []TableGen
	// Headers is the recorded packet's header chain. Matching it
	// wholesale subsumes parser-walk validation together with the select
	// fields carried in Pre.
	Headers []string
	// PayloadLen is validated only when CheckLen is set (the pipeline
	// used OpPktLen).
	PayloadLen int
	CheckLen   bool
	// Pre holds before-values of the full dependency field set.
	Pre []FieldVal
	// Post holds after-values of the pipeline's write set; Replay
	// applies the present ones.
	Post []FieldVal

	// Verdict, Egress, Instrs, Lookups, and Programs replay the recorded
	// processing outcome and its telemetry accounting.
	Verdict  packet.Verdict
	Egress   int
	Instrs   int
	Lookups  int
	Programs []string
}

// match reports whether pkt, at the given device epoch, still satisfies
// every validation the entry depends on.
func (e *Entry) match(epoch uint64, pkt *packet.Packet) bool {
	if e.Epoch != epoch {
		return false
	}
	if e.CheckLen && pkt.PayloadLen != e.PayloadLen {
		return false
	}
	if len(pkt.Headers) != len(e.Headers) {
		return false
	}
	for i, h := range e.Headers {
		if pkt.Headers[i] != h {
			return false
		}
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

// stale reports whether the entry can never match again: its epoch or a
// pinned table generation has moved on. Insert prunes stale variants so
// churn cannot pin a flow key full of dead entries.
func (e *Entry) stale(epoch uint64) bool {
	if e.Epoch != epoch {
		return true
	}
	for i := range e.Gens {
		if e.Gens[i].TI.Generation() != e.Gens[i].Gen {
			return true
		}
	}
	return false
}

// Replay applies the entry's recorded outcome to pkt: the write-set
// after-values, and the egress port when the verdict forwards. The
// caller replays the telemetry accounting (Instrs/Lookups/Programs).
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

// Stats is a snapshot of cache activity counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Inserts       uint64
	Invalidations uint64
}

// Cache is one device's flow cache. Lookups and inserts happen on the
// device's packet path; invalidation happens at commit time. The mutex
// makes the overlap safe when the embedding program drives the device
// from several goroutines (tests, the -race hammer); within the
// simulator every access is an event, so there is none.
type Cache struct {
	mu      sync.Mutex
	epoch   uint64
	entries map[packet.FlowKey][]*Entry
	n       int
	stats   Stats
}

// New creates an empty cache accepting entries of the given epoch.
func New(epoch uint64) *Cache {
	return &Cache{epoch: epoch, entries: make(map[packet.FlowKey][]*Entry)}
}

// Lookup returns the entry matching pkt under the given key and device
// epoch, if any, updating hit/miss statistics.
func (c *Cache) Lookup(key packet.FlowKey, epoch uint64, pkt *packet.Packet) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[key] {
		if e.match(epoch, pkt) {
			c.stats.Hits++
			return e, true
		}
	}
	c.stats.Misses++
	return nil, false
}

// Insert records an entry under key. Entries from a superseded epoch
// are discarded (a commit may land between the recorded run and the
// insert when the device is driven concurrently). Stale variants of the
// key are pruned first; the insert is skipped if live variants already
// fill the key's budget.
func (c *Cache) Insert(key packet.FlowKey, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.Epoch != c.epoch {
		return
	}
	vars := c.entries[key]
	live := vars[:0]
	for _, v := range vars {
		if v.stale(c.epoch) {
			c.n--
		} else {
			live = append(live, v)
		}
	}
	if len(live) >= maxVariants {
		c.entries[key] = live
		return
	}
	if c.n >= maxEntries {
		c.resetLocked()
		live = nil
	}
	c.entries[key] = append(live, e)
	c.n++
	c.stats.Inserts++
}

// Invalidate wholesale-clears the cache and advances it to the new
// configuration epoch. Devices call it from every epoch-atomic commit.
func (c *Cache) Invalidate(epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
	c.epoch = epoch
	c.stats.Invalidations++
}

func (c *Cache) resetLocked() {
	c.entries = make(map[packet.FlowKey][]*Entry)
	c.n = 0
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
