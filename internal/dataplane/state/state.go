// Package state implements the stateful data-plane objects FlexBPF
// programs declare: key/value maps, counters and meters.
//
// Every object implements Object, whose Export/Import methods move state
// through a *logical representation* — the paper's key idea for state
// virtualization (§3.1): devices encode state differently (P4 registers,
// PoF flow instruction sets, Spectrum stateful tables), so migration
// between devices and encodings must go through a canonical form.
// "Program migration carries its state in this logical representation."
//
// DESIGN.md §2 (S4) inventories the object set; §10.4 defines what happens to this state when its device crashes.
package state

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// KV is one logical key/value pair.
type KV struct {
	Key uint64
	Val uint64
}

// Logical is the canonical, device-independent representation of one
// stateful object. It is what travels when a program migrates.
type Logical struct {
	// Name is the object's name within its program.
	Name string
	// Kind discriminates the object type ("map", "counter", "meter").
	Kind string
	// Params carries type-specific shape (sizes, map kind, meter rates)
	// so the receiver can validate compatibility.
	Params map[string]uint64
	// Entries is the state content, sorted by key for determinism.
	Entries []KV
}

// Object is a stateful data-plane object with logical import/export.
type Object interface {
	// Name returns the object's name.
	Name() string
	// Export captures the current state in logical form.
	Export() Logical
	// Import replaces the current state from logical form.
	Import(Logical) error
	// Reset clears all state.
	Reset()
}

func sortedEntries(m map[uint64]uint64) []KV {
	out := make([]KV, 0, len(m))
	for k, v := range m {
		out = append(out, KV{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// MapKind mirrors flexbpf map kinds without importing it (state is the
// lower layer).
type MapKind uint8

// Map kinds.
const (
	KindArray MapKind = iota
	KindHash
	KindLRU
)

// Map is a bounded key/value map in one of three flavors:
//
//   - array: dense, keys 0..max-1 (P4 register file): max slots
//     preallocated at install, a size the SRAM charge at placement bounds.
//   - hash: sparse, inserts fail when full (exact-match stateful table).
//   - lru: sparse, inserts evict the least recently used entry (flow
//     cache, as in the Spectrum stateful-table design [58]).
//
// Map is safe for concurrent use.
type Map struct {
	name string
	kind MapKind
	max  int

	mu sync.Mutex
	// data holds a hash or LRU map's entries.
	data map[uint64]uint64
	// recency implements LRU ordering: seq numbers per key.
	recency map[uint64]uint64
	seq     uint64
	// slots is an array map's register file; written has bit k set while
	// slot k holds a store made since the last Reset or Import. Len,
	// Delete and Export see exactly the written slots, zero-valued ones
	// included, as a hash map of the same stores would.
	slots, written []uint64
}

// NewMap creates a map. max must be positive.
func NewMap(name string, kind MapKind, max int) *Map {
	if max <= 0 {
		panic(fmt.Sprintf("state: map %s has non-positive size %d", name, max))
	}
	m := &Map{name: name, kind: kind, max: max}
	switch kind {
	case KindArray:
		m.slots, m.written = make([]uint64, max), make([]uint64, (max+63)/64)
	case KindLRU:
		m.recency = make(map[uint64]uint64)
		fallthrough
	default:
		m.data = make(map[uint64]uint64)
	}
	return m
}

// Name returns the map name.
func (m *Map) Name() string { return m.name }

// Load returns the value for key.
//
// Array maps return (0, true) for any in-range key — array slots always
// exist — and (0, false) out of range.
func (m *Map) Load(key uint64) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.kind == KindArray {
		if key >= uint64(m.max) {
			return 0, false
		}
		return m.slots[key], true
	}
	v, ok := m.data[key]
	if ok && m.kind == KindLRU {
		m.seq++
		m.recency[key] = m.seq
	}
	return v, ok
}

// Store writes key→val. Hash maps error when full; LRU maps evict.
func (m *Map) Store(key, val uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.kind {
	case KindArray:
		if key >= uint64(m.max) {
			return fmt.Errorf("state: map %s: array index %d out of range %d", m.name, key, m.max)
		}
		m.slots[key] = val
		m.written[key/64] |= 1 << (key % 64)
		return nil
	case KindHash:
		if _, exists := m.data[key]; !exists && len(m.data) >= m.max {
			return fmt.Errorf("state: map %s full (%d entries)", m.name, m.max)
		}
		m.data[key] = val
		return nil
	case KindLRU:
		if _, exists := m.data[key]; !exists && len(m.data) >= m.max {
			m.evictLocked()
		}
		m.data[key] = val
		m.seq++
		m.recency[key] = m.seq
		return nil
	default:
		return fmt.Errorf("state: map %s has unknown kind %d", m.name, m.kind)
	}
}

func (m *Map) evictLocked() {
	var victim uint64
	oldest := ^uint64(0)
	for k, s := range m.recency {
		if s < oldest {
			oldest = s
			victim = k
		}
	}
	delete(m.data, victim)
	delete(m.recency, victim)
}

// Delete removes key (no-op for absent keys; array maps zero the slot).
func (m *Map) Delete(key uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key < uint64(len(m.slots)) { // slots is empty but for array maps
		m.slots[key] = 0
		m.written[key/64] &^= 1 << (key % 64)
	}
	delete(m.data, key)
	delete(m.recency, key)
}

// Len returns the number of occupied entries.
func (m *Map) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return countWritten(m.written) + len(m.data) // one of them is empty
}

func countWritten(written []uint64) int {
	n := 0
	for _, w := range written {
		n += bits.OnesCount64(w)
	}
	return n
}

// Export implements Object.
func (m *Map) Export() Logical {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := Logical{
		Name:   m.name,
		Kind:   "map",
		Params: map[string]uint64{"kind": uint64(m.kind), "max": uint64(m.max)},
	}
	if m.kind == KindArray {
		l.Entries = writtenSlots(m.slots, m.written)
	} else {
		l.Entries = sortedEntries(m.data)
	}
	return l
}

// Import implements Object. The logical kind may come from a *different*
// map flavor (that is the point of virtualization); only capacity is
// validated.
func (m *Map) Import(l Logical) error {
	if l.Kind != "map" {
		return fmt.Errorf("state: map %s: cannot import logical kind %q", m.name, l.Kind)
	}
	if len(l.Entries) > m.max {
		return fmt.Errorf("state: map %s: %d logical entries exceed capacity %d", m.name, len(l.Entries), m.max)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clearLocked(len(l.Entries))
	for _, kv := range l.Entries {
		if m.kind == KindArray {
			if kv.Key >= uint64(m.max) {
				return fmt.Errorf("state: map %s: logical key %d out of array range %d", m.name, kv.Key, m.max)
			}
			m.slots[kv.Key] = kv.Val
			m.written[kv.Key/64] |= 1 << (kv.Key % 64)
			continue
		}
		m.data[kv.Key] = kv.Val
		if m.recency != nil {
			m.seq++
			m.recency[kv.Key] = m.seq
		}
	}
	return nil
}

// Reset implements Object.
func (m *Map) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clearLocked(0)
}

// clearLocked empties the map, sizing a hash or LRU map's tables for n
// entries. Caller holds m.mu.
func (m *Map) clearLocked(n int) {
	if m.kind == KindArray {
		clear(m.slots)
		clear(m.written)
		return
	}
	m.data = make(map[uint64]uint64, n)
	if m.recency != nil {
		m.recency = make(map[uint64]uint64, n)
	}
}

// Counter is an indexed array of 64-bit counters.
type Counter struct {
	name string

	mu   sync.Mutex
	vals []uint64
}

// NewCounter creates a counter array of the given size.
func NewCounter(name string, size int) *Counter {
	if size <= 0 {
		panic(fmt.Sprintf("state: counter %s has non-positive size %d", name, size))
	}
	return &Counter{name: name, vals: make([]uint64, size)}
}

// Name returns the counter name.
func (c *Counter) Name() string { return c.name }

// Add increments counter idx by delta. Out-of-range indexes are dropped
// (hardware semantics: the update unit masks the index).
func (c *Counter) Add(idx, delta uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx < uint64(len(c.vals)) {
		c.vals[idx] += delta
	}
}

// Value returns counter idx (0 if out of range).
func (c *Counter) Value(idx uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx < uint64(len(c.vals)) {
		return c.vals[idx]
	}
	return 0
}

// Sum returns the total across all indexes.
func (c *Counter) Sum() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s uint64
	for _, v := range c.vals {
		s += v
	}
	return s
}

// Export implements Object; zero slots are omitted.
func (c *Counter) Export() Logical {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := Logical{Name: c.name, Kind: "counter", Params: map[string]uint64{"size": uint64(len(c.vals))}}
	for i, v := range c.vals {
		if v != 0 {
			l.Entries = append(l.Entries, KV{uint64(i), v})
		}
	}
	return l
}

// Import implements Object.
func (c *Counter) Import(l Logical) error {
	if l.Kind != "counter" {
		return fmt.Errorf("state: counter %s: cannot import logical kind %q", c.name, l.Kind)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.vals {
		c.vals[i] = 0
	}
	for _, kv := range l.Entries {
		if kv.Key >= uint64(len(c.vals)) {
			return fmt.Errorf("state: counter %s: logical index %d out of range %d", c.name, kv.Key, len(c.vals))
		}
		c.vals[kv.Key] = kv.Val
	}
	return nil
}

// Reset implements Object.
func (c *Counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.vals {
		c.vals[i] = 0
	}
}
