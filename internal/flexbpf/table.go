package flexbpf

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// MatchValue is one key component of a table entry.
type MatchValue struct {
	// Value is the match value (exact, ternary, LPM) or range low bound.
	Value uint64
	// Mask is the ternary mask (ignored for other kinds).
	Mask uint64
	// PrefixLen is the LPM prefix length in bits.
	PrefixLen int
	// Hi is the range high bound (inclusive).
	Hi uint64
}

// Matches reports whether the component matches v under kind (with key
// width bits for LPM).
func (m MatchValue) Matches(kind MatchKind, bits int, v uint64) bool {
	switch kind {
	case MatchExact:
		return v == m.Value
	case MatchTernary:
		return v&m.Mask == m.Value&m.Mask
	case MatchLPM:
		if m.PrefixLen <= 0 {
			return true
		}
		if m.PrefixLen >= bits {
			return v == m.Value
		}
		shift := uint(bits - m.PrefixLen)
		return v>>shift == m.Value>>shift
	case MatchRange:
		return v >= m.Value && v <= m.Hi
	default:
		return false
	}
}

// TableEntry is one installed match/action rule.
type TableEntry struct {
	// Priority orders ternary/range entries; higher wins. Exact tables
	// ignore priority; LPM tables use prefix length.
	Priority int
	Match    []MatchValue
	Action   string
	Params   []uint64

	// actIdx caches the linked action index + 1 (0 = unresolved). It is
	// annotated under the instance write lock before the entry is
	// published, so the lock-free read path can jump straight to the
	// lowered action body without a name lookup.
	actIdx int32
}

// tableState is an immutable snapshot of a table's contents. Lookups load
// the current snapshot with one atomic pointer read; writers clone the
// snapshot, mutate the clone, and swap it in. Readers therefore never
// block and never observe a half-applied update — the same discipline the
// runtime engine uses for whole-config epoch swaps.
//
// Entries are stored by value so linear scans (ternary/LPM tables) walk
// one contiguous array. All-exact tables keep entries in insertion order
// (order is irrelevant to exact matching) so the hash index can address
// them by position and survive copy-on-write clones unchanged; all other
// tables keep entries in match order (priority desc, prefix desc).
type tableState struct {
	entries []TableEntry
	// exact is the hash index for all-exact-key tables (nil otherwise).
	exact *exactIndex
}

var emptyTableState = &tableState{}

// TableInstance is the runtime realization of a TableSpec: the entry
// store plus lookup. Device models wrap instances with resource
// accounting; the matching semantics live here with the language.
//
// TableInstance is safe for concurrent lookups with concurrent updates:
// the data plane reads copy-on-write snapshots lock-free while control
// plane writers serialize on an internal mutex and publish via
// atomic.Pointer.
type TableInstance struct {
	Spec *TableSpec

	mu    sync.Mutex // serializes writers
	state atomic.Pointer[tableState]
	// gen counts state publications. Every path that stores a new
	// tableState bumps it, so a consumer that captured (instance, gen) can
	// later detect that the contents might have changed — the flow cache
	// validates entries against it, which is what makes bulk rewrites that
	// do not bump the device epoch (RefreshRoutes' ReplaceAll) safe to run
	// under a populated cache.
	gen atomic.Uint64
	// resolve maps an action name to its linked action index (-1 if
	// unknown). Installed once before the instance serves traffic.
	resolve func(string) int32
}

// NewTableInstance creates an empty instance of spec.
func NewTableInstance(spec *TableSpec) *TableInstance {
	ti := &TableInstance{Spec: spec}
	ti.state.Store(emptyTableState)
	return ti
}

func (ti *TableInstance) load() *tableState {
	if st := ti.state.Load(); st != nil {
		return st
	}
	return emptyTableState
}

// publish installs a new state snapshot and bumps the generation.
// Callers hold ti.mu (or, at construction, have exclusive access).
func (ti *TableInstance) publish(next *tableState) {
	ti.state.Store(next)
	ti.gen.Add(1)
}

// Generation returns the table's state-publication counter. It advances
// on every content change (Insert, Delete, Clear, ReplaceAll, resolver
// annotation); equal generations imply identical published contents.
func (ti *TableInstance) Generation() uint64 { return ti.gen.Load() }

// SetActionResolver installs the linked action-index resolver and
// annotates entries. It must be called before the instance serves
// traffic (the install path links programs before the config swap).
func (ti *TableInstance) SetActionResolver(fn func(string) int32) {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	ti.resolve = fn
	st := ti.load()
	if len(st.entries) == 0 {
		return
	}
	// Entry positions are unchanged, so the exact index carries over.
	next := &tableState{entries: append([]TableEntry(nil), st.entries...), exact: st.exact}
	for i := range next.entries {
		next.entries[i].actIdx = fn(next.entries[i].Action) + 1
	}
	ti.publish(next)
}

func (t *TableSpec) allExact() bool {
	for _, k := range t.Keys {
		if k.Kind != MatchExact {
			return false
		}
	}
	return true
}

// hashWords is FNV-1a over the key words directly — no string key is
// materialized on the lookup path.
func hashWords(keys []uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, k := range keys {
		h ^= k
		h *= prime
	}
	return h
}

// exactIndex is an open-addressing hash table over the entries of an
// all-exact table. Slots hold entry positions + 1 (0 = empty), so
// cloning for a copy-on-write update is a flat memcpy, and the index
// stays valid across entry-slice clones because exact storage is
// append-ordered.
type exactIndex struct {
	slots []int32 // position + 1; len is a power of two
	mask  uint64
	n     int
}

func newExactIndex(capacity int) *exactIndex {
	size := 8
	for size < capacity*2 {
		size *= 2
	}
	return &exactIndex{slots: make([]int32, size), mask: uint64(size - 1)}
}

func entryKeysEqual(e *TableEntry, keys []uint64) bool {
	if len(e.Match) != len(keys) {
		return false
	}
	for i, k := range keys {
		if e.Match[i].Value != k {
			return false
		}
	}
	return true
}

// find probes for the position of the entry with exactly these key
// values, or -1.
func (ix *exactIndex) find(entries []TableEntry, keys []uint64) int {
	if ix == nil || len(ix.slots) == 0 {
		return -1
	}
	i := hashWords(keys) & ix.mask
	for {
		pos := ix.slots[i]
		if pos == 0 {
			return -1
		}
		if entryKeysEqual(&entries[pos-1], keys) {
			return int(pos - 1)
		}
		i = (i + 1) & ix.mask
	}
}

func (ix *exactIndex) insert(entries []TableEntry, pos int) {
	i := hashWords(entryKeyWords(&entries[pos])) & ix.mask
	for ix.slots[i] != 0 {
		i = (i + 1) & ix.mask
	}
	ix.slots[i] = int32(pos + 1)
	ix.n++
}

func entryKeyWords(e *TableEntry) []uint64 {
	out := make([]uint64, len(e.Match))
	for i, m := range e.Match {
		out[i] = m.Value
	}
	return out
}

// clone returns a flat copy sized so the caller can insert one more
// entry, rehashing only when past half load.
func (ix *exactIndex) clone(entries []TableEntry) *exactIndex {
	if ix == nil {
		return newExactIndex(1)
	}
	if (ix.n+1)*2 > len(ix.slots) {
		ns := newExactIndex(ix.n + 1)
		for _, pos := range ix.slots {
			if pos != 0 {
				ns.insert(entries, int(pos-1))
			}
		}
		return ns
	}
	ns := &exactIndex{slots: make([]int32, len(ix.slots)), mask: ix.mask, n: ix.n}
	copy(ns.slots, ix.slots)
	return ns
}

func buildExactIndex(entries []TableEntry) *exactIndex {
	ix := newExactIndex(len(entries) + 1)
	for pos := range entries {
		ix.insert(entries, pos)
	}
	return ix
}

// Len returns the number of installed entries.
func (ti *TableInstance) Len() int {
	return len(ti.load().entries)
}

// Insert installs an entry. It validates arity against the spec and
// capacity against Spec.Size.
func (ti *TableInstance) Insert(e *TableEntry) error {
	if len(e.Match) != len(ti.Spec.Keys) {
		return fmt.Errorf("flexbpf: table %s: entry has %d match components, spec has %d keys",
			ti.Spec.Name, len(e.Match), len(ti.Spec.Keys))
	}
	// Tables declaring an action set restrict entries to it; tables with
	// no declared actions (raw instances outside a Program) accept any.
	if e.Action != "" && len(ti.Spec.Actions) > 0 && !ti.Spec.HasAction(e.Action) {
		return fmt.Errorf("flexbpf: table %s: action %q not permitted", ti.Spec.Name, e.Action)
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	old := ti.load()
	if ti.Spec.Size > 0 && len(old.entries) >= ti.Spec.Size {
		return fmt.Errorf("flexbpf: table %s full (%d entries)", ti.Spec.Name, ti.Spec.Size)
	}
	allExact := ti.Spec.allExact()
	if allExact && old.exact.find(old.entries, entryKeyWords(e)) >= 0 {
		return fmt.Errorf("flexbpf: table %s: duplicate exact entry", ti.Spec.Name)
	}
	if ti.resolve != nil {
		e.actIdx = ti.resolve(e.Action) + 1
	}
	next := &tableState{}
	next.entries = make([]TableEntry, len(old.entries), len(old.entries)+1)
	copy(next.entries, old.entries)
	next.entries = append(next.entries, *e)
	if allExact {
		// Exact storage stays append-ordered so existing index positions
		// remain valid; only the new tail position is inserted.
		if old.exact == nil {
			next.exact = buildExactIndex(next.entries)
		} else {
			next.exact = old.exact.clone(next.entries)
			next.exact.insert(next.entries, len(next.entries)-1)
		}
	} else {
		sortEntries(next.entries)
	}
	ti.publish(next)
	return nil
}

// ReplaceAll atomically replaces the table's entire contents with the
// given entries, validated exactly as Insert validates them. The new
// state is published with a single atomic store, so concurrent lookups
// see either the complete old contents or the complete new contents —
// never an empty or partially-written table. This is the commit point
// bulk rewrites (the fabric's routing refresh) use instead of
// Clear-then-Insert, which exposed an empty-table window and cost a
// copy-on-write clone per entry. Entry order follows the usual match
// order (priority desc, prefix desc, then given order).
func (ti *TableInstance) ReplaceAll(entries []*TableEntry) error {
	if ti.Spec.Size > 0 && len(entries) > ti.Spec.Size {
		return fmt.Errorf("flexbpf: table %s full (%d entries, %d offered)",
			ti.Spec.Name, ti.Spec.Size, len(entries))
	}
	for _, e := range entries {
		if len(e.Match) != len(ti.Spec.Keys) {
			return fmt.Errorf("flexbpf: table %s: entry has %d match components, spec has %d keys",
				ti.Spec.Name, len(e.Match), len(ti.Spec.Keys))
		}
		if e.Action != "" && len(ti.Spec.Actions) > 0 && !ti.Spec.HasAction(e.Action) {
			return fmt.Errorf("flexbpf: table %s: action %q not permitted", ti.Spec.Name, e.Action)
		}
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	next := &tableState{entries: make([]TableEntry, len(entries))}
	for i, e := range entries {
		next.entries[i] = *e
		if ti.resolve != nil {
			next.entries[i].actIdx = ti.resolve(e.Action) + 1
		}
	}
	if ti.Spec.allExact() {
		if len(next.entries) > 0 {
			ix := newExactIndex(len(next.entries) + 1)
			for pos := range next.entries {
				if ix.find(next.entries, entryKeyWords(&next.entries[pos])) >= 0 {
					return fmt.Errorf("flexbpf: table %s: duplicate exact entry", ti.Spec.Name)
				}
				ix.insert(next.entries, pos)
			}
			next.exact = ix
		}
	} else {
		sortEntries(next.entries)
	}
	ti.publish(next)
	return nil
}

// sortEntries orders entries: priority desc, then total LPM prefix desc,
// then insertion-stable.
func sortEntries(entries []TableEntry) {
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		return totalPrefix(a) > totalPrefix(b)
	})
}

func totalPrefix(e *TableEntry) int {
	n := 0
	for _, m := range e.Match {
		n += m.PrefixLen
	}
	return n
}

// Clear removes all entries.
func (ti *TableInstance) Clear() {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	ti.publish(emptyTableState)
}

// Entries returns a snapshot copy of the installed entries in match
// order. Used by migration and incremental recompilation.
func (ti *TableInstance) Entries() []*TableEntry {
	entries := ti.load().entries
	snap := append([]TableEntry(nil), entries...)
	// Exact tables store entries in insertion order; present them in the
	// same deterministic match order as every other table. (With equal
	// priorities and no prefixes the stable sort preserves insertion
	// order, so this is an ordering guarantee, not a reordering.)
	sortEntries(snap)
	out := make([]*TableEntry, len(snap))
	for i := range snap {
		out[i] = &TableEntry{
			Priority: snap[i].Priority,
			Match:    append([]MatchValue(nil), snap[i].Match...),
			Action:   snap[i].Action,
			Params:   append([]uint64(nil), snap[i].Params...),
		}
	}
	return out
}

// Lookup finds the best-matching entry for the key values, in spec key
// order. On miss it returns the spec's default action with hit=false.
func (ti *TableInstance) Lookup(keys []uint64) (action string, params []uint64, hit bool) {
	e, ok := ti.LookupEntry(keys)
	if !ok {
		return ti.Spec.DefaultAction, ti.Spec.DefaultParams, false
	}
	return e.Action, e.Params, true
}

// LookupEntry finds the best-matching entry for the key values and
// returns it directly; the linked fast path uses it to reach the
// pre-resolved action index without re-deriving it from the name. The
// returned pointer references an immutable snapshot and must be treated
// as read-only.
func (ti *TableInstance) LookupEntry(keys []uint64) (*TableEntry, bool) {
	st := ti.load()
	if st.exact != nil {
		if pos := st.exact.find(st.entries, keys); pos >= 0 {
			return &st.entries[pos], true
		}
		return nil, false
	}
	specKeys := ti.Spec.Keys
	for j := range st.entries {
		e := &st.entries[j]
		ok := true
		for i := range specKeys {
			k := &specKeys[i]
			bits := k.Bits
			if bits == 0 {
				bits = 64
			}
			if !e.Match[i].Matches(k.Kind, bits, keys[i]) {
				ok = false
				break
			}
		}
		if ok {
			return e, true
		}
	}
	return nil, false
}

// ExactEntry builds an all-exact-match entry (convenience).
func ExactEntry(action string, params []uint64, keys ...uint64) *TableEntry {
	ms := make([]MatchValue, len(keys))
	for i, k := range keys {
		ms[i] = MatchValue{Value: k}
	}
	return &TableEntry{Match: ms, Action: action, Params: params}
}

// LPMEntry builds a single-key LPM entry (convenience).
func LPMEntry(action string, params []uint64, prefix uint64, prefixLen int) *TableEntry {
	return &TableEntry{
		Match:  []MatchValue{{Value: prefix, PrefixLen: prefixLen}},
		Action: action,
		Params: params,
	}
}
