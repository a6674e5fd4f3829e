package state

import (
	"fmt"
	"sort"
	"sync"
)

// Store is a named collection of state objects belonging to one program
// instance on one device. ExportAll/ImportAll move a whole program's
// state during migration.
type Store struct {
	mu      sync.Mutex
	objects map[string]Object
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{objects: make(map[string]Object)}
}

// Add registers an object. Duplicate names are an error.
func (st *Store) Add(o Object) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.objects[o.Name()]; dup {
		return fmt.Errorf("state: store already has object %q", o.Name())
	}
	st.objects[o.Name()] = o
	return nil
}

// Get returns the named object, or nil.
func (st *Store) Get(name string) Object {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.objects[name]
}

// Map returns the named object as a *Map, or nil.
func (st *Store) Map(name string) *Map {
	m, _ := st.Get(name).(*Map)
	return m
}

// Counter returns the named object as a *Counter, or nil.
func (st *Store) Counter(name string) *Counter {
	c, _ := st.Get(name).(*Counter)
	return c
}

// Meter returns the named object as a *Meter, or nil.
func (st *Store) Meter(name string) *Meter {
	m, _ := st.Get(name).(*Meter)
	return m
}

// Names returns object names (unordered).
func (st *Store) Names() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.objects))
	for n := range st.objects {
		out = append(out, n)
	}
	return out
}

// ExportAll captures every object's logical state.
func (st *Store) ExportAll() []Logical {
	st.mu.Lock()
	names := make([]string, 0, len(st.objects))
	for n := range st.objects {
		names = append(names, n)
	}
	st.mu.Unlock()
	// Deterministic order for replication digests.
	sort.Strings(names)
	out := make([]Logical, 0, len(names))
	for _, n := range names {
		if o := st.Get(n); o != nil {
			out = append(out, o.Export())
		}
	}
	return out
}

// ImportAll restores objects by name. Objects present locally but absent
// from the logical set are reset; logical entries with no local object
// are an error (program/state mismatch).
func (st *Store) ImportAll(ls []Logical) error {
	seen := map[string]bool{}
	for _, l := range ls {
		o := st.Get(l.Name)
		if o == nil {
			return fmt.Errorf("state: import references unknown object %q", l.Name)
		}
		if err := o.Import(l); err != nil {
			return err
		}
		seen[l.Name] = true
	}
	for _, n := range st.Names() {
		if !seen[n] {
			st.Get(n).Reset()
		}
	}
	return nil
}
