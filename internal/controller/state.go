package controller

// This file holds the controller's state structures (DESIGN.md §13.2):
// the app/tenant registry and the generation-keyed compile-target cache.
//
// The registry is two maps behind one mutex, so an app and its tenant's
// app list always change together. Nothing drives the controller from two
// goroutines at once — the simulator is single-threaded and flexnetd
// serialises every op — so one lock costs nothing; concurrent plans come
// from the executor's footprint admission (§13.2), not from this file.

import (
	"slices"
	"sort"
	"sync"

	"flexnet/internal/compiler"
	"flexnet/internal/fabric"
)

// registry is the controller's app and tenant registry.
type registry struct {
	mu       sync.Mutex
	apps     map[string]*App
	tenants  map[string]*Tenant
	nextVLAN uint64
}

func newRegistry() *registry {
	return &registry{apps: map[string]*App{}, tenants: map[string]*Tenant{}, nextVLAN: 100}
}

func (s *registry) app(uri string) *App {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apps[uri]
}

// putApp registers app and lists it under its tenant.
func (s *registry) putApp(app *App) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apps[app.URI] = app
	if t := s.tenants[app.Tenant]; t != nil && app.Tenant != "" {
		t.Apps = append(t.Apps, app.URI)
	}
}

// deleteApp unregisters uri and drops it from its tenant's list.
func (s *registry) deleteApp(uri string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	app := s.apps[uri]
	if app == nil {
		return
	}
	delete(s.apps, uri)
	if t := s.tenants[app.Tenant]; t != nil && app.Tenant != "" {
		if i := slices.Index(t.Apps, uri); i >= 0 {
			t.Apps = slices.Delete(t.Apps, i, i+1)
		}
	}
}

// appURIs returns every deployed URI in sorted order.
func (s *registry) appURIs() []string { return sortedKeys(&s.mu, s.apps) }

// tenantNames returns every admitted tenant in sorted order — the spec
// differ's live-tenant view.
func (s *registry) tenantNames() []string { return sortedKeys(&s.mu, s.tenants) }

// sortedKeys returns m's keys, read under mu, in sorted order (nil for
// an empty map).
func sortedKeys[V any](mu *sync.Mutex, m map[string]V) []string {
	var out []string
	mu.Lock()
	for k := range m {
		out = append(out, k)
	}
	mu.Unlock()
	sort.Strings(out)
	return out
}

func (s *registry) tenant(name string) *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[name]
}

// addTenant admits name with the next free VLAN, or returns nil if it is
// already admitted.
func (s *registry) addTenant(name string) *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenants[name] != nil {
		return nil
	}
	t := &Tenant{Name: name, VLAN: s.nextVLAN}
	s.nextVLAN++
	s.tenants[name] = t
	return t
}

func (s *registry) deleteTenant(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tenants, name)
}

// targetCache is the controller's compile-target inventory, keyed by
// fabric generation (device count — fabric membership only grows): the
// target list is rebuilt only when a device joins, and lookups by name
// are O(1). The controller marks nothing removable, so its targets are
// read-only views and fungible planning over them never reclaims.
type targetCache struct {
	mu     sync.Mutex
	fab    *fabric.Fabric
	gen    int
	byName map[string]*compiler.DeviceTarget
	all    []compiler.Target
}

func newTargetCache(fab *fabric.Fabric) *targetCache {
	tc := &targetCache{fab: fab, byName: map[string]*compiler.DeviceTarget{}}
	tc.mu.Lock()
	tc.refreshLocked()
	tc.mu.Unlock()
	return tc
}

func (tc *targetCache) refreshLocked() {
	names := tc.fab.Devices()
	if len(names) == tc.gen {
		return
	}
	for _, n := range names {
		if _, ok := tc.byName[n]; !ok {
			tc.byName[n] = compiler.NewDeviceTarget(tc.fab.Device(n))
		}
	}
	all := make([]compiler.Target, 0, len(names))
	for _, n := range names {
		all = append(all, tc.byName[n])
	}
	tc.all = all
	tc.gen = len(names)
}

// list returns the cached full target list in fab.Devices() order.
func (tc *targetCache) list() []compiler.Target {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.refreshLocked()
	return tc.all
}

// get returns the target for one device, or nil if the fabric has no
// such device.
func (tc *targetCache) get(name string) *compiler.DeviceTarget {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if t, ok := tc.byName[name]; ok {
		return t
	}
	tc.refreshLocked()
	return tc.byName[name]
}

// size returns the fabric device count (the full-scan cost term).
func (tc *targetCache) size() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.refreshLocked()
	return len(tc.all)
}
