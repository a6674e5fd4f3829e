// Package telemetry is FlexNet's native observability layer: a
// dependency-free metrics registry (counters, gauges, histograms with
// fixed bucket boundaries) plus a lightweight span tracer keyed on
// ChangePlan IDs (see trace.go).
//
// The paper's control loop — detect, recompile, reconfigure at runtime —
// only works if the network can observe itself: reaction times,
// reconfiguration latencies, and per-device occupancy are exactly what
// the E1–E20 experiments measure. This package makes those signals a
// first-class subsystem instead of ad-hoc counters in tests.
//
// Determinism: all instrument values derive from the simulated clock and
// seeded packet streams, and every rendering (Snapshot.Format, JSON
// snapshots) iterates instruments in sorted-name order. A scenario run
// twice at the same simulator seed therefore produces byte-identical
// telemetry — asserted by tests, and relied on by the CI bench gate.
//
// Besides instruments, a registry holds views: counters and histograms
// whose values live in their owner's plain single-writer fields and are
// read at snapshot time (CounterView, HistogramView, LocalHistogram).
//
// Handles are nil-safe: every method on a nil *Counter, *Gauge,
// *Histogram, *Trace, or *Span is a no-op, so instrumented code runs
// unchanged when no registry or tracer is configured (e.g. devices built
// directly in micro-benchmarks).
//
// DESIGN.md §6 documents the instrument set, naming conventions, and the determinism gate.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 instrument.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 instrument (occupancy, queue depth, epoch).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (zero for a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named counters, gauges and histograms. Each counter or
// histogram name is one of two kinds, fixed by whoever registers it
// first:
//
//   - an instrument, created on first use by Counter / Histogram and
//     updated with atomics afterwards, so any goroutine may bump it
//     (callers should resolve handles once and reuse them on hot paths);
//   - a view (CounterView / HistogramView), whose value lives in its
//     owner's plain fields and is read by a function at Snapshot and
//     CounterValue time. Views are how a single-writer packet path
//     publishes counts without a locked instruction per packet; reading
//     one must be serialized with its owner's writer (DESIGN.md §6).
//
// Asking for a name as the other kind panics: a Counter handle for a
// view name would be a silent zero shadow of the real count.
type Registry struct {
	mu       sync.Mutex
	counters map[string]counterSource
	gauges   map[string]*Gauge
	hists    map[string]histSource
}

// counterSource is a counter's value behind a name: a *Counter or a view.
type counterSource interface{ Value() uint64 }

// counterView adapts a view's read function to counterSource.
type counterView func() uint64

func (v counterView) Value() uint64 { return v() }

// histSource is a histogram's state behind a name: a *Histogram or a
// *LocalHistogram view.
type histSource interface {
	snapshot(name string, bounds []int64) HistogramSnapshot
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]counterSource{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]histSource{},
	}
}

// Counter returns the named counter, creating it if needed. Returns nil
// (a no-op handle) on a nil registry. Panics if name is a view.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch c := r.counters[name].(type) {
	case *Counter:
		return c
	case nil:
		nc := &Counter{}
		r.counters[name] = nc
		return nc
	default:
		panic(fmt.Sprintf("telemetry: counter %q is a view", name))
	}
}

// CounterView registers name as a counter whose value read returns at
// Snapshot and CounterValue time. No-op on a nil registry. Panics if the
// name is already registered, as an instrument or as a view.
func (r *Registry) CounterView(name string, read func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters[name] != nil {
		panic(fmt.Sprintf("telemetry: counter %q is already registered", name))
	}
	r.counters[name] = counterView(read)
}

// Gauge returns the named gauge, creating it if needed. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed. Returns
// nil on a nil registry. Panics if name is a view.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch h := r.hists[name].(type) {
	case *Histogram:
		return h
	case nil:
		nh := &Histogram{}
		r.hists[name] = nh
		return nh
	default:
		panic(fmt.Sprintf("telemetry: histogram %q is a view", name))
	}
}

// HistogramView registers name as a histogram whose state is read from h
// at Snapshot time. No-op on a nil registry. Panics if the name is
// already registered, as an instrument or as a view.
func (r *Registry) HistogramView(name string, h *LocalHistogram) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists[name] != nil {
		panic(fmt.Sprintf("telemetry: histogram %q is already registered", name))
	}
	r.hists[name] = h
}

// CounterValue reads a counter or counter view by name without creating
// it.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c.Value()
	}
	return 0
}

// GaugeValue reads a gauge by name without creating it.
func (r *Registry) GaugeValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g := r.gauges[name]
	r.mu.Unlock()
	return g.Value()
}

// MetricPoint is one counter or gauge sample in a snapshot.
type MetricPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of every instrument, sorted by name.
type Snapshot struct {
	Counters   []MetricPoint       `json:"counters"`
	Gauges     []MetricPoint       `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state in deterministic
// (sorted-name) order. Safe to call concurrently with instrument
// updates, each of which is read atomically; views are read by their
// functions, under the contract of their owners (see Registry).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.counters) {
		s.Counters = append(s.Counters, MetricPoint{Name: name, Value: int64(r.counters[name].Value())})
	}
	for _, name := range sortedKeys(r.gauges) {
		s.Gauges = append(s.Gauges, MetricPoint{Name: name, Value: r.gauges[name].Value()})
	}
	// The snapshot's histograms share one copy of latencyBounds.
	bounds := append([]int64(nil), latencyBounds[:]...)
	for _, name := range sortedKeys(r.hists) {
		s.Histograms = append(s.Histograms, r.hists[name].snapshot(name, bounds))
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Format renders the snapshot as an operator-readable table. The output
// is deterministic: same instrument values, same bytes.
func (s Snapshot) Format() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, p := range s.Counters {
			fmt.Fprintf(&b, "  %-44s %d\n", p.Name, p.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, p := range s.Gauges {
			fmt.Fprintf(&b, "  %-44s %d\n", p.Name, p.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-44s count=%d sum=%d\n", h.Name, h.Count, h.Sum)
			for i, bc := range h.Buckets {
				if bc == 0 {
					continue
				}
				fmt.Fprintf(&b, "    %-42s %d\n", bucketLabel(h.Bounds, i), bc)
			}
		}
	}
	return b.String()
}

func bucketLabel(bounds []int64, i int) string {
	if i < len(bounds) {
		return fmt.Sprintf("le %d:", bounds[i])
	}
	return "le +inf:"
}
