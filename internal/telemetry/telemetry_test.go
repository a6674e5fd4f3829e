package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("pkts") != c {
		t.Fatal("counter not interned by name")
	}
	g := r.Gauge("occ")
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	if r.CounterValue("pkts") != 5 || r.GaugeValue("occ") != 5 {
		t.Fatal("by-name reads disagree with handles")
	}
	if r.CounterValue("absent") != 0 || r.GaugeValue("absent") != 0 {
		t.Fatal("absent instruments should read zero")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc() // must not panic
	r.Gauge("y").Set(3)
	r.Histogram("z", nil).Observe(1)
	if c.Value() != 0 || r.GaugeValue("y") != 0 {
		t.Fatal("nil registry handles should be inert")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
	var tr *Tracer
	trace := tr.StartTrace("p")
	sp := trace.StartSpan("validate", "")
	sp.EndSpan()
	trace.Finish("succeeded")
	if trace.Format() != "" {
		t.Fatal("nil trace should format empty")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	s := h.snapshot("lat")
	// v <= 10 → bucket 0; 10 < v <= 100 → bucket 1; else overflow.
	want := []uint64{2, 2, 2}
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	if s.Count != 6 || s.Sum != 1+10+11+100+101+5000 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil)
	h.Observe(500) // <= 1µs bucket
	s := h.snapshot("lat")
	if len(s.Bounds) != len(DefaultLatencyBounds) {
		t.Fatalf("bounds = %v, want defaults", s.Bounds)
	}
	if s.Buckets[0] != 1 {
		t.Fatalf("first bucket = %d, want 1", s.Buckets[0])
	}
}

// TestSnapshotDeterministic asserts that two registries fed the same
// updates render byte-identical snapshots — the guarantee the CI bench
// gate and the seed-reproducibility tests build on.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		// Create in scrambled order: output must still be sorted.
		r.Counter("z.last").Add(3)
		r.Counter("a.first").Add(1)
		r.Gauge("m.mid").Set(-4)
		h := r.Histogram("lat", []int64{10, 100})
		h.Observe(5)
		h.Observe(50)
		h.Observe(500)
		return r.Snapshot().Format()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("snapshot format not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"a.first", "z.last", "m.mid", "count=3"} {
		if !strings.Contains(a, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, a)
		}
	}
	if strings.Index(a, "a.first") > strings.Index(a, "z.last") {
		t.Fatalf("counters not sorted:\n%s", a)
	}
}

// TestRegistryConcurrent exercises concurrent instrument creation and
// updates; run under -race this is the concurrency-safety check.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h", nil).Observe(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("shared"); got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	if h := r.Histogram("h", nil); h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
}

// TestViewsRenderLikeInstruments: a counter view and a histogram view
// sort in among instruments and render exactly as instruments holding
// the same values would, and CounterValue reads a view by name.
func TestViewsRenderLikeInstruments(t *testing.T) {
	var pkts uint64
	lat := NewLocalHistogram([]int64{10, 100})
	views := NewRegistry()
	views.Counter("a.first").Add(1)
	views.CounterView("m.pkts", func() uint64 { return pkts })
	views.Counter("z.last").Add(3)
	views.HistogramView("lat", lat)

	insts := NewRegistry()
	insts.Counter("a.first").Add(1)
	insts.Counter("z.last").Add(3)
	for _, v := range []int64{5, 50, 500} {
		pkts++
		lat.Observe(v)
		insts.Counter("m.pkts").Inc()
		insts.Histogram("lat", []int64{10, 100}).Observe(v)
	}
	if got, want := views.Snapshot().Format(), insts.Snapshot().Format(); got != want {
		t.Fatalf("views render differently from instruments:\n%s\nvs\n%s", got, want)
	}
	if got := views.CounterValue("m.pkts"); got != 3 {
		t.Fatalf("CounterValue of a view = %d, want 3", got)
	}
	var nilReg *Registry
	nilReg.CounterView("x", func() uint64 { return 1 })
	nilReg.HistogramView("y", lat)
}

// TestViewNameClashPanics: a name is an instrument or a view, never both,
// and never two views.
func TestViewNameClashPanics(t *testing.T) {
	read := func() uint64 { return 0 }
	cases := map[string]func(r *Registry){
		"Counter on a view":        func(r *Registry) { r.CounterView("n", read); r.Counter("n") },
		"CounterView on a counter": func(r *Registry) { r.Counter("n"); r.CounterView("n", read) },
		"CounterView twice":        func(r *Registry) { r.CounterView("n", read); r.CounterView("n", read) },
		"Histogram on a view":      func(r *Registry) { r.HistogramView("n", NewLocalHistogram(nil)); r.Histogram("n", nil) },
		"HistogramView on one":     func(r *Registry) { r.Histogram("n", nil); r.HistogramView("n", NewLocalHistogram(nil)) },
		"HistogramView twice": func(r *Registry) {
			r.HistogramView("n", NewLocalHistogram(nil))
			r.HistogramView("n", NewLocalHistogram(nil))
		},
	}
	for name, register := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			register(NewRegistry())
		})
	}
}
