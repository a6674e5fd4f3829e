package telemetry

import "testing"

// BenchmarkCounterAdd measures the hot-path cost of a counter bump (one
// atomic add) — this is what every processed packet pays.
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("pkts")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve measures a latency observation (bucket scan
// plus three atomics).
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("lat")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i % 2_000_000))
	}
}

// BenchmarkNilCounter measures the disabled-telemetry path (nil handle).
func BenchmarkNilCounter(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkSnapshot measures a full registry snapshot with a realistic
// instrument population (what a flexnetd "stats" request costs).
func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter(fmt64("c", i)).Add(uint64(i))
		r.Gauge(fmt64("g", i)).Set(int64(i))
	}
	for i := 0; i < 8; i++ {
		r.Histogram(fmt64("h", i)).Observe(int64(i) * 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

func fmt64(prefix string, i int) string {
	return prefix + "." + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// BenchmarkSpan measures one full span lifecycle inside a trace.
func BenchmarkSpan(b *testing.B) {
	tr := NewTracer(nil)
	trace := tr.StartTrace("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := trace.StartSpan("phase", "dev")
		sp.EndSpan()
	}
}
