package telemetry

import "sync/atomic"

// DefaultLatencyBounds are the shared bucket boundaries for latency
// histograms, in nanoseconds: 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s,
// 10s, plus an implicit +inf bucket. They are fixed so histogram output
// is deterministic under the simulator at a given seed and comparable
// across devices and plans.
var DefaultLatencyBounds = []int64{
	1_000,          // 1µs
	10_000,         // 10µs
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// Histogram counts observations into fixed buckets. Buckets are
// cumulative-upper-bound style: observation v lands in the first bucket
// with v <= bound, or the overflow (+inf) bucket. Observe is lock-free.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64 // len(bounds)+1; last is +inf
	count   atomic.Uint64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := copyBounds(bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// copyBounds returns a private copy of bounds, DefaultLatencyBounds when
// bounds is empty.
func copyBounds(bounds []int64) []int64 {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds
	}
	return append([]int64(nil), bounds...)
}

// bucket returns the index of the bucket v lands in: the first with
// v <= bound, or len(bounds) for the overflow bucket.
func bucket(bounds []int64, v int64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucket(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (zero for a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (zero for a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramSnapshot is a histogram's state in a Snapshot. Buckets[i]
// counts observations <= Bounds[i]; the final element counts overflow.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Bounds  []int64  `json:"bounds"`
	Buckets []uint64 `json:"buckets"`
}

func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:    name,
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Bounds:  h.bounds,
		Buckets: make([]uint64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// LocalHistogram is a Histogram for a single writer: the same buckets in
// plain fields, so an observation is a bucket scan and three adds with no
// locked instruction. Its owner publishes it with Registry.HistogramView;
// whoever reads it (Snapshot) must be serialized with the writer.
type LocalHistogram struct {
	bounds  []int64
	buckets []uint64 // len(bounds)+1; last is +inf
	count   uint64
	sum     int64
}

// NewLocalHistogram creates a single-writer histogram with the given
// bucket boundaries (DefaultLatencyBounds when empty).
func NewLocalHistogram(bounds []int64) *LocalHistogram {
	b := copyBounds(bounds)
	return &LocalHistogram{bounds: b, buckets: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *LocalHistogram) Observe(v int64) {
	h.buckets[bucket(h.bounds, v)]++
	h.count++
	h.sum += v
}

func (h *LocalHistogram) snapshot(name string) HistogramSnapshot {
	return HistogramSnapshot{
		Name:    name,
		Count:   h.count,
		Sum:     h.sum,
		Bounds:  h.bounds,
		Buckets: append([]uint64(nil), h.buckets...),
	}
}
