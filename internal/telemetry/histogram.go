package telemetry

import "sync/atomic"

// latencyBounds are the bucket boundaries of every histogram, in
// nanoseconds: 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s, plus an
// implicit +inf bucket. They are fixed so histogram output is
// deterministic under the simulator at a given seed and comparable
// across devices and plans.
var latencyBounds = [...]int64{
	1_000,          // 1µs
	10_000,         // 10µs
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// numBuckets counts latencyBounds' buckets and the +inf one.
const numBuckets = len(latencyBounds) + 1

// Histogram counts observations into the latencyBounds buckets. Buckets
// are cumulative-upper-bound style: observation v lands in the first
// bucket with v <= bound, or the overflow (+inf) bucket. Observe is
// lock-free. Registry.Histogram creates them.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64 // last is +inf
	count   atomic.Uint64
	sum     atomic.Int64
}

// bucket returns the index of the bucket v lands in: the first with
// v <= bound, or len(latencyBounds) for the overflow bucket.
func bucket(v int64) int {
	i := 0
	for i < len(latencyBounds) && v > latencyBounds[i] {
		i++
	}
	return i
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucket(v)].Add(1)
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

// HistogramSnapshot is a histogram's state in a Snapshot. Buckets[i]
// counts observations <= Bounds[i]; the final element counts overflow.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Bounds  []int64  `json:"bounds"`
	Buckets []uint64 `json:"buckets"`
}

func (h *Histogram) snapshot(name string, bounds []int64) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:    name,
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Bounds:  bounds,
		Buckets: make([]uint64, numBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// LocalHistogram is a Histogram for a single writer: the same buckets in
// plain fields, so an observation is a bucket scan and three adds with no
// locked instruction. Its owner publishes it with Registry.HistogramView;
// whoever reads it (Snapshot) must be serialized with the writer. The
// zero value is ready to use.
type LocalHistogram struct {
	buckets [numBuckets]uint64 // last is +inf
	count   uint64
	sum     int64
}

// Observe records one sample.
func (h *LocalHistogram) Observe(v int64) {
	h.buckets[bucket(v)]++
	h.count++
	h.sum += v
}

func (h *LocalHistogram) snapshot(name string, bounds []int64) HistogramSnapshot {
	return HistogramSnapshot{
		Name:    name,
		Count:   h.count,
		Sum:     h.sum,
		Bounds:  bounds,
		Buckets: append([]uint64(nil), h.buckets[:]...),
	}
}
