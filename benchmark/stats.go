package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vals by linear interpolation
// between closest ranks. vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// meter records a timed run as a sequence of steps, each of some kind (a
// RunFor advance, a migrate, a deploy op, ...), with its latency and the
// units of work finished in it.
//
// The sandbox this was sized on takes a vCPU away for 1–60 ms at a time,
// dozens of times a second, and for a fifth to a half of all wall time
// once it has been busy for an hour. Anything summed over wall time then
// measures the neighbours: windowed rates moved by 40 % between runs
// while the median step latency moved by 4 %. So the meter's throughput
// costs every step at the median latency of its kind — units ÷ Σ over
// kinds (steps of the kind × their median latency) — which is what the
// run would have taken had every step been a typical one of its kind. It
// holds as long as fewer than half of a kind's steps were interrupted.
// What it leaves out is every tail, the program's own too (collector
// pauses, waits for the server lock): those are reported per layer as a
// p99, and the plain wall-clock rate is printed beside it.
type meter struct {
	rssOf       func() float64 // resident memory of the process under test, MB
	sampleEvery int            // main steps between two memory samples

	byKind map[string][]float64 // step latencies (ms) per kind
	main   []float64            // latencies (ms) of the steps step_p50_ms is about
	units  uint64
	rss    []float64
}

// rssSamples is how many memory samples a run keeps: the first few, at
// fixed step counts, so that a process whose memory grows with the work
// it has done is sampled at the same amounts of work in every run.
const rssSamples = 8

func newMeter(sampleEvery int, rssOf func() float64) *meter {
	return &meter{rssOf: rssOf, sampleEvery: sampleEvery, byKind: map[string][]float64{}}
}

// step records one finished step. main marks the steps whose latency the
// step percentiles describe (every RunFor advance, every mutating op). A
// nil meter records nothing, which is how the warm-up runs the same code.
func (m *meter) step(kind string, lat time.Duration, units uint64, main bool) {
	if m == nil {
		return
	}
	ms := float64(lat) / 1e6
	m.byKind[kind] = append(m.byKind[kind], ms)
	m.units += units
	if !main {
		return
	}
	m.main = append(m.main, ms)
	if len(m.main)%m.sampleEvery == 0 && len(m.rss) < rssSamples {
		m.rss = append(m.rss, m.rssOf())
	}
}

// unitsPerSecond is the run's throughput with every step costed at the
// median latency of its kind.
func (m *meter) unitsPerSecond() float64 {
	var seconds float64
	for _, lats := range m.byKind {
		seconds += float64(len(lats)) * median(append([]float64(nil), lats...)) / 1e3
	}
	return ratio(float64(m.units), seconds)
}

// stepQuantile is a quantile of the main steps' latency, in ms.
func (m *meter) stepQuantile(q float64) float64 {
	return quantile(append([]float64(nil), m.main...), q)
}

// rssMedian is the median memory sample; a run too short for one sample
// takes one now.
func (m *meter) rssMedian() float64 {
	if len(m.rss) == 0 {
		return m.rssOf()
	}
	return median(append([]float64(nil), m.rss...))
}
