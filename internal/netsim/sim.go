// Package netsim provides a deterministic discrete-event network simulator.
//
// The simulator is the substrate on which all FlexNet experiments run. It
// replaces the physical testbeds (programmable ASICs, SmartNICs, host
// kernels) used by the paper with a logical-time model that preserves the
// properties the paper's claims are about: event ordering, packet
// conservation, link capacity and delay, and device processing semantics.
//
// Determinism: all randomness is drawn from seeded sources owned by the
// simulation, and events with equal timestamps are ordered by a
// monotonically increasing sequence number, so a simulation with the same
// seed and inputs replays bit-for-bit.
//
// DESIGN.md §9 records why the simulator runs one event at a time.
package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is logical simulation time. It uses time.Duration resolution
// (nanoseconds) measured from the start of the simulation.
type Time = time.Duration

// Event is a scheduled callback in the simulation.
type Event struct {
	At   Time
	Fn   func()
	seq  uint64
	idx  int
	dead bool
}

// Cancel marks the event so it will not fire. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (e *Event) Cancel() { e.dead = true }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Sim is a discrete-event simulator instance.
//
// The zero value is not usable; create instances with New.
type Sim struct {
	now     Time
	queue   eventQueue
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// Processed counts events executed so far.
	Processed uint64
}

// New creates a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) is an error that panics, since it indicates a causality bug
// in the caller rather than a recoverable condition.
func (s *Sim) At(at Time, fn func()) *Event {
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, s.now))
	}
	s.seq++
	e := &Event{At: at, Fn: fn, seq: s.seq}
	heap.Push(&s.queue, e)
	return e
}

// After schedules fn to run after delay d from the current time.
func (s *Sim) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Stop halts the run loop after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// ErrNoProgress is returned by RunUntil when the event queue drains before
// the horizon is reached.
var ErrNoProgress = errors.New("netsim: event queue empty before horizon")

// Run executes events until the queue is empty or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for len(s.queue) > 0 && !s.stopped {
		s.step()
	}
}

// RunUntil executes events with timestamps <= horizon. It advances the
// clock exactly to horizon on success. If the queue empties earlier, the
// clock still advances to the horizon and ErrNoProgress is returned; this
// is often benign (e.g. traffic ended) but callers who expect a live
// network can detect stalls.
func (s *Sim) RunUntil(horizon Time) error {
	s.stopped = false
	drained := false
	for !s.stopped {
		if len(s.queue) == 0 {
			drained = true
			break
		}
		if s.queue[0].At > horizon {
			break
		}
		s.step()
	}
	if s.now < horizon {
		s.now = horizon
	}
	if drained {
		return ErrNoProgress
	}
	return nil
}

// RunFor advances the simulation by d from the current time.
func (s *Sim) RunFor(d Time) error { return s.RunUntil(s.now + d) }

func (s *Sim) step() {
	e := heap.Pop(&s.queue).(*Event)
	if e.dead {
		return
	}
	if e.At < s.now {
		panic("netsim: time went backwards")
	}
	s.now = e.At
	s.Processed++
	e.Fn()
}

// Every schedules fn to run at the given period until the returned Ticker
// is stopped. The first invocation happens one period from now.
type Ticker struct {
	stop bool
}

// Stop prevents further ticks.
func (t *Ticker) Stop() { t.stop = true }

// Every creates a recurring event with the given period. A period <= 0
// panics: it would livelock the simulator at a single instant.
func (s *Sim) Every(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("netsim: Every with non-positive period")
	}
	t := &Ticker{}
	var tick func()
	tick = func() {
		if t.stop {
			return
		}
		fn()
		if !t.stop {
			s.After(period, tick)
		}
	}
	s.After(period, tick)
	return t
}
