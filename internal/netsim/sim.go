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
	"errors"
	"fmt"
	"math/rand"
	"time"

	"flexnet/internal/packet"
)

// Time is logical simulation time. It uses time.Duration resolution
// (nanoseconds) measured from the start of the simulation.
type Time = time.Duration

// Event is the handle of a callback scheduled with At or After: what the
// caller keeps to Cancel it.
type Event struct {
	At   Time
	Fn   func()
	dead bool
}

// Cancel marks the event so it will not fire. Cancelling an already-fired
// or already-cancelled event is a no-op.
func (e *Event) Cancel() { e.dead = true }

// entry is one queued event, held by value in Sim.queue and ordered by
// (at, seq). A general event carries the handle At returned and fires
// ev.Fn(); a packet event (ev == nil) fires fn(pkt, arg) from arguments
// stored in the entry itself, so scheduling and firing it allocates
// nothing.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
	fn  func(*packet.Packet, int)
	pkt *packet.Packet
	arg int
}

func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Sim is a discrete-event simulator instance.
//
// The zero value is not usable; create instances with New.
type Sim struct {
	now Time
	// queue is a binary min-heap of entries; slots past len are zero, so
	// a fired event's packet is not kept alive by the backing array.
	queue   []entry
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
	e := &Event{At: at, Fn: fn}
	s.schedule(entry{at: at, ev: e})
	return e
}

// After schedules fn to run after delay d from the current time.
func (s *Sim) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtPacket schedules fn(pkt, arg) at absolute time at. It is At for the
// events that occur once per packet or per tick: there is no handle to
// cancel, and with fn bound once (per link direction, per switch, per
// source) rather than closed over the packet, nothing is allocated. pkt
// may be nil. Scheduling in the past panics, as in At.
func (s *Sim) AtPacket(at Time, fn func(*packet.Packet, int), pkt *packet.Packet, arg int) {
	s.schedule(entry{at: at, fn: fn, pkt: pkt, arg: arg})
}

// schedule stamps e with the next sequence number and sifts it up from
// the end of the heap, moving parents into the hole instead of swapping.
func (s *Sim) schedule(e entry) {
	if e.at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", e.at, s.now))
	}
	s.seq++
	e.seq = s.seq
	s.queue = append(s.queue, entry{})
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// pop removes and returns the earliest entry: the last entry is sifted
// down from the root into the hole, and the slot it vacated is zeroed.
func (s *Sim) pop() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
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
		if s.queue[0].at > horizon {
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
	e := s.pop()
	if e.ev != nil && e.ev.dead {
		return
	}
	if e.at < s.now {
		panic("netsim: time went backwards")
	}
	s.now = e.at
	s.Processed++
	if e.ev != nil {
		e.ev.Fn()
		return
	}
	e.fn(e.pkt, e.arg)
}

// Ticker is the handle of a recurring event created by Every.
type Ticker struct {
	stop bool
	// tick is the ticker's one event handler, bound at Every so that
	// rescheduling it each period allocates nothing.
	tick func(*packet.Packet, int)
}

// Stop prevents further ticks.
func (t *Ticker) Stop() { t.stop = true }

// Every schedules fn to run at the given period until the returned Ticker
// is stopped. The first invocation happens one period from now. A period
// <= 0 panics: it would livelock the simulator at a single instant.
func (s *Sim) Every(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("netsim: Every with non-positive period")
	}
	t := &Ticker{}
	t.tick = func(*packet.Packet, int) {
		if t.stop {
			return
		}
		fn()
		if !t.stop {
			s.AtPacket(s.now+period, t.tick, nil, 0)
		}
	}
	s.AtPacket(s.now+period, t.tick, nil, 0)
	return t
}
