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

// key is one queued event's place in Sim.queue: its time, its sequence
// number (the tie-break that makes equal-time events fire in schedule
// order) and the index of its record in Sim.slots. It holds no pointer,
// so the heap's sifts copy it with no GC write barrier.
type key struct {
	at   Time
	seq  uint64
	slot int32
}

func (k *key) before(o *key) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// record is what a queued event fires. A general event carries the
// handle At returned and fires ev.Fn(); a packet event (ev == nil) fires
// fn(pkt, arg) from arguments stored in the record itself, so scheduling
// and firing it allocates nothing. A record is written once, when its
// event is scheduled, and zeroed once, when it is popped.
type record struct {
	ev  *Event
	fn  func(*packet.Packet, int)
	pkt *packet.Packet
	arg int
}

// Sim is a discrete-event simulator instance.
//
// The zero value is not usable; create instances with New.
type Sim struct {
	now Time
	// queue is a binary min-heap of keys ordered by (at, seq); each names
	// its event's record in slots. free lists the slots no queued event
	// holds: they are zero, so a fired event's packet or closure is not
	// kept alive by the table.
	queue []key
	slots []record
	free  []int32
	seq   uint64
	rng   *rand.Rand
	// packets is the free list every packet on this simulator is taken
	// from and released to.
	packets packet.Pool

	// Processed counts events executed so far.
	Processed uint64
}

// New creates a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Packets returns the simulator's packet pool. Whoever creates a packet
// for this simulator takes it from the pool, and whoever ends its life —
// a drop, a delivery — releases it there.
func (s *Sim) Packets() *packet.Pool { return &s.packets }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) is an error that panics, since it indicates a causality bug
// in the caller rather than a recoverable condition.
func (s *Sim) At(at Time, fn func()) *Event {
	e := &Event{At: at, Fn: fn}
	s.schedule(at, record{ev: e})
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
	s.schedule(at, record{fn: fn, pkt: pkt, arg: arg})
}

// schedule files r in a free slot, stamps its key with the next sequence
// number and sifts the key up from the end of the heap, moving parents
// into the hole instead of swapping.
func (s *Sim) schedule(at Time, r record) {
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, s.now))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[slot] = r
	} else {
		slot = int32(len(s.slots))
		s.slots = append(s.slots, r)
	}
	s.seq++
	k := key{at: at, seq: s.seq, slot: slot}
	s.queue = append(s.queue, key{})
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
}

// pop removes the earliest event and returns its time and record: the
// record's slot is zeroed and freed, and the last key is sifted down
// from the root into the hole.
func (s *Sim) pop() (Time, record) {
	q := s.queue
	top := q[0]
	r := s.slots[top.slot]
	s.slots[top.slot] = record{}
	s.free = append(s.free, top.slot)
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top.at, r
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q[right].before(&q[child]) {
			child = right
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top.at, r
}

// ErrNoProgress is returned by RunUntil when the event queue drains before
// the horizon is reached.
var ErrNoProgress = errors.New("netsim: event queue empty before horizon")

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for len(s.queue) > 0 {
		s.step()
	}
}

// RunUntil executes events with timestamps <= horizon. It advances the
// clock exactly to horizon on success. If the queue empties earlier, the
// clock still advances to the horizon and ErrNoProgress is returned; this
// is often benign (e.g. traffic ended) but callers who expect a live
// network can detect stalls.
func (s *Sim) RunUntil(horizon Time) error {
	drained := false
	for {
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
	at, r := s.pop()
	if r.ev != nil && r.ev.dead {
		return
	}
	if at < s.now {
		panic("netsim: time went backwards")
	}
	s.now = at
	s.Processed++
	if r.ev != nil {
		r.ev.Fn()
		return
	}
	r.fn(r.pkt, r.arg)
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
