package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"flexnet/internal/packet"
)

// scriptedEvent is one event of a generated schedule. What it does when it
// fires is fixed in advance, so the simulator and the reference model run
// the same script.
type scriptedEvent struct {
	// delay is the root's absolute time, or a child's delay after the
	// event that schedules it fires.
	delay     Time
	packet    bool  // scheduled with AtPacket, otherwise with At
	cancelNow bool  // a general event cancelled as soon as it is scheduled
	kids      []int // scheduled when this event fires
	cancels   []int // general events this one cancels when it fires, if scheduled by then
}

// genSchedule draws a forest of up to 48 events on a six-tick clock, so
// same-instant ties, zero-delay children and cancellations are all common.
func genSchedule(rng *rand.Rand) (evs []scriptedEvent, roots []int) {
	evs = make([]scriptedEvent, 1+rng.Intn(48))
	for id := range evs {
		e := &evs[id]
		e.delay = Time(rng.Intn(6))
		e.packet = rng.Intn(2) == 0
		e.cancelNow = !e.packet && rng.Intn(6) == 0
		if id == 0 || rng.Intn(3) == 0 {
			roots = append(roots, id)
		} else {
			parent := &evs[rng.Intn(id)]
			parent.kids = append(parent.kids, id)
		}
	}
	for id := range evs {
		if target := rng.Intn(len(evs)); rng.Intn(4) == 0 && !evs[target].packet {
			evs[id].cancels = append(evs[id].cancels, target)
		}
	}
	return evs, roots
}

type firing struct {
	id int
	at Time
}

// modelRun is the reference: pending events stable-sorted by (at, seq),
// the first one fired (or skipped, if cancelled) and its script applied.
func modelRun(evs []scriptedEvent, roots []int) []firing {
	type pending struct {
		id  int
		at  Time
		seq int
	}
	var (
		queue     []pending
		fired     []firing
		seq       int
		scheduled = make([]bool, len(evs))
		cancelled = make([]bool, len(evs))
	)
	schedule := func(id int, base Time) {
		seq++
		queue = append(queue, pending{id, base + evs[id].delay, seq})
		scheduled[id] = true
		cancelled[id] = evs[id].cancelNow
	}
	for _, id := range roots {
		schedule(id, 0)
	}
	for len(queue) > 0 {
		slices.SortStableFunc(queue, func(a, b pending) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			return a.seq - b.seq
		})
		next := queue[0]
		queue = queue[1:]
		if cancelled[next.id] {
			continue
		}
		fired = append(fired, firing{next.id, next.at})
		for _, k := range evs[next.id].kids {
			schedule(k, next.at)
		}
		for _, c := range evs[next.id].cancels {
			if scheduled[c] {
				cancelled[c] = true
			}
		}
	}
	return fired
}

// simRun runs the script on a Sim: to the end with Run, or one tick at a
// time with RunUntil, which also reads the head of the queue.
func simRun(t *testing.T, evs []scriptedEvent, roots []int, stepwise bool) (*Sim, []firing) {
	s := New(1)
	var (
		fired    []firing
		handles  = make([]*Event, len(evs))
		pkts     = make([]*packet.Packet, len(evs))
		schedule func(id int, base Time)
	)
	fire := func(id int) {
		fired = append(fired, firing{id, s.Now()})
		for _, k := range evs[id].kids {
			schedule(k, s.Now())
		}
		for _, c := range evs[id].cancels {
			if handles[c] != nil {
				handles[c].Cancel()
			}
		}
	}
	onPacket := func(p *packet.Packet, id int) {
		if p != pkts[id] {
			t.Fatalf("packet event %d fired with packet %p, scheduled with %p", id, p, pkts[id])
		}
		fire(id)
	}
	schedule = func(id int, base Time) {
		at := base + evs[id].delay
		if evs[id].packet {
			pkts[id] = packet.New(uint64(id))
			s.AtPacket(at, onPacket, pkts[id], id)
			return
		}
		handles[id] = s.At(at, func() { fire(id) })
		if evs[id].cancelNow {
			handles[id].Cancel()
		}
	}
	for _, id := range roots {
		schedule(id, 0)
	}
	if stepwise {
		for tick := Time(0); len(s.queue) > 0; tick++ {
			s.RunUntil(tick)
		}
	} else {
		s.Run()
	}
	return s, fired
}

// TestEventOrderProperty: on seeded random schedules that mix cancellable
// At events, packet events, same-instant ties and events scheduled or
// cancelled from inside handlers, the simulator fires exactly what a
// stable sort by (at, seq) would, counts only what fired, and leaves
// nothing behind: after the drain every record slot is zero and on the
// free list exactly once, so no fired packet or closure is kept alive.
func TestEventOrderProperty(t *testing.T) {
	const schedules = 10_000
	for seed := int64(0); seed < schedules; seed++ {
		evs, roots := genSchedule(rand.New(rand.NewSource(seed)))
		want := modelRun(evs, roots)
		s, got := simRun(t, evs, roots, seed%2 == 1)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: fired (id, at) %v, reference model %v", seed, got, want)
		}
		if s.Processed != uint64(len(want)) {
			t.Fatalf("seed %d: Processed = %d, want %d (cancelled events excluded)", seed, s.Processed, len(want))
		}
		if len(s.queue) != 0 {
			t.Fatalf("seed %d: %d entries left after the drain", seed, len(s.queue))
		}
		for i, r := range s.slots[:cap(s.slots)] {
			if r.ev != nil || r.fn != nil || r.pkt != nil || r.arg != 0 {
				t.Fatalf("seed %d: record slot %d of the drained table still holds %+v", seed, i, r)
			}
		}
		freed := make([]bool, len(s.slots))
		for _, slot := range s.free {
			if freed[slot] {
				t.Fatalf("seed %d: slot %d is on the free list twice", seed, slot)
			}
			freed[slot] = true
		}
		if len(s.free) != len(s.slots) {
			t.Fatalf("seed %d: %d of %d record slots on the free list after the drain", seed, len(s.free), len(s.slots))
		}
	}
}

func TestSchedulePacketPastPanics(t *testing.T) {
	s := New(1)
	s.AtPacket(10, func(*packet.Packet, int) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling a packet event in the past did not panic")
			}
		}()
		s.AtPacket(5, func(*packet.Packet, int) {}, nil, 0)
	}, nil, 0)
	s.Run()
}

// TestPacketEventAllocFree: once the heap has its capacity, scheduling and
// firing a packet event allocates nothing, and neither does an Every tick.
func TestPacketEventAllocFree(t *testing.T) {
	s := New(1)
	fired := 0
	fn := func(*packet.Packet, int) { fired++ }
	pkt := packet.New(1)
	for i := 0; i < 64; i++ {
		s.AtPacket(s.Now(), fn, pkt, i)
	}
	s.Run()
	fired = 0
	if n := testing.AllocsPerRun(1000, func() {
		s.AtPacket(s.Now()+1, fn, pkt, 0)
		s.Run()
	}); n != 0 {
		t.Fatalf("schedule + fire of a packet event: %v allocations, want 0", n)
	}
	if fired != 1001 { // AllocsPerRun warms up with one extra call
		t.Fatalf("fired %d packet events, want 1001", fired)
	}

	ticks := 0
	s.Every(1, func() { ticks++ })
	s.RunFor(10)
	ticks = 0
	if n := testing.AllocsPerRun(1000, func() { s.RunFor(1) }); n != 0 {
		t.Fatalf("an Every tick: %v allocations, want 0", n)
	}
	if ticks != 1001 {
		t.Fatalf("ticked %d times, want 1001", ticks)
	}
}

// BenchmarkSimEvent times scheduling and firing one event, in the general
// form (a handle and a closure each) and in the packet form. Events are
// scheduled and run 250 at a time, so the queue is as deep as a
// workload's, as in benchmark/'s netsim.event_ns probe.
func BenchmarkSimEvent(b *testing.B) {
	const depth = 250
	run := func(b *testing.B, schedule func(s *Sim, d Time)) {
		s := New(1)
		for i := 1; i <= depth; i++ {
			schedule(s, Time(i))
		}
		s.RunFor(depth)
		b.ReportAllocs()
		b.ResetTimer()
		for left := b.N; left > 0; left -= depth {
			for i := 1; i <= min(left, depth); i++ {
				schedule(s, Time(i))
			}
			s.RunFor(depth)
		}
	}
	fired := 0
	b.Run("closure", func(b *testing.B) {
		run(b, func(s *Sim, d Time) { s.After(d, func() { fired++ }) })
	})
	b.Run("packet", func(b *testing.B) {
		fn := func(*packet.Packet, int) { fired++ }
		pkt := packet.New(1)
		run(b, func(s *Sim, d Time) { s.AtPacket(s.Now()+d, fn, pkt, 0) })
	})
}
