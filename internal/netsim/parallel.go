package netsim

import (
	"container/heap"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file implements the sharded parallel execution engine: between
// discrete-event barriers of the simulated clock, batches of two-phase
// ("compute"/"apply") events run on a worker pool, one serialization
// domain ("shard") per device.
//
// Determinism contract. Event execution is split so that parallelism is
// invisible to the simulation:
//
//   - The compute phase of an event may read and write only state owned
//     by its shard (plus state that is immutable for the duration of the
//     batch). It must not touch the event queue, shared counters, or
//     another shard's state. Computes of the same shard run sequentially
//     in schedule (seq) order; computes of different shards may run
//     concurrently on the worker pool.
//   - The apply phase runs on the event loop, after every compute of the
//     batch has finished, in schedule (seq) order. All event scheduling
//     and all mutation of shared state happens here.
//
// A batch is the maximal run of *consecutive* two-phase events at the
// head of the queue with the same timestamp. An interleaved ordinary
// event (by seq) terminates the batch, so ordinary events never observe
// a half-applied batch and the total order of side effects is exactly
// the order a fully serial simulator would produce. Batch composition
// depends only on the queue contents — never on the worker count — and
// every worker count executes the same phases in the same order, so a
// simulation's outputs are byte-identical for any SetWorkers value.

// Worker is one execution slot of the barrier worker pool. Computes
// running on the same Worker never overlap, so shard computes may use
// Scratch as reusable per-worker state (the fabric stores a per-worker
// FlexBPF ExecContext here). Worker slots persist for the lifetime of
// the Sim.
type Worker struct {
	// ID is the slot index in [0, Workers()).
	ID int
	// Scratch is arbitrary per-worker state, lazily created by the
	// embedding layer.
	Scratch any
}

// Compute is the first phase of a two-phase event. It runs with the
// clock frozen at the event's timestamp, possibly on a worker goroutine,
// and must confine itself to its shard's state. The returned apply
// closure (which may be nil) runs later on the event loop and performs
// the event's shared side effects: scheduling, counter updates,
// deliveries.
type Compute func(w *Worker) (apply func())

// minParallelBatch is the smallest batch worth fanning out to worker
// goroutines; smaller batches run inline on the event loop. The
// threshold depends only on batch size, which is deterministic, so it
// never affects simulation output.
const minParallelBatch = 4

// batchItem is one event of a batch plus its position, which fixes the
// order applies run in.
type batchItem struct {
	e   *Event
	pos int32
}

// shardGroup is the ordered list of a single shard's events within one
// batch. Groups are the unit of work claimed by workers.
type shardGroup struct {
	shard int
	items []batchItem
}

// NewShard reserves a new shard identifier. A shard is a serialization
// domain for two-phase events: computes of the same shard never run
// concurrently.
func (s *Sim) NewShard() int {
	id := s.nextShard
	s.nextShard++
	return id
}

// Shards returns the number of reserved shards.
func (s *Sim) Shards() int { return s.nextShard }

// SetWorkers sets the size of the worker pool used for batch computes.
// n <= 0 selects runtime.GOMAXPROCS(0). Returns the effective count.
// The worker count never changes simulation output, only wall-clock
// speed.
func (s *Sim) SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.workers = n
	return n
}

// Workers returns the current worker pool size.
func (s *Sim) Workers() int { return s.workers }

// OnBatchEnd registers fn to run on the event loop after each batch's
// apply phase. The fabric uses it to merge shard-local telemetry buffers
// in fixed device order.
func (s *Sim) OnBatchEnd(fn func()) { s.onBatchEnd = fn }

// AtShard schedules a two-phase event at absolute time at on the given
// shard. Like At, scheduling in the past panics. The compute phase runs
// when the clock reaches at, serialized with all other events of the
// same shard; see the package comment on Compute for the phase rules.
func (s *Sim) AtShard(at Time, shard int, compute Compute) *Event {
	if compute == nil {
		panic("netsim: AtShard with nil compute")
	}
	if shard < 0 || shard >= s.nextShard {
		panic(fmt.Sprintf("netsim: AtShard on unreserved shard %d (have %d)", shard, s.nextShard))
	}
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", at, s.now))
	}
	s.seq++
	e := &Event{At: at, seq: s.seq, shard: int32(shard), compute: compute}
	heap.Push(&s.queue, e)
	return e
}

// collectBatch pops the maximal run of consecutive live two-phase events
// sharing first's timestamp into s.batch. Dead events encountered at the
// same timestamp are discarded (exactly as the serial loop would).
func (s *Sim) collectBatch(first *Event) {
	s.batch = append(s.batch[:0], first)
	for len(s.queue) > 0 {
		h := s.queue[0]
		if h.At != first.At || (!h.dead && h.compute == nil) {
			break
		}
		heap.Pop(&s.queue)
		if !h.dead {
			s.batch = append(s.batch, h)
		}
	}
}

// runBatch executes s.batch: computes grouped by shard (parallel across
// shards when profitable), then applies in schedule order, then the
// batch-end hook.
func (s *Sim) runBatch() {
	batch := s.batch
	s.Processed += uint64(len(batch))

	if cap(s.applies) < len(batch) {
		s.applies = make([]func(), len(batch))
	}
	applies := s.applies[:len(batch)]

	// Group events by shard in first-appearance order, preserving
	// within-shard schedule order. groupOf maps shard → group index+1
	// for the duration of the batch; buffers are reused across batches.
	groups := s.groups[:0]
	for i, e := range batch {
		sh := int(e.shard)
		for sh >= len(s.groupOf) {
			s.groupOf = append(s.groupOf, 0)
		}
		gi := s.groupOf[sh]
		if gi == 0 {
			if len(groups) < cap(groups) {
				groups = groups[:len(groups)+1]
				groups[len(groups)-1].shard = sh
				groups[len(groups)-1].items = groups[len(groups)-1].items[:0]
			} else {
				groups = append(groups, shardGroup{shard: sh})
			}
			gi = int32(len(groups))
			s.groupOf[sh] = gi
		}
		g := &groups[gi-1]
		g.items = append(g.items, batchItem{e: e, pos: int32(i)})
	}
	s.groups = groups

	if s.workers > 1 && len(groups) > 1 && len(batch) >= minParallelBatch {
		s.runGroupsParallel(groups, applies)
	} else {
		w := s.workerSlot(0)
		for gi := range groups {
			s.runGroup(w, &groups[gi], applies)
		}
	}

	for gi := range groups {
		s.groupOf[groups[gi].shard] = 0
	}

	// Apply phase: schedule order, on the event loop.
	for i, apply := range applies {
		applies[i] = nil
		if apply != nil {
			apply()
		}
	}
	if s.onBatchEnd != nil {
		s.onBatchEnd()
	}
}

func (s *Sim) runGroup(w *Worker, g *shardGroup, applies []func()) {
	for _, it := range g.items {
		applies[it.pos] = it.e.compute(w)
	}
}

// workerSlot returns the i-th persistent worker slot, creating slots on
// demand so Scratch survives across batches.
func (s *Sim) workerSlot(i int) *Worker {
	for len(s.workerSlots) <= i {
		s.workerSlots = append(s.workerSlots, &Worker{ID: len(s.workerSlots)})
	}
	return s.workerSlots[i]
}

type workerPanic struct {
	val   any
	stack []byte
}

// runGroupsParallel fans shard groups out to min(workers, len(groups))
// goroutines. Goroutines are spawned per batch rather than kept in a
// persistent pool: simulations are created in large numbers by tests and
// experiments, and a pool would leak goroutines per Sim; the spawn cost
// is amortized by the minParallelBatch threshold.
func (s *Sim) runGroupsParallel(groups []shardGroup, applies []func()) {
	nw := s.workers
	if nw > len(groups) {
		nw = len(groups)
	}
	panics := make([]*workerPanic, nw)
	var next atomic.Int32
	var wg sync.WaitGroup
	run := func(w *Worker, slot int) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panics[slot] = &workerPanic{val: r, stack: debug.Stack()}
			}
		}()
		for {
			gi := int(next.Add(1)) - 1
			if gi >= len(groups) {
				return
			}
			s.runGroup(w, &groups[gi], applies)
		}
	}
	wg.Add(nw)
	for i := 1; i < nw; i++ {
		go run(s.workerSlot(i), i)
	}
	run(s.workerSlot(0), 0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("netsim: panic in sharded compute: %v\n%s", p.val, p.stack))
		}
	}
}
