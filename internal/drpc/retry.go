package drpc

import (
	"errors"
	"fmt"
	"math/rand"

	"flexnet/internal/packet"
)

// ErrTimeout is returned (wrapped) by CallOpt when every attempt's
// per-attempt deadline expired without a reply.
var ErrTimeout = errors.New("drpc: call timed out")

// CallOpts parameterize a reliable call: a per-attempt reply deadline
// and a capped-exponential retry policy. All durations are simulated
// nanoseconds. See DESIGN.md §10 for the at-most-once semantics.
type CallOpts struct {
	// TimeoutNs is the per-attempt reply deadline. Zero disables the
	// timeout machinery entirely (CallOpt degrades to Call).
	TimeoutNs uint64
	// Attempts is the total number of send attempts, including the
	// first (minimum 1).
	Attempts int
	// BackoffNs is the base gap between a timeout and the resend. It
	// doubles on every retry, is capped at MaxBackoffNs, and carries
	// deterministic jitter in [backoff/2, backoff) drawn from a
	// router-local source seeded by the router's IP — reproducible at
	// a seed, but desynchronized across routers.
	BackoffNs uint64
	// MaxBackoffNs caps the exponential growth (0 = uncapped).
	MaxBackoffNs uint64
}

// Verdict is an interceptor's decision about one outgoing packet.
type Verdict struct {
	// Drop discards the packet (counted, never sent).
	Drop bool
	// DelayNs holds the packet back before sending.
	DelayNs uint64
	// Duplicate sends a clone in addition to the original.
	Duplicate bool
}

// Interceptor inspects every packet this router transmits (requests,
// replies, and notifications) and may drop, delay, or duplicate it.
// The fault plane installs these to model lossy control channels
// (internal/faults); a nil interceptor is the fast path.
type Interceptor func(p *packet.Packet) Verdict

// SetInterceptor installs (or clears, with nil) the transmit
// interceptor.
func (r *Router) SetInterceptor(ic Interceptor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.icept = ic
}

// transmit is the single egress point: it applies the interceptor (if
// any) and hands the packet to the transport.
func (r *Router) transmit(p *packet.Packet) {
	r.mu.Lock()
	ic := r.icept
	r.mu.Unlock()
	if ic == nil {
		r.send(p)
		return
	}
	v := ic(p)
	if v.Drop {
		r.mu.Lock()
		r.Dropped++
		r.mu.Unlock()
		r.pool.Release(p)
		return
	}
	if v.Duplicate {
		r.mu.Lock()
		r.Duplicated++
		r.mu.Unlock()
		dup := r.pool.Clone(p)
		if v.DelayNs > 0 {
			r.after(v.DelayNs, func() { r.send(dup) })
		} else {
			r.send(dup)
		}
	}
	if v.DelayNs > 0 {
		r.mu.Lock()
		r.Delayed++
		r.mu.Unlock()
		r.after(v.DelayNs, func() { r.send(p) })
		return
	}
	r.send(p)
}

// jitterLocked draws a deterministic jitter in [0, span) from the
// router-local source. Caller holds r.mu.
func (r *Router) jitterLocked(span uint64) uint64 {
	if span == 0 {
		return 0
	}
	if r.jrng == nil {
		// Seeded from the router's address: reproducible at a seed,
		// but different routers retry at different offsets.
		r.jrng = rand.New(rand.NewSource(int64(r.IP)*2654435761 + 1))
	}
	return uint64(r.jrng.Int63n(int64(span)))
}

// CallOpt sends a request with a per-attempt timeout and capped
// exponential backoff retries. All attempts share one call ID, so a
// late reply to an earlier attempt completes the call and any further
// replies count as orphans — the completion is at-most-once even though
// the request may be delivered (and served) more than once. cb receives
// the reply, its success bit, and a nil error; on exhaustion it receives
// a zero Message, false, and an error wrapping ErrTimeout. With
// TimeoutNs == 0 this degrades to a plain Call.
func (r *Router) CallOpt(dst uint32, service, method uint64, args [3]uint64, opts CallOpts, cb func(Message, bool, error)) {
	if opts.TimeoutNs == 0 {
		r.Call(dst, service, method, args, func(m Message, ok bool) {
			if cb != nil {
				cb(m, ok, nil)
			}
		})
		return
	}
	if opts.Attempts < 1 {
		opts.Attempts = 1
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID<<16 | uint64(r.IP)&0xffff
	r.pending[id] = func(m Message, ok bool) {
		if cb != nil {
			cb(m, ok, nil)
		}
	}
	r.CallsSent++
	r.mu.Unlock()

	m := Message{Service: service, Method: method, CallID: id, Args: args}
	attempt := 1
	send := func(first bool) {
		if !first {
			// A reply may have landed during the backoff wait; if so
			// the call is settled and the resend would only add noise.
			r.mu.Lock()
			_, still := r.pending[id]
			r.mu.Unlock()
			if !still {
				return
			}
		}
		r.transmit(r.newPacket(dst, m))
	}
	var arm func()
	arm = func() {
		r.after(opts.TimeoutNs, func() {
			r.mu.Lock()
			if _, still := r.pending[id]; !still {
				r.mu.Unlock()
				return // reply arrived in time
			}
			if attempt >= opts.Attempts {
				delete(r.pending, id)
				r.Timeouts++
				r.mu.Unlock()
				if cb != nil {
					cb(Message{}, false, fmt.Errorf("drpc: service %d method %d to %d: %w after %d attempts", service, method, dst, ErrTimeout, attempt))
				}
				return
			}
			attempt++
			r.Retries++
			r.CallsSent++
			backoff := opts.BackoffNs << uint(attempt-2) // first retry waits the base
			if opts.MaxBackoffNs > 0 && backoff > opts.MaxBackoffNs {
				backoff = opts.MaxBackoffNs
			}
			wait := backoff/2 + r.jitterLocked(backoff/2)
			r.mu.Unlock()
			r.after(wait, func() {
				send(false)
				arm()
			})
		})
	}
	send(true)
	arm()
}
