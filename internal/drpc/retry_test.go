package drpc

import (
	"errors"
	"testing"
	"time"

	"flexnet/internal/netsim"
	"flexnet/internal/packet"
)

// testCallOpts is a reliable-call policy for loopback RTTs: 5 ms per
// attempt, 4 attempts, 1 ms base backoff capped at 8 ms.
var testCallOpts = CallOpts{TimeoutNs: 5_000_000, Attempts: 4, BackoffNs: 1_000_000, MaxBackoffNs: 8_000_000}

// simLoopback is loopback() with b serving pings.
func simLoopback(t *testing.T) (*netsim.Sim, *Router, *Router) {
	t.Helper()
	sim, a, b := loopback()
	if err := b.Register(ServicePing, PingHandler()); err != nil {
		t.Fatal(err)
	}
	return sim, a, b
}

// Losing the first attempt must not lose the call: the retry succeeds
// and the caller sees exactly one completion.
func TestCallOptRetriesAfterDrop(t *testing.T) {
	sim, a, _ := simLoopback(t)
	drops := 1
	a.SetInterceptor(func(p *packet.Packet) Verdict {
		if drops > 0 {
			drops--
			return Verdict{Drop: true}
		}
		return Verdict{}
	})
	completions := 0
	var got uint64
	a.CallOpt(2, ServicePing, 0, [3]uint64{42, 0, 0}, testCallOpts, func(m Message, ok bool, err error) {
		completions++
		if !ok || err != nil {
			t.Fatalf("retry failed: ok=%v err=%v", ok, err)
		}
		got = m.Args[0]
	})
	sim.RunFor(100 * time.Millisecond)
	if completions != 1 || got != 42 {
		t.Fatalf("completions=%d got=%d", completions, got)
	}
	if a.Retries != 1 || a.Dropped != 1 || a.Timeouts != 0 {
		t.Fatalf("retries=%d dropped=%d timeouts=%d", a.Retries, a.Dropped, a.Timeouts)
	}
}

// When every attempt is lost the caller gets ErrTimeout, once.
func TestCallOptExhaustion(t *testing.T) {
	sim, a, b := simLoopback(t)
	a.SetInterceptor(func(p *packet.Packet) Verdict { return Verdict{Drop: true} })
	completions := 0
	var gotErr error
	a.CallOpt(2, ServicePing, 0, [3]uint64{1, 0, 0}, testCallOpts, func(m Message, ok bool, err error) {
		completions++
		if ok {
			t.Fatal("ok despite total loss")
		}
		gotErr = err
	})
	sim.RunFor(time.Second)
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if a.Timeouts != 1 || a.Retries != 3 {
		t.Fatalf("timeouts=%d retries=%d", a.Timeouts, a.Retries)
	}
	if b.CallsServed != 0 {
		t.Fatalf("server saw %d calls", b.CallsServed)
	}
}

// A duplicated request is served twice but completes the call once; the
// extra reply is an orphan, not a second completion.
func TestCallOptDuplicateAtMostOnce(t *testing.T) {
	sim, a, b := simLoopback(t)
	first := true
	a.SetInterceptor(func(p *packet.Packet) Verdict {
		if first {
			first = false
			return Verdict{Duplicate: true}
		}
		return Verdict{}
	})
	completions := 0
	a.CallOpt(2, ServicePing, 0, [3]uint64{9, 0, 0}, testCallOpts, func(m Message, ok bool, err error) {
		completions++
		if !ok || err != nil {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	})
	sim.RunFor(100 * time.Millisecond)
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	if b.CallsServed != 2 {
		t.Fatalf("served = %d, want 2 (original + duplicate)", b.CallsServed)
	}
	if a.OrphanReplies != 1 {
		t.Fatalf("orphans = %d, want 1", a.OrphanReplies)
	}
}

// With TimeoutNs == 0 CallOpt degrades to a plain Call: the reply
// completes it synchronously, and a lost request is neither retried nor
// timed out.
func TestCallOptWithoutTimeout(t *testing.T) {
	sim, a, _ := simLoopback(t)
	opts := testCallOpts
	opts.TimeoutNs = 0
	done := false
	a.CallOpt(2, ServicePing, 0, [3]uint64{5, 0, 0}, opts, func(m Message, ok bool, err error) {
		done = ok && err == nil && m.Args[0] == 5
	})
	if !done {
		t.Fatal("call without a timeout did not complete synchronously")
	}
	a.SetInterceptor(func(*packet.Packet) Verdict { return Verdict{Drop: true} })
	settled := false
	a.CallOpt(2, ServicePing, 0, [3]uint64{6, 0, 0}, opts, func(Message, bool, error) { settled = true })
	sim.RunFor(100 * time.Millisecond)
	if settled || a.Retries != 0 || a.Timeouts != 0 {
		t.Fatalf("lost call without a timeout: settled=%v retries=%d timeouts=%d", settled, a.Retries, a.Timeouts)
	}
}

// Delay verdicts hold packets back on the simulated clock.
func TestInterceptorDelay(t *testing.T) {
	sim, a, _ := simLoopback(t)
	a.SetInterceptor(func(p *packet.Packet) Verdict {
		return Verdict{DelayNs: uint64(2 * time.Millisecond)}
	})
	var doneAt time.Duration
	a.CallOpt(2, ServicePing, 0, [3]uint64{1, 0, 0}, testCallOpts, func(m Message, ok bool, err error) {
		doneAt = sim.Now()
	})
	sim.RunFor(100 * time.Millisecond)
	// Only a's egress is intercepted: the request is held 2ms, the
	// reply comes straight back.
	if doneAt < 2*time.Millisecond {
		t.Fatalf("completed at %v, expected ≥2ms of injected delay", doneAt)
	}
	if a.Delayed == 0 {
		t.Fatal("no delayed packets counted")
	}
}
