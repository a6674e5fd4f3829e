package netsim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO at %d: got %d", i, v)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New(1)
	var at Time
	s.After(5*time.Millisecond, func() {
		s.After(7*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 12*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 12ms", at)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	e := s.At(time.Millisecond, func() { ran = true })
	e.Cancel()
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New(1)
	count := 0
	s.Every(10*time.Millisecond, func() { count++ })
	if err := s.RunUntil(105 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if s.Now() != 105*time.Millisecond {
		t.Fatalf("clock = %v, want 105ms", s.Now())
	}
}

func TestRunUntilDrained(t *testing.T) {
	s := New(1)
	s.At(time.Millisecond, func() {})
	err := s.RunUntil(time.Second)
	if err != ErrNoProgress {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if s.Now() != time.Second {
		t.Fatalf("clock should advance to horizon, got %v", s.Now())
	}
}

func TestTickerStop(t *testing.T) {
	s := New(1)
	count := 0
	var tk *Ticker
	tk = s.Every(time.Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if count != 3 {
		t.Fatalf("ticker ran %d times after Stop at 3", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5*time.Millisecond, func() {})
	})
	s.Run()
}

func TestEveryNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	New(1).Every(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var samples []int64
		s.Every(time.Millisecond, func() {
			samples = append(samples, s.Rand().Int63n(1000))
		})
		s.RunUntil(20 * time.Millisecond)
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
