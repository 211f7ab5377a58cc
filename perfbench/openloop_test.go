package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a simulated clock: sleeping and working only move its hand.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopStallShowsInLaterLatency(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const interval = time.Millisecond
	until := clk.now.Add(50 * interval)
	st, err := openLoop(clk, interval, until, func(i int) error {
		work := 100 * time.Microsecond
		if i == 5 {
			work = 20 * time.Millisecond // the stall
		}
		clk.now = clk.now.Add(work)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Open loop: the stall does not reduce how many writes are sent.
	if len(st.latency) != 50 {
		t.Fatalf("%d operations issued, want 50", len(st.latency))
	}
	if got := st.latency[4]; got != 100*time.Microsecond {
		t.Errorf("latency before the stall = %v, want 100µs", got)
	}
	if got := st.latency[5]; got != 20*time.Millisecond {
		t.Errorf("stalled latency = %v, want 20ms", got)
	}
	// Operation 6 was due 1ms after the stalled one began, so it waited
	// 19ms before it could start and its latency counts that wait.
	if got, want := st.latency[6], 19*time.Millisecond+100*time.Microsecond; got != want {
		t.Errorf("latency after the stall = %v, want %v", got, want)
	}
	if got := st.lateness[6]; got != 19*time.Millisecond {
		t.Errorf("lateness after the stall = %v, want 19ms", got)
	}
	// The backlog drains by 0.9ms per operation: 21 more are still late.
	for i := 7; i < 27; i++ {
		if st.latency[i] <= 100*time.Microsecond {
			t.Errorf("operation %d latency %v does not show the stall's backlog", i, st.latency[i])
		}
	}
	if got := st.latency[49]; got != 100*time.Microsecond {
		t.Errorf("latency once caught up = %v, want 100µs", got)
	}
}

func TestOpenLoopStopsAtFirstError(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	boom := errors.New("boom")
	st, err := openLoop(clk, time.Millisecond, clk.now.Add(time.Second), func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(st.latency) != 3 {
		t.Fatalf("%d latencies recorded, want 3", len(st.latency))
	}
}
