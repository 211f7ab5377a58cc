package main

import "time"

// clock is the time source of the open-loop generator; tests substitute a
// simulated one so a stall can be placed exactly.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoopStats is what one open-loop run measured.
type openLoopStats struct {
	// latency of each operation, from the time it was due to its return.
	latency []time.Duration
	// lateness of each operation: how long after its due time it started.
	// It is the generator running behind, which a closed loop would hide.
	lateness []time.Duration
}

// openLoop issues op(0), op(1), ... at a fixed interval from the first
// call, until the next operation would be due at or after until. Operation
// i is due at start + i*interval whether or not operation i-1 has finished,
// and its latency counts from that due time: a stall shows in the latency
// of every operation that fell due during it, not only in the one that
// stalled. The first error from op stops the loop and is returned.
func openLoop(clk clock, interval time.Duration, until time.Time, op func(i int) error) (openLoopStats, error) {
	var st openLoopStats
	start := clk.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			return st, nil
		}
		clk.SleepUntil(due)
		st.lateness = append(st.lateness, clk.Now().Sub(due))
		if err := op(i); err != nil {
			return st, err
		}
		st.latency = append(st.latency, clk.Now().Sub(due))
	}
}
