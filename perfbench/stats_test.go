package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7, 9}, 50); got != 7 {
		t.Errorf("p50 of two samples = %v, want the lower one", got)
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("p95 of nothing = %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean(2, 2, 2) = %v, want 2", got)
	}
	// Doubling a short query moves the geomean as much as doubling a long one.
	short := geomean([]float64{2, 400})
	long := geomean([]float64{1, 800})
	if math.Abs(short-long) > 1e-9 {
		t.Errorf("geomean weights queries unequally: %v vs %v", short, long)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestMillis(t *testing.T) {
	got := millis([]time.Duration{1500 * time.Microsecond, 2 * time.Second})
	if got[0] != 1.5 || got[1] != 2000 {
		t.Errorf("millis = %v, want [1.5 2000]", got)
	}
}
