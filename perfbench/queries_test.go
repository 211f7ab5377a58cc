package main

import (
	"testing"

	"x100"
)

// TestQ15MatchesOracleInParallel checks that the stream's Q15 gives the
// MIL engine's answer at parallelism 2 on every run, whatever order the
// parallel aggregation sums in. At the benchmark's scale factor the
// engine's own Q15 plan fails this within a few runs.
func TestQ15MatchesOracleInParallel(t *testing.T) {
	const sf = tpchSF
	db, err := x100.GenerateTPCH(sf)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := streamPlan(15, sf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(plan, x100.WithEngine(x100.MIL))
	if err != nil {
		t.Fatal(err)
	}
	want := toAnswer(res)
	if len(want.rows) == 0 {
		t.Fatal("oracle returned no rows")
	}
	for i := range 100 {
		res, err := db.Exec(plan, x100.WithParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnswer(want, toAnswer(res)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
