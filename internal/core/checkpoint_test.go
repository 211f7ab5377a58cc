package core

import (
	"fmt"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/vector"
)

func deltaTestDB(t *testing.T, n int) *Database {
	t.Helper()
	db := NewDatabase()
	tab := colstore.NewTable("ev")
	keys := make([]int32, n)
	vals := make([]float64, n)
	tags := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int32(i)
		vals[i] = float64(i % 13)
		tags[i] = []string{"a", "b", "c"}[i%3]
	}
	if err := tab.AddColumn("k", vector.Int32, keys); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("v", vector.Float64, vals); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddEnumColumn("tag", tags); err != nil {
		t.Fatal(err)
	}
	db.AddTable(tab)
	return db
}

func evPlan(t *testing.T) algebra.Node {
	t.Helper()
	plan, err := algebra.Parse(`Aggr(Scan(ev), [tag], [n = count(), s = sum(v), mk = max(k)])`)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func runSorted(t *testing.T, db *Database, plan algebra.Node, parallelism int) map[string][]any {
	t.Helper()
	opts := DefaultOptions()
	opts.Parallelism = parallelism
	res, err := Run(db, plan, opts)
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	out := map[string][]any{}
	for i := 0; i < res.NumRows(); i++ {
		row := res.Row(i)
		out[fmt.Sprint(row[0])] = row[1:]
	}
	return out
}

// sameGroups asserts two runSorted results hold the same groups with the
// same aggregate values.
func sameGroups(t *testing.T, label string, want, got map[string][]any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: group sets differ: %v vs %v", label, got, want)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: group %q missing", label, k)
		}
		for c := range w {
			if fmt.Sprint(g[c]) != fmt.Sprint(w[c]) {
				t.Fatalf("%s: group %q col %d: %v vs %v", label, k, c, g[c], w[c])
			}
		}
	}
}

// TestParallelScanWithInsertDeltas asserts a table with pending insert
// deltas executes partitioned — the delta rows are one more morsel range —
// with results identical to the serial scan, that no query absorbs the
// delta, and that an explicit Checkpoint leaves the answer unchanged.
func TestParallelScanWithInsertDeltas(t *testing.T) {
	const n = 5000
	db := deltaTestDB(t, n)
	ds, _ := db.Delta("ev")
	for i := 0; i < 500; i++ {
		// New enum value "d" exercises a dictionary value first seen in
		// the delta, before and after the checkpoint.
		tag := []string{"a", "d"}[i%2]
		if _, err := ds.Insert([]any{int32(n + i), float64(100 + i%7), tag}); err != nil {
			t.Fatal(err)
		}
	}
	plan := evPlan(t)
	serial := runSorted(t, db, plan, 1)
	for _, p := range []int{4, 8} {
		sameGroups(t, fmt.Sprintf("p=%d", p), serial, runSorted(t, db, plan, p))
	}
	tab, _ := db.Table("ev")
	if ds.NumDeltaRows() != 500 || tab.N != n {
		t.Fatalf("queries must leave the delta pending: %d delta rows, base N=%d", ds.NumDeltaRows(), tab.N)
	}
	if done, err := db.Checkpoint("ev"); err != nil || !done {
		t.Fatalf("checkpoint: done=%v err=%v", done, err)
	}
	if ds.NumDeltaRows() != 0 {
		t.Fatalf("checkpoint left %d delta rows", ds.NumDeltaRows())
	}
	for _, p := range []int{1, 4} {
		sameGroups(t, fmt.Sprintf("checkpointed p=%d", p), serial, runSorted(t, db, plan, p))
	}
}

// TestParallelScanWithDeletions asserts deletion lists are honored by the
// partitioned (selection-vector) scan path at any parallelism.
func TestParallelScanWithDeletions(t *testing.T) {
	const n = 5000
	db := deltaTestDB(t, n)
	ds, _ := db.Delta("ev")
	for i := 0; i < n; i += 3 {
		if err := ds.Delete(int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	plan := evPlan(t)
	serial := runSorted(t, db, plan, 1)
	for _, p := range []int{2, 4, 8} {
		sameGroups(t, fmt.Sprintf("p=%d", p), serial, runSorted(t, db, plan, p))
	}
	// Sanity: deletions actually removed rows (count per group shrank).
	total := 0
	for _, row := range serial {
		total += int(row[0].(int64))
	}
	if want := n - (n+2)/3; total != want {
		t.Fatalf("visible rows %d, want %d", total, want)
	}
}

// TestCheckpointThenDeleteRowIDsStable asserts checkpoint keeps row ids
// valid: a row id captured before the checkpoint deletes the same logical
// row after it.
func TestCheckpointThenDeleteRowIDsStable(t *testing.T) {
	db := deltaTestDB(t, 10)
	ds, _ := db.Delta("ev")
	id, err := ds.Insert([]any{int32(10), 42.0, "a"})
	if err != nil {
		t.Fatal(err)
	}
	if done, err := db.Checkpoint("ev"); err != nil || !done {
		t.Fatalf("checkpoint: done=%v err=%v", done, err)
	}
	if err := ds.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := ds.NumRows(); got != 10 {
		t.Fatalf("visible rows %d, want 10", got)
	}
	res, err := Run(db, mustParse(t, `Aggr(Scan(ev), [], [mk = max(k)])`), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if mk := res.Row(0)[0]; fmt.Sprint(mk) != "9" {
		t.Fatalf("max k = %v after deleting checkpointed row, want 9", mk)
	}
}

func mustParse(t *testing.T, s string) algebra.Node {
	t.Helper()
	plan, err := algebra.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
