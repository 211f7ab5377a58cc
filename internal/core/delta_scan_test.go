package core

import (
	"fmt"
	"strings"
	"testing"

	"x100/internal/algebra"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/expr"
	"x100/internal/vector"
)

// deltaCase is a table with pending writes and the plans checked over it.
type deltaCase struct {
	name  string
	table string
	// db builds the database and applies the pending inserts and deletes.
	db    func(t *testing.T) *Database
	plans []algebra.Node
}

// insertEv appends n rows to deltaTestDB's "ev" table, keys continuing
// after the base, tags cycling through tags.
func insertEv(t *testing.T, db *Database, n int, tags ...string) {
	t.Helper()
	ds, err := db.Delta("ev")
	must(t, err)
	base := ds.BaseN() + ds.NumDeltaRows()
	for i := 0; i < n; i++ {
		if _, err := ds.Insert([]any{int32(base + i), float64(100 + i%7), tags[i%len(tags)]}); err != nil {
			t.Fatal(err)
		}
	}
}

// evDeltaDB is deltaTestDB(n) with ins pending inserts.
func evDeltaDB(n, ins int, tags ...string) func(t *testing.T) *Database {
	return func(t *testing.T) *Database {
		db := deltaTestDB(t, n)
		insertEv(t, db, ins, tags...)
		return db
	}
}

// evGroups groups ev by tag.
func evGroups() algebra.Node {
	return algebra.NewAggr(algebra.NewScan("ev"),
		[]algebra.NamedExpr{algebra.NE("tag", expr.C("tag"))},
		[]algebra.AggExpr{algebra.Count("n"), algebra.Sum("s", expr.C("v")), algebra.Max("mk", expr.C("k"))})
}

// evRows lists ev's row ids with their values.
func evRows(pred expr.Expr) algebra.Node {
	scan := algebra.NewScan("ev", "#rowid", "k", "tag")
	if pred == nil {
		return scan
	}
	return algebra.NewSelect(scan, pred)
}

// diskDeltaDB persists a 40,000-row table through a ColumnBM store with
// 512-row chunks — its base ends mid-chunk and spans three morsels — then
// attaches it and applies 3,000 pending inserts plus deletions of base and
// delta rows.
func diskDeltaDB(t *testing.T) *Database {
	const n, ins = 40_000, 3_000
	tab := colstore.NewTable("dt")
	keys := make([]int32, n)
	vals := make([]float64, n)
	tags := make([]string, n)
	for i := range keys {
		keys[i] = int32(i)
		vals[i] = float64(i % 101)
		tags[i] = []string{"red", "green", "blue"}[i%3]
	}
	must(t, tab.AddColumn("k", vector.Int32, keys))
	must(t, tab.AddColumn("v", vector.Float64, vals))
	must(t, tab.AddColumn("tag", vector.String, tags))
	dir := t.TempDir()
	store, err := columnbm.NewStore(dir, 512, 4)
	must(t, err)
	must(t, store.SaveTable(tab))
	db := NewDatabase()
	if _, err := AttachDiskTable(db, store, "dt"); err != nil {
		t.Fatal(err)
	}
	ds, err := db.Delta("dt")
	must(t, err)
	for i := 0; i < ins; i++ {
		if _, err := ds.Insert([]any{int32(n + i), float64(i % 13), []string{"red", "violet"}[i%2]}); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < n+ins; id += 997 {
		must(t, ds.Delete(int32(id)))
	}
	return db
}

var deltaCases = []deltaCase{
	{
		// Summary-index pruning narrows the base range; inserted rows
		// inside and outside the predicate range are all scanned.
		name:  "summary-pruned",
		table: "fact",
		db: func(t *testing.T) *Database {
			db := opsDB(t)
			ds, err := db.Delta("fact")
			must(t, err)
			for _, d := range []int32{320, 10, 301, 5000, 350, 351} {
				if _, err := ds.Insert([]any{int32(1000 + d), "b", float64(d) / 7, d, int32(3)}); err != nil {
					t.Fatal(err)
				}
			}
			return db
		},
		plans: func() []algebra.Node {
			pred := expr.AndE(
				expr.GEE(expr.C("d"), expr.Int32Const(300)),
				expr.LEE(expr.C("d"), expr.Int32Const(350)))
			return []algebra.Node{
				algebra.NewAggr(algebra.NewSelect(algebra.NewScan("fact", "d", "val", "grp"), pred),
					[]algebra.NamedExpr{algebra.NE("grp", expr.C("grp"))},
					[]algebra.AggExpr{algebra.Count("n"), algebra.Sum("s", expr.C("val"))}),
				algebra.NewSelect(algebra.NewScan("fact", "#rowid", "d"), pred),
			}
		}(),
	},
	{
		name:  "deleted-base-and-delta",
		table: "ev",
		db: func(t *testing.T) *Database {
			db := evDeltaDB(5000, 1500, "a", "c")(t)
			ds, err := db.Delta("ev")
			must(t, err)
			for id := 3; id < 6500; id += 7 {
				must(t, ds.Delete(int32(id)))
			}
			// A whole delta vector deleted.
			for id := 5000; id < 6024; id++ {
				if !ds.IsDeleted(int32(id)) {
					must(t, ds.Delete(int32(id)))
				}
			}
			return db
		},
		plans: []algebra.Node{
			evGroups(),
			algebra.NewSelect(algebra.NewScan("ev", "k", "tag"), expr.EQE(expr.C("tag"), expr.Str("a"))),
		},
	},
	{
		name:  "rowid-across-boundary",
		table: "ev",
		db:    evDeltaDB(3000, 40, "b"),
		plans: []algebra.Node{
			evRows(nil),
			evRows(expr.AndE(
				expr.GEE(expr.C("k"), expr.Int32Const(2990)),
				expr.LEE(expr.C("k"), expr.Int32Const(3010)))),
		},
	},
	{
		// "d" and "e" are not in the enum dictionary when the plans are
		// built: the code-domain steps see them only on base rows, and a
		// "tag#" scan encodes them as the delta is read.
		name:  "enum-value-first-seen-in-delta",
		table: "ev",
		db:    evDeltaDB(5000, 300, "d", "a", "e"),
		plans: []algebra.Node{
			evGroups(),
			evRows(expr.EQE(expr.C("tag"), expr.Str("d"))),
			evRows(expr.InE(expr.C("tag"), expr.Str("e"), expr.Str("b"))),
			evRows(expr.LikeE(expr.C("tag"), "%e%")),
			algebra.NewAggr(algebra.NewScan("ev", "tag#"),
				[]algebra.NamedExpr{algebra.NE("code", expr.C("tag#"))},
				[]algebra.AggExpr{algebra.Count("n")}),
		},
	},
	{name: "delta-shorter-than-vector", table: "ev", db: evDeltaDB(5000, 10, "a"), plans: []algebra.Node{evGroups(), evRows(nil)}},
	{name: "delta-one-vector", table: "ev", db: evDeltaDB(5000, vector.DefaultBatchSize, "b"), plans: []algebra.Node{evGroups(), evRows(nil)}},
	{name: "delta-longer-than-vector", table: "ev", db: evDeltaDB(5000, 2500, "c", "a"), plans: []algebra.Node{evGroups(), evRows(nil)}},
	{
		name:  "disk-base-not-chunk-aligned",
		table: "dt",
		db:    diskDeltaDB,
		plans: []algebra.Node{
			algebra.NewAggr(algebra.NewScan("dt"),
				[]algebra.NamedExpr{algebra.NE("tag", expr.C("tag"))},
				[]algebra.AggExpr{algebra.Count("n"), algebra.Sum("s", expr.C("v")), algebra.Max("mk", expr.C("k"))}),
			// Chunk min/max pruning keeps only the base's last chunks.
			algebra.NewSelect(algebra.NewScan("dt", "#rowid", "k", "tag"),
				expr.GEE(expr.C("k"), expr.Int32Const(39_700))),
			algebra.NewSelect(algebra.NewScan("dt", "#rowid", "v", "tag"),
				expr.EQE(expr.C("tag"), expr.Str("violet"))),
		},
	},
}

// TestDeltaRangeDifferential runs each case's plans at parallelism 1, 2
// and 8 while the inserts are pending — the delta is scanned as its own
// vectorized, partitioned row range — and compares them with the same
// plans over the same table after an explicit Checkpoint absorbed the
// delta into the base.
func TestDeltaRangeDifferential(t *testing.T) {
	levels := []int{1, 2, 8}
	for _, c := range deltaCases {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			pending := make([][]*Result, len(c.plans))
			for i, plan := range c.plans {
				for _, p := range levels {
					opts := DefaultOptions()
					opts.Parallelism = p
					pending[i] = append(pending[i], runPlan(t, db, plan, opts))
				}
			}
			ds, err := db.Delta(c.table)
			must(t, err)
			if ds.NumDeltaRows() == 0 {
				t.Fatal("queries absorbed the pending inserts")
			}
			if done, err := db.Checkpoint(c.table); err != nil || !done {
				t.Fatalf("checkpoint: done=%v err=%v", done, err)
			}
			for i, plan := range c.plans {
				want := runPlan(t, db, plan, DefaultOptions())
				for j, p := range levels {
					t.Run(fmt.Sprintf("plan%d/p%d", i, p), func(t *testing.T) {
						assertSameResult(t, want, pending[i][j])
					})
				}
			}
		})
	}
}

// TestRawCodeScanUnseenDeltaValue asserts a "<col>#" scan of a merged-dict
// disk column fails cleanly, at any parallelism, when a pending insert
// holds a value the attach-time dictionary lacks.
func TestRawCodeScanUnseenDeltaValue(t *testing.T) {
	db := diskDeltaDB(t) // inserts "violet", absent from the base
	tab, err := db.Table("dt")
	must(t, err)
	if _, _, ok := tab.Col("tag").CodeDomain(); !ok {
		t.Fatal("tag has no merged dictionary")
	}
	plan := algebra.NewScan("dt", "tag#")
	for _, p := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Parallelism = p
		_, err := Run(db, plan, opts)
		if err == nil || !strings.Contains(err.Error(), `value "violet" is not in the attached merged dictionary`) {
			t.Fatalf("p=%d: err = %v, want the unseen-value error", p, err)
		}
	}
}
