package tpch

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"x100/internal/columnbm"
	"x100/internal/core"
)

// mutTables are the tables the update/recovery differential mutates.
var mutTables = []string{"lineitem", "orders"}

// attachAll persists nothing itself: it attaches every base table of an
// existing directory into a fresh database and rebuilds the
// orders->lineitem range index from the persisted join-index column.
func attachAll(t *testing.T, dir string, poolChunks int) (*core.Database, *columnbm.Store) {
	t.Helper()
	store, err := columnbm.NewStore(dir, diskChunkRows, poolChunks)
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDatabase()
	for _, name := range baseTables {
		if _, err := core.AttachDiskTable(db, store, name); err != nil {
			t.Fatal(err)
		}
	}
	rebuildRangeIndex(t, db)
	return db, store
}

// rebuildRangeIndex derives the orders->lineitem range index from the
// l_orderrow join-index column and records the recipe, so later
// checkpoints and compactions re-derive it automatically.
func rebuildRangeIndex(t *testing.T, db *core.Database) {
	t.Helper()
	if err := db.DeriveRangeIndex("lineitem", "orders", "l_orderrow"); err != nil {
		t.Fatal(err)
	}
}

// lastRowTemplate captures the boxed logical values of a table's last row —
// the insert template: appending copies of the last row keeps clustered
// columns (dates, join-index row ids) clustered, so every index stays
// valid.
func lastRowTemplate(t *testing.T, db *core.Database, table string) []any {
	t.Helper()
	tab, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, len(tab.Cols))
	for i, c := range tab.Cols {
		row[i] = c.DecodedValue(tab.N - 1)
	}
	return row
}

// applyOp applies one mutation step identically to both databases.
type twinDBs struct {
	mem, disk *core.Database
}

func (tw twinDBs) each(t *testing.T, fn func(db *core.Database) error) {
	t.Helper()
	if err := fn(tw.mem); err != nil {
		t.Fatal("mem:", err)
	}
	if err := fn(tw.disk); err != nil {
		t.Fatal("disk:", err)
	}
}

// TestUpdateRecoveryDifferential is the durable-update lockdown: a
// randomized insert/delete/checkpoint/query interleaving runs identically
// against a disk-attached database and its in-memory twin; mid-stream
// queries must agree at parallelism 1 and 2 (the parallel runs partition
// over the pending delta rows; only the explicit checkpoints write to the
// directory). The directory is then
// re-attached cold — a process restart — and all 22 TPC-H queries must
// return results identical to the in-memory twin at parallelism 1, 2 and
// 8: every checkpointed insert and deletion survived, nothing else did
// (there is nothing else: the interleaving ends with a checkpoint).
func TestUpdateRecoveryDifferential(t *testing.T) {
	mem, err := Generate(Config{SF: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wstore, err := columnbm.NewStore(dir, diskChunkRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range baseTables {
		tab, err := mem.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := wstore.SaveTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	disk, _ := attachAll(t, dir, 8)
	tw := twinDBs{mem: mem, disk: disk}

	templates := map[string][]any{}
	for _, name := range mutTables {
		templates[name] = lastRowTemplate(t, mem, name)
	}
	checkQueries := []int{1, 6}
	rng := rand.New(rand.NewSource(20260727))
	checkpoints := 0
	for step := 0; step < 60; step++ {
		table := mutTables[rng.Intn(len(mutTables))]
		switch k := rng.Intn(10); {
		case k < 5: // insert a small batch of last-row copies
			n := 1 + rng.Intn(40)
			tw.each(t, func(db *core.Database) error {
				ds, err := db.Delta(table)
				if err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if _, err := ds.Insert(templates[table]); err != nil {
						return err
					}
				}
				return nil
			})
		case k < 7: // delete a random row (base or delta space)
			memDS, err := mem.Delta(table)
			if err != nil {
				t.Fatal(err)
			}
			space := memDS.Table().N + memDS.NumDeltaRows()
			id := int32(rng.Intn(space))
			tw.each(t, func(db *core.Database) error {
				ds, err := db.Delta(table)
				if err != nil {
					return err
				}
				return ds.Delete(id)
			})
		case k < 8: // explicit checkpoint: durable on the disk side
			checkpoints++
			tw.each(t, func(db *core.Database) error {
				done, err := db.Checkpoint(table)
				if err == nil && !done {
					return fmt.Errorf("checkpoint of %s declined", table)
				}
				return err
			})
		default: // differential query check, serial and parallel
			q := checkQueries[rng.Intn(len(checkQueries))]
			plan, err := Query(q, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(mem, plan, core.DefaultOptions())
			if err != nil {
				t.Fatalf("step %d mem Q%d: %v", step, q, err)
			}
			for _, p := range []int{1, 2} {
				opts := core.DefaultOptions()
				opts.Parallelism = p
				got, err := core.Run(disk, plan, opts)
				if err != nil {
					t.Fatalf("step %d disk Q%d p=%d: %v", step, q, p, err)
				}
				sameRowMultisets(t, fmt.Sprintf("step %d Q%d p=%d", step, q, p), want, got)
			}
		}
	}
	if checkpoints == 0 {
		t.Fatal("interleaving never checkpointed; adjust the seed")
	}
	// Commit everything: the final checkpoints define the durable state.
	for _, name := range mutTables {
		tw.each(t, func(db *core.Database) error {
			done, err := db.Checkpoint(name)
			if err == nil && !done {
				return fmt.Errorf("final checkpoint of %s declined", name)
			}
			return err
		})
	}
	// Both twins must agree on shape before the restart.
	for _, name := range mutTables {
		memDS, _ := mem.Delta(name)
		diskDS, _ := disk.Delta(name)
		if memDS.NumRows() != diskDS.NumRows() || memDS.NumDeltaRows() != 0 || diskDS.NumDeltaRows() != 0 {
			t.Fatalf("%s: mem %d rows (%d delta), disk %d rows (%d delta)", name,
				memDS.NumRows(), memDS.NumDeltaRows(), diskDS.NumRows(), diskDS.NumDeltaRows())
		}
	}
	// The range indices moved underneath the inserts; re-derive them on
	// both twins the same way so FetchNJoin plans see identical indexes.
	rebuildRangeIndex(t, mem)

	// "Restart": a cold store over the same directory, fresh database,
	// fresh (small) buffer pool. The attach must recover every
	// checkpointed row and deletion from the manifest alone.
	restarted, _ := attachAll(t, dir, 8)
	for _, name := range mutTables {
		memDS, _ := mem.Delta(name)
		reDS, _ := restarted.Delta(name)
		if memDS.NumRows() != reDS.NumRows() {
			t.Fatalf("%s after restart: %d rows, want %d", name, reDS.NumRows(), memDS.NumRows())
		}
		if memDS.NumDeleted() != reDS.NumDeleted() {
			t.Fatalf("%s after restart: %d deletions recovered, want %d", name, reDS.NumDeleted(), memDS.NumDeleted())
		}
	}
	for q := 1; q <= NumQueries; q++ {
		q := q
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			plan, err := Query(q, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Run(mem, plan, core.DefaultOptions())
			if err != nil {
				t.Fatalf("memory: %v", err)
			}
			for _, p := range []int{1, 2, 8} {
				opts := core.DefaultOptions()
				opts.Parallelism = p
				got, err := core.Run(restarted, plan, opts)
				if err != nil {
					t.Fatalf("restarted p=%d: %v", p, err)
				}
				sameRowMultisets(t, fmt.Sprintf("restart Q%d p=%d", q, p), want, got)
			}
		})
	}
}

// TestReadOnlyAttachCheckpointNoop asserts that queries never write: on a
// freshly attached disk table, serial and parallel queries and explicit
// Checkpoint calls (no pending deltas) never touch the directory, and
// neither do serial and parallel queries after rows are inserted — the
// pending inserts are scanned from the delta, not absorbed into chunks.
// The directory stays byte-identical throughout.
func TestReadOnlyAttachCheckpointNoop(t *testing.T) {
	mem, err := Generate(Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wstore, err := columnbm.NewStore(dir, diskChunkRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range baseTables {
		tab, err := mem.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := wstore.SaveTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() map[string][sha256.Size]byte {
		out := map[string][sha256.Size]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = sha256.Sum256(data)
		}
		return out
	}
	before := snapshot()

	disk, store := attachAll(t, dir, 8)
	// Any write attempt through the store trips the fault hook and fails
	// the test immediately, pinpointing the offender. The read-chunk
	// stage is the one read-path hook: scans are expected to fire it.
	store.FaultHook = func(stage string) error {
		if stage == "read-chunk" {
			return nil
		}
		t.Errorf("read-only attach wrote to the directory (stage %s)", stage)
		return nil
	}
	for _, q := range []int{1, 6} {
		plan, err := Query(q, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			opts := core.DefaultOptions()
			opts.Parallelism = p
			if _, err := core.Run(disk, plan, opts); err != nil {
				t.Fatalf("Q%d p=%d: %v", q, p, err)
			}
		}
	}
	for _, name := range baseTables {
		done, err := disk.Checkpoint(name)
		if err != nil || !done {
			t.Fatalf("checkpoint %s: done=%v err=%v", name, done, err)
		}
	}
	// Pending inserts, identical on both sides: parallel queries partition
	// over the delta rows instead of checkpointing them.
	template := lastRowTemplate(t, mem, "lineitem")
	for _, db := range []*core.Database{mem, disk} {
		ds, err := db.Delta("lineitem")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := ds.Insert(template); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range []int{1, 6} {
		plan, err := Query(q, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(mem, plan, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			opts := core.DefaultOptions()
			opts.Parallelism = p
			got, err := core.Run(disk, plan, opts)
			if err != nil {
				t.Fatalf("pending inserts Q%d p=%d: %v", q, p, err)
			}
			sameRowMultisets(t, fmt.Sprintf("pending inserts Q%d p=%d", q, p), want, got)
		}
	}
	if ds, _ := disk.Delta("lineitem"); ds.NumDeltaRows() != 100 {
		t.Fatalf("queries absorbed the delta: %d rows pending, want 100", ds.NumDeltaRows())
	}
	after := snapshot()
	if len(before) != len(after) {
		t.Fatalf("directory changed: %d files, was %d", len(after), len(before))
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Fatalf("file %s changed", name)
		}
	}
	// Sanity: the manifest files still say what they said.
	for _, name := range baseTables {
		if _, err := os.Stat(filepath.Join(dir, name+".manifest.json")); err != nil {
			t.Fatal(err)
		}
	}
}
