package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"x100"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/core"
	"x100/internal/tpch"
	"x100/internal/vector"
)

// baseTables are the TPC-H tables a store persists; attaching registers
// their dictionary mapping tables itself.
var baseTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// setupRepeats is how many times an untraced run sets its database up;
// setup_s is the median, so one slow set-up does not move it.
const setupRepeats = 3

// prepared is a workload's database after set-up.
type prepared struct {
	gen *core.Database // the generated in-memory copy
	db  *x100.DB       // the database the workload runs on
	dir string         // its chunk directory; "" when in memory
}

func (p *prepared) release() {
	p.db.Close()
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}

// setupTimes is the breakdown of one set-up.
type setupTimes struct{ total, generate, save, attach time.Duration }

// setupFunc builds a workload's database in dir, recording its breakdown.
type setupFunc func(r *runner, dir string, parent int, t *setupTimes) (*prepared, error)

// setUp runs set-up setupRepeats times (once in a traced run), keeps the
// last database, and reports setup_s and tpch.generate_s as medians.
func (r *runner) setUp(fn setupFunc) (*prepared, error) {
	n := setupRepeats
	if r.traced {
		n = 1
	}
	var p *prepared
	var total, gen, save, attach []float64
	for i := range n {
		if p != nil {
			p.release()
			p = nil
		}
		runtime.GC() // each set-up starts from the same heap
		id := r.spans.begin("setup", r.root)
		var t setupTimes
		t0 := time.Now()
		var err error
		p, err = fn(r, filepath.Join(r.dir, fmt.Sprintf("db%d", i)), id, &t)
		t.total = time.Since(t0)
		r.spans.end(id, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		total = append(total, t.total.Seconds())
		gen = append(gen, t.generate.Seconds())
		save = append(save, t.save.Seconds())
		attach = append(attach, t.attach.Seconds())
	}
	r.e2e["setup_s"] = metric{median(total), "s"}
	r.layer["tpch.generate_s"] = metric{median(gen), "s"}
	r.info["setup_s_samples"] = total
	r.info["setup_save_s"] = median(save)
	r.info["setup_attach_s"] = median(attach)
	return p, nil
}

// generate builds the seeded TPC-H database in memory.
func (r *runner) generate(sf float64, parent int, t *setupTimes) (*core.Database, error) {
	id := r.spans.begin("tpch.Generate", parent)
	t0 := time.Now()
	// Seed 0 would select the generator's fixed default seed, so shift by
	// one: every benchmark seed gives its own data.
	gen, err := tpch.Generate(tpch.Config{SF: sf, Seed: uint64(r.seed) + 1})
	t.generate = time.Since(t0)
	r.spans.end(id, map[string]any{"sf": sf})
	return gen, err
}

// memDB exposes a generated database through the public API, with the
// summary and range indices tpch.Generate builds.
func memDB(gen *core.Database) (*x100.DB, error) {
	db := x100.NewDB()
	in := db.Internal()
	for _, name := range gen.Catalog.Names() {
		t, err := gen.Table(name)
		if err != nil {
			return nil, err
		}
		in.AddTable(t)
	}
	for _, si := range [][2]string{{"orders", "o_orderdate"}, {"lineitem", "l_shipdate"}} {
		if err := db.BuildSummaryIndex(si[0], si[1], 0); err != nil {
			return nil, err
		}
	}
	if err := in.DeriveRangeIndex("lineitem", "orders", "l_orderrow"); err != nil {
		return nil, err
	}
	return db, nil
}

// save persists tables of gen through a ColumnBM store in dir.
func (r *runner) save(gen *core.Database, dir string, parent int, tables ...string) (time.Duration, error) {
	store, err := columnbm.NewStore(dir, 0, 0)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, name := range tables {
		t, err := gen.Table(name)
		if err != nil {
			return 0, err
		}
		id := r.spans.begin("columnbm.SaveTable", parent)
		err = store.SaveTable(t)
		r.spans.end(id, map[string]any{"table": name, "rows": t.N})
		if err != nil {
			return 0, fmt.Errorf("save %s: %w", name, err)
		}
	}
	return time.Since(t0), nil
}

// attach opens every table persisted in dir through the public API and
// registers the orders->lineitem range index the generator derives.
func (r *runner) attach(dir string, parent int, opts ...x100.DBOption) (*x100.DB, time.Duration, error) {
	db := x100.NewDB(opts...)
	id := r.spans.begin("x100.AttachDisk", parent)
	t0 := time.Now()
	err := db.AttachDisk(dir)
	if err == nil {
		err = db.Internal().DeriveRangeIndex("lineitem", "orders", "l_orderrow")
	}
	d := time.Since(t0)
	r.spans.end(id, nil)
	if err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("attach %s: %w", dir, err)
	}
	return db, d, nil
}

// rawBytes is the user data of base tables at its logical width: every
// value at its type's width, strings at their length, enum-compressed
// columns decoded. It is the denominator of stored_bytes_ratio.
func rawBytes(gen *core.Database) (int64, error) {
	var n int64
	for _, name := range baseTables {
		t, err := gen.Table(name)
		if err != nil {
			return 0, err
		}
		n += tableRawBytes(t)
	}
	return n, nil
}

func tableRawBytes(t *colstore.Table) int64 {
	var n int64
	for _, c := range t.Cols {
		if c.Typ != vector.String {
			n += int64(t.N) * int64(c.Typ.Width())
			continue
		}
		var dict []string
		if c.Dict != nil {
			dict = c.Dict.Strings()
		}
		switch d := c.Data().(type) {
		case []string:
			for _, s := range d {
				n += int64(len(s))
			}
		case []uint8:
			for _, code := range d {
				n += int64(len(dict[code]))
			}
		case []uint16:
			for _, code := range d {
				n += int64(len(dict[code]))
			}
		}
	}
	return n
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// memBytes is the in-memory footprint of the base tables (enum-compressed).
func memBytes(gen *core.Database) (int64, error) {
	var n int64
	for _, name := range baseTables {
		t, err := gen.Table(name)
		if err != nil {
			return 0, err
		}
		n += int64(t.Bytes())
	}
	return n, nil
}
