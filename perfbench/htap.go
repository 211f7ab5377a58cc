package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"x100"
	"x100/internal/colstore"
	"x100/internal/dateutil"
)

const (
	// htapWriteRate is the writer's fixed rate in durable writes per
	// second, well under the 14-20k/s a closed-loop writer saturates at,
	// so the log keeps up and the table grows the same amount every run.
	htapWriteRate = 2000
	// htapDeleteEvery inserts are followed by one delete.
	htapDeleteEvery = 6
	// htapParallelism is the reader's worker count: one core reads while
	// the writer and the compactor share the other.
	htapParallelism = 1
	// htapTemplates is how many distinct lineitem rows the writer cycles
	// through.
	htapTemplates = 64
)

// htapShipDate is the ship date of every inserted row: after Q1's cutoff
// (1998-09-02) and outside Q6's 1994 window. So acknowledged writes never
// change the reader's answers, and every answer is checked against the
// oracle while the table grows.
var htapShipDate = dateutil.MustParse("1998-11-15")

func runHTAP(r *runner) error {
	p, err := r.setUp(func(r *runner, dir string, parent int, t *setupTimes) (*prepared, error) {
		gen, err := r.generate(tpchSF, parent, t)
		if err != nil {
			return nil, err
		}
		if t.save, err = r.save(gen, dir, parent, baseTables...); err != nil {
			return nil, err
		}
		db, d, err := r.attach(dir, parent,
			x100.WithDurability(x100.DurabilityGroup),
			x100.WithBackgroundCompaction(x100.CompactorOptions{}))
		if err != nil {
			return nil, err
		}
		t.attach = d
		return &prepared{gen: gen, db: db, dir: dir}, nil
	})
	if err != nil {
		return err
	}
	defer p.release()

	lt, err := p.gen.Table("lineitem")
	if err != nil {
		return err
	}
	baseRows := lt.N
	rawBase, err := rawBytes(p.gen)
	if err != nil {
		return err
	}
	rowRaw := float64(tableRawBytes(lt)) / float64(baseRows)
	rows, err := writeRows(lt, r.seed)
	if err != nil {
		return err
	}
	oracleDB, err := memDB(p.gen)
	if err != nil {
		return err
	}
	nums := []int{1, 6}
	if r.traced {
		nums = allQueries()
	}
	qs, err := r.oracle(oracleDB, tpchSF, nums...)
	if err != nil {
		return err
	}
	readerQs := []query{findQuery(qs, 1), findQuery(qs, 6)}
	if r.traced {
		if err := r.probes(p.gen); err != nil {
			return err
		}
	}
	// Collect the in-memory copy before timing, so the run is not charged
	// for it.
	p.gen = nil
	runtime.GC()

	opts := []x100.ExecOption{x100.WithParallelism(htapParallelism)}
	if r.traced {
		// The 22-query passes give the per-query and per-operator numbers
		// of the disk-attached SF 0.1 database before any write.
		if err := r.timeBuild(p.db, qs, htapParallelism); err != nil {
			return err
		}
		r.stream(p.db, qs, 0, false, opts...)
		r.stream(p.db, qs, r.window/2, true, opts...).reportLayers(r)
	}

	for _, q := range readerQs { // warm-up
		r.exec(p.db, q, r.root, nil, opts...)
	}
	before := snapshot(p.db)
	deadline := time.Now().Add(r.window)
	var w writerStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w = r.write(p.db, rows, deadline)
	}()
	reads := r.read(p.db, readerQs, deadline, opts...)
	wg.Wait()
	after := snapshot(p.db)
	if len(reads.passes) == 0 {
		return errNoPasses
	}
	reads.report(r)
	r.reportCounters(before, after, len(reads.passes))
	w.report(r)

	frac, err := p.db.DeltaFraction("lineitem")
	if err != nil {
		return err
	}
	r.layer["delta.fraction_end"] = metric{frac, "ratio"}
	live, err := p.db.NumRows("lineitem")
	if err != nil {
		return err
	}
	p.db.Close()
	return r.checkDurable(p.dir, baseRows, baseRows+int(w.inserts)-int(w.deletes), live, rawBase, rowRaw)
}

// findQuery returns query n of qs.
func findQuery(qs []query, n int) query {
	for _, q := range qs {
		if q.num == n {
			return q
		}
	}
	panic(fmt.Sprintf("perfbench: Q%d has no oracle answer", n))
}

// writeRows returns the rows the writer inserts: lineitem rows picked by
// seed, re-dated to htapShipDate.
func writeRows(lt *colstore.Table, seed int64) ([][]any, error) {
	ship := -1
	for i, c := range lt.Cols {
		if c.Name == "l_shipdate" {
			ship = i
		}
	}
	if ship < 0 {
		return nil, fmt.Errorf("lineitem has no l_shipdate")
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 1))
	rows := make([][]any, htapTemplates)
	for i := range rows {
		rows[i] = tableRow(lt, rng.IntN(lt.N))
		rows[i][ship] = htapShipDate
	}
	return rows, nil
}

// writerStats is what the open-loop writer measured.
type writerStats struct {
	insertLat, deleteLat []time.Duration
	lateness             []time.Duration
	inserts, deletes     int64
}

// write sends durable single-row inserts into lineitem, and after every
// htapDeleteEvery inserts one delete of a row it inserted earlier, open
// loop at htapWriteRate until until. Latency counts from each write's due
// time. It stops at the first failed write, which is counted.
func (r *runner) write(db *x100.DB, rows [][]any, until time.Time) writerStats {
	var w writerStats
	id := r.spans.begin("writer", r.root)
	defer r.spans.end(id, nil)
	rng := rand.New(rand.NewPCG(uint64(r.seed), 2))
	var live []int32 // acknowledged inserts not deleted yet
	var deletes []bool
	// The error that stops the loop was already counted by attempt.
	st, _ := openLoop(wallClock{}, time.Second/htapWriteRate, until, func(i int) error {
		if i%(htapDeleteEvery+1) == htapDeleteEvery {
			k := rng.IntN(len(live))
			sid := r.spans.begin("delete", id)
			err := db.Delete("lineitem", live[k])
			r.spans.end(sid, nil)
			r.attempt("delete", err)
			if err != nil {
				return err
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			deletes = append(deletes, true)
			w.deletes++
			return nil
		}
		sid := r.spans.begin("insert", id)
		rowID, err := db.Internal().Insert("lineitem", rows[i%len(rows)])
		r.spans.end(sid, nil)
		r.attempt("insert", err)
		if err != nil {
			return err
		}
		live = append(live, rowID)
		deletes = append(deletes, false)
		w.inserts++
		return nil
	})
	for i, d := range st.latency {
		if deletes[i] {
			w.deleteLat = append(w.deleteLat, d)
		} else {
			w.insertLat = append(w.insertLat, d)
		}
	}
	w.lateness = st.lateness
	return w
}

// report records the writer's numbers.
func (w writerStats) report(r *runner) {
	ins, late := millis(w.insertLat), millis(w.lateness)
	r.info["insert_p50_ms"] = percentile(ins, 50)
	r.info["insert_p99_ms"] = percentile(ins, 99)
	r.info["insert_samples"] = len(ins)
	r.info["delete_p50_ms"] = percentile(millis(w.deleteLat), 50)
	r.info["writer_late_p99_ms"] = percentile(late, 99)
	r.info["writer_late_max_ms"] = percentile(late, 100)
	r.info["inserts"] = w.inserts
	r.info["deletes"] = w.deletes
}

// read runs Q1 and Q6 alternately, closed loop, until until. A pass is one
// Q1 and the Q6 after it.
func (r *runner) read(db *x100.DB, qs []query, until time.Time, opts ...x100.ExecOption) *streamStats {
	st := &streamStats{perQuery: map[int][]time.Duration{}, layers: newLayerTotals()}
	id := r.spans.begin("reader", r.root)
	defer r.spans.end(id, nil)
	var lt *layerTotals
	if r.traced {
		lt = st.layers // attaches each query's tracer totals to its span
	}
	var pass time.Duration
	passOK := true
	for i := 0; time.Now().Before(until); i++ {
		q := qs[i%len(qs)]
		d, ok := r.exec(db, q, id, lt, opts...)
		if ok {
			st.perQuery[q.num] = append(st.perQuery[q.num], d)
			st.all = append(st.all, d)
		}
		pass += d
		passOK = passOK && ok
		if i%len(qs) == len(qs)-1 {
			if passOK {
				st.passes = append(st.passes, pass)
			}
			pass, passOK = 0, true
		}
	}
	return st
}

// checkDurable re-attaches lineitem into a fresh database, which replays
// the write-ahead log, and checks that it holds exactly the acknowledged
// writes. It then times a checkpoint of the replayed delta and reports the
// bytes stored per raw byte of the grown table.
func (r *runner) checkDurable(dir string, baseRows, want, live int, rawBase int64, rowRaw float64) error {
	id := r.spans.begin("durability check", r.root)
	db := x100.NewDB(x100.WithDurability(x100.DurabilityGroup))
	defer db.Close()
	err := db.AttachDisk(dir, "lineitem")
	if err != nil {
		r.spans.end(id, nil)
		return fmt.Errorf("re-attach: %w", err)
	}
	got, err := db.NumRows("lineitem")
	if err == nil && (got != want || live != want) {
		err = fmt.Errorf("%d rows after replay and %d before close, want %d", got, live, want)
	}
	r.spans.end(id, map[string]any{"rows": got, "want": want})
	r.attempt("durability", err)
	r.info["rows_end"] = got
	if err := r.timeCheckpoint(db); err != nil {
		return err
	}
	stored, err := dirBytes(dir)
	if err != nil {
		return err
	}
	raw := float64(rawBase) + float64(want-baseRows)*rowRaw
	r.e2e["stored_bytes_ratio"] = metric{float64(stored) / raw, "ratio"}
	r.info["stored_bytes"] = stored
	return nil
}
