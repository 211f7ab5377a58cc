package main

import (
	"fmt"
	"path/filepath"
	"time"

	"x100"
	"x100/internal/colstore"
	"x100/internal/columnbm"
	"x100/internal/core"
	"x100/internal/vector"
)

// counters is a snapshot of the layer counters the engine exports.
type counters struct {
	store                columnbm.StoreStats
	walAppends, walSyncs int64
	walRotations         int64
	sched                x100.SchedulerStats
	compaction           x100.CompactionStatus
}

func snapshot(db *x100.DB) counters {
	c := counters{sched: x100.DefaultScheduler().Stats(), compaction: db.CompactionStatus()}
	for i, st := range db.WalStatuses() {
		if i == 0 {
			// Every table of a directory shares one store and its counters.
			c.store = st.Store
		}
		c.walAppends += st.Wal.Appends
		c.walSyncs += st.Wal.Syncs
		c.walRotations += st.Wal.Rotations
	}
	return c
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// reportCounters stores the layer counters' change over a measured phase
// of passes query passes.
func (r *runner) reportCounters(before, after counters, passes int) {
	per := float64(max(passes, 1))
	b, a := before.store, after.store
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	pHits, pMisses := a.PoolHits-b.PoolHits, a.PoolMisses-b.PoolMisses
	r.layer["columnbm.dcache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	r.layer["columnbm.dcache_misses"] = metric{float64(misses) / per, "count/pass"}
	r.layer["columnbm.dcache_evictions"] = metric{float64(a.Cache.Evictions-b.Cache.Evictions) / per, "count/pass"}
	r.layer["columnbm.pool_hit_ratio"] = metric{ratio(pHits, pHits+pMisses), "ratio"}
	r.info["pool_hits_per_pass"] = float64(pHits) / per
	r.info["pool_misses_per_pass"] = float64(pMisses) / per

	appends, syncs := after.walAppends-before.walAppends, after.walSyncs-before.walSyncs
	r.layer["columnbm.wal_appends"] = metric{float64(appends), "count"}
	r.layer["columnbm.wal_syncs"] = metric{float64(syncs), "count"}
	r.layer["columnbm.wal_appends_per_sync"] = metric{ratio(appends, syncs), "ratio"}
	r.layer["columnbm.wal_rotations"] = metric{float64(after.walRotations - before.walRotations), "count"}
	r.layer["columnbm.retried_reads"] = metric{float64(a.RetriedReads - b.RetriedReads), "count"}
	r.layer["columnbm.checksum_failures"] = metric{float64(a.ChecksumFailures - b.ChecksumFailures), "count"}

	sb, sa := before.sched, after.sched
	admitted, waits := sa.Admitted-sb.Admitted, sa.Waits-sb.Waits
	r.layer["sched.admitted"] = metric{float64(admitted) / per, "count/pass"}
	r.layer["sched.waits"] = metric{float64(waits) / per, "count/pass"}
	r.layer["sched.wait_ratio"] = metric{ratio(waits, admitted), "ratio"}
	r.layer["sched.yields"] = metric{float64(sa.Yields-sb.Yields) / per, "count/pass"}

	cb, ca := before.compaction, after.compaction
	r.layer["core.compaction_runs"] = metric{float64(ca.Runs - cb.Runs), "count"}
	r.layer["core.checkpoints"] = metric{float64(ca.Checkpoints - cb.Checkpoints), "count"}
	r.layer["core.rows_absorbed"] = metric{float64(ca.RowsAbsorbed - cb.RowsAbsorbed), "count"}
	r.info["compactions"] = ca.Compactions - cb.Compactions
}

// timeBuild times core.Build of every query plan, the planning layer's
// share of each query, and closes each built tree unrun.
func (r *runner) timeBuild(db *x100.DB, qs []query, parallelism int) error {
	opts := core.DefaultOptions()
	opts.Parallelism = parallelism
	var total time.Duration
	for _, q := range qs {
		id := r.spans.begin("core.Build", r.root)
		t0 := time.Now()
		op, err := core.Build(db.Internal(), q.plan, opts)
		total += time.Since(t0)
		r.spans.end(id, map[string]any{"query": q.num})
		if err != nil {
			return fmt.Errorf("build Q%d: %w", q.num, err)
		}
		if err := op.Close(); err != nil {
			return fmt.Errorf("close Q%d: %w", q.num, err)
		}
	}
	r.layer["core.build_ms"] = metric{float64(total.Nanoseconds()) / 1e6, "ms"}
	return nil
}

// timeCheckpoint times one DB.Checkpoint of lineitem.
func (r *runner) timeCheckpoint(db *x100.DB) error {
	id := r.spans.begin("x100.Checkpoint", r.root)
	t0 := time.Now()
	_, err := db.Checkpoint("lineitem")
	d := time.Since(t0)
	r.spans.end(id, nil)
	r.layer["core.checkpoint_ms"] = metric{float64(d.Nanoseconds()) / 1e6, "ms"}
	return err
}

// Scan probe settings: the lineitem columns the reader probes sweep (one of
// each storage shape: clustered and plain int32, date, float, enum code),
// repeated probeRepeats times with the median kept.
var probeColumns = []string{"l_orderkey", "l_linenumber", "l_shipdate", "l_extendedprice", "l_quantity", "l_returnflag"}

const (
	probeRepeats    = 3
	walProbeInserts = 2000
)

// probes measures single layers outside the workload's stream, the same
// way on every workload: it saves lineitem to a store of its own, sweeps
// it through colstore readers in memory and freshly attached from disk,
// and times durable single-row inserts into the saved copy.
func (r *runner) probes(gen *core.Database) error {
	id := r.spans.begin("probes", r.root)
	defer r.spans.end(id, nil)
	lt, err := gen.Table("lineitem")
	if err != nil {
		return err
	}
	dir := filepath.Join(r.dir, "probe")
	saveT, err := r.save(gen, dir, id, "lineitem")
	if err != nil {
		return err
	}
	r.layer["columnbm.save_s"] = metric{saveT.Seconds(), "s"}

	var attachMs, cold, mem []float64
	for range probeRepeats {
		mbps, err := r.sweep("colstore.mem_scan", lt, id)
		if err != nil {
			return err
		}
		mem = append(mem, mbps)

		store, err := columnbm.NewStore(dir, 0, 0)
		if err != nil {
			return err
		}
		aid := r.spans.begin("columnbm.AttachTable", id)
		t0 := time.Now()
		disk, err := store.AttachTable("lineitem")
		attachMs = append(attachMs, float64(time.Since(t0).Nanoseconds())/1e6)
		r.spans.end(aid, nil)
		if err != nil {
			return err
		}
		if mbps, err = r.sweep("columnbm.cold_scan", disk, id); err != nil {
			return err
		}
		cold = append(cold, mbps)
	}
	r.layer["columnbm.attach_ms"] = metric{median(attachMs), "ms"}
	r.layer["columnbm.cold_scan_mb_per_s"] = metric{median(cold), "MB/s"}
	r.layer["colstore.mem_scan_mb_per_s"] = metric{median(mem), "MB/s"}
	return r.walProbe(dir, lt, id)
}

// sweep reads the probe columns of t through colstore fragment readers,
// one vector at a time, and returns the decoded bandwidth.
func (r *runner) sweep(name string, t *colstore.Table, parent int) (float64, error) {
	id := r.spans.begin(name, parent)
	defer r.spans.end(id, nil)
	var bytes int64
	var sink int64
	t0 := time.Now()
	for _, name := range probeColumns {
		c := t.Col(name)
		if c == nil {
			return 0, fmt.Errorf("probe: lineitem has no column %s", name)
		}
		rd := c.Reader()
		for lo := 0; lo < c.Len(); {
			_, fe := c.FragSpan(lo)
			hi := min(lo+vector.DefaultBatchSize, fe)
			v, err := rd.Vector(lo, hi)
			if err != nil {
				return 0, fmt.Errorf("probe scan %s: %w", name, err)
			}
			sink += int64(v.Len())
			lo = hi
		}
		bytes += int64(c.Len() * c.PhysType().Width())
	}
	d := time.Since(t0)
	if sink == 0 {
		return 0, fmt.Errorf("probe: lineitem is empty")
	}
	return float64(bytes) / 1e6 / d.Seconds(), nil
}

// walProbe times durable single-row inserts, closed loop, into the probe's
// copy of lineitem: the write-ahead log's append and fsync per row.
func (r *runner) walProbe(dir string, lt *colstore.Table, parent int) error {
	db := x100.NewDB(x100.WithDurability(x100.DurabilityGroup))
	defer db.Close()
	if err := db.AttachDisk(dir, "lineitem"); err != nil {
		return err
	}
	row := tableRow(lt, lt.N-1)
	lat := make([]float64, 0, walProbeInserts)
	for range walProbeInserts {
		id := r.spans.begin("insert", parent)
		t0 := time.Now()
		err := db.Insert("lineitem", row...)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		r.spans.end(id, nil)
		r.attempt("probe insert", err)
	}
	r.layer["columnbm.insert_p50_ms"] = metric{percentile(lat, 50), "ms"}
	r.layer["columnbm.insert_p99_ms"] = metric{percentile(lat, 99), "ms"}
	return nil
}

// tableRow returns row i of t as boxed values in schema order.
func tableRow(t *colstore.Table, i int) []any {
	row := make([]any, len(t.Cols))
	for c, col := range t.Cols {
		row[c] = col.DecodedValue(i)
	}
	return row
}
