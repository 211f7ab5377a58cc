package main

import (
	"errors"
	"runtime"

	"x100"
)

const (
	// tpchSF is the scale factor of both TPC-H stream workloads.
	tpchSF = 0.1
	// streamParallelism is the worker count of every stream query: one
	// per core of the 2-core hosts the benchmark was sized on.
	streamParallelism = 2
	// diskCacheBytes is the decoded-chunk cache of tpch-disk. The stream's
	// decoded working set at SF 0.1 is about 45 MB; a cache 1/5 of the
	// 64 MiB default keeps it ~3.5x larger than the cache, the ratio the
	// default cache has to the SF 0.5 working set. So every pass reads,
	// checks and decodes chunks.
	diskCacheBytes = 64 << 20 / 5
)

func runTPCHMem(r *runner) error {
	return r.runTPCH(func(r *runner, _ string, parent int, t *setupTimes) (*prepared, error) {
		gen, err := r.generate(tpchSF, parent, t)
		if err != nil {
			return nil, err
		}
		db, err := memDB(gen)
		if err != nil {
			return nil, err
		}
		return &prepared{gen: gen, db: db}, nil
	})
}

func runTPCHDisk(r *runner) error {
	return r.runTPCH(func(r *runner, dir string, parent int, t *setupTimes) (*prepared, error) {
		gen, err := r.generate(tpchSF, parent, t)
		if err != nil {
			return nil, err
		}
		if t.save, err = r.save(gen, dir, parent, baseTables...); err != nil {
			return nil, err
		}
		db, d, err := r.attach(dir, parent, x100.WithBufferPool(diskCacheBytes, x100.CacheScanResistant))
		if err != nil {
			return nil, err
		}
		t.attach = d
		return &prepared{gen: gen, db: db, dir: dir}, nil
	})
}

// runTPCH runs the 22 queries in order as repeated passes, closed loop,
// one client, after one warm-up pass.
func (r *runner) runTPCH(setup setupFunc) error {
	p, err := r.setUp(setup)
	if err != nil {
		return err
	}
	defer p.release()
	if err := r.storedRatio(p); err != nil {
		return err
	}
	oracleDB, err := memDB(p.gen)
	if err != nil {
		return err
	}
	qs, err := r.oracle(oracleDB, tpchSF, allQueries()...)
	if err != nil {
		return err
	}
	if r.traced {
		if err := r.probes(p.gen); err != nil {
			return err
		}
	}
	// Drop the in-memory copy (tpch-disk) and collect the oracle's garbage
	// before timing, so the stream is not charged for them.
	p.gen = nil
	runtime.GC()

	opts := []x100.ExecOption{x100.WithParallelism(streamParallelism)}
	if r.traced {
		if err := r.timeBuild(p.db, qs, streamParallelism); err != nil {
			return err
		}
	}
	r.stream(p.db, qs, 0, false, opts...) // a zero window runs one warm-up pass
	before := snapshot(p.db)
	st := r.stream(p.db, qs, r.window, r.traced, opts...)
	after := snapshot(p.db)
	if len(st.passes) == 0 {
		return errNoPasses
	}
	st.report(r)
	if r.traced {
		st.reportLayers(r)
		r.reportCounters(before, after, len(st.passes)+len(st.traced))
		frac, err := p.db.DeltaFraction("lineitem")
		if err != nil {
			return err
		}
		r.layer["delta.fraction_end"] = metric{frac, "ratio"}
		return r.timeCheckpoint(p.db)
	}
	return nil
}

// storedRatio reports the bytes the workload's database occupies per raw
// byte of user data: chunk files on disk, or enum-compressed columns in
// memory.
func (r *runner) storedRatio(p *prepared) error {
	raw, err := rawBytes(p.gen)
	if err != nil {
		return err
	}
	var stored int64
	if p.dir != "" {
		stored, err = dirBytes(p.dir)
	} else {
		stored, err = memBytes(p.gen)
	}
	if err != nil {
		return err
	}
	r.e2e["stored_bytes_ratio"] = metric{float64(stored) / float64(raw), "ratio"}
	r.info["raw_bytes"] = raw
	r.info["stored_bytes"] = stored
	return nil
}

var errNoPasses = errors.New("no query pass completed without a failure")
