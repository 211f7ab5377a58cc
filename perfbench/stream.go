package main

import (
	"fmt"
	"time"

	"x100"
)

// query is one TPC-H query with its plan and the oracle's answer.
type query struct {
	num  int
	plan x100.Node
	want answer
}

// oracle computes each query's answer once with the column-at-a-time MIL
// engine, which shares no execution code with the vectorized engine
// beyond the scalar primitives. It runs before any timing starts.
func (r *runner) oracle(db *x100.DB, sf float64, nums ...int) ([]query, error) {
	id := r.spans.begin("oracle", r.root)
	defer r.spans.end(id, nil)
	qs := make([]query, 0, len(nums))
	for _, n := range nums {
		plan, err := streamPlan(n, sf)
		if err != nil {
			return nil, err
		}
		res, err := db.Exec(plan, x100.WithEngine(x100.MIL))
		if err != nil {
			return nil, fmt.Errorf("oracle Q%d: %w", n, err)
		}
		qs = append(qs, query{num: n, plan: plan, want: toAnswer(res)})
	}
	return qs, nil
}

func allQueries() []int {
	nums := make([]int, 22)
	for i := range nums {
		nums[i] = i + 1
	}
	return nums
}

// layerTotals accumulates the engine tracer's operator and primitive totals
// over traced query executions.
type layerTotals struct {
	opNanos    map[string]int64
	primNanos  map[string]int64
	primTuples map[string]int64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{opNanos: map[string]int64{}, primNanos: map[string]int64{}, primTuples: map[string]int64{}}
}

// add folds one query's tracer into the totals and returns the per-query
// breakdown attached to the query's span.
func (lt *layerTotals) add(tr *x100.Tracer) map[string]any {
	ops := map[string]float64{}
	for _, s := range tr.Operators() {
		lt.opNanos[s.Name] += s.Nanos
		ops[s.Name] = float64(s.Nanos) / 1e6
	}
	prims := map[string]float64{}
	for _, s := range tr.Primitives() {
		lt.primNanos[s.Name] += s.Nanos
		lt.primTuples[s.Name] += s.Tuples
		prims[s.Name] = float64(s.Nanos) / 1e6
	}
	return map[string]any{"operators_ms": ops, "primitives_ms": prims}
}

// exec runs one query, checks it against the oracle and returns its
// latency. With lt set it runs traced and folds the tracer into lt.
func (r *runner) exec(db *x100.DB, q query, parent int, lt *layerTotals, opts ...x100.ExecOption) (time.Duration, bool) {
	var tr *x100.Tracer
	if lt != nil {
		tr = x100.NewTracer()
		opts = append(opts[:len(opts):len(opts)], x100.WithTracer(tr))
	}
	id := r.spans.begin(fmt.Sprintf("query Q%02d", q.num), parent)
	t0 := time.Now()
	res, err := db.Exec(q.plan, opts...)
	d := time.Since(t0)
	var attrs map[string]any
	if tr != nil && err == nil {
		attrs = lt.add(tr)
	}
	r.spans.end(id, attrs)
	if err == nil {
		err = sameAnswer(q.want, toAnswer(res))
	}
	r.attempt(fmt.Sprintf("Q%d", q.num), err)
	return d, err == nil
}

// streamStats is what a run of query passes measured.
type streamStats struct {
	perQuery map[int][]time.Duration // untraced latencies by query number
	all      []time.Duration         // every untraced latency
	passes   []time.Duration         // untraced pass times
	traced   []time.Duration         // traced pass times
	layers   *layerTotals
}

// stream runs passes over qs in order, closed loop, until window has
// passed; only whole passes are measured. With alternate set, every second
// pass runs traced, so traced and untraced passes see the same conditions,
// and there are at least two passes; otherwise at least one.
func (r *runner) stream(db *x100.DB, qs []query, window time.Duration, alternate bool, opts ...x100.ExecOption) *streamStats {
	st := &streamStats{perQuery: map[int][]time.Duration{}, layers: newLayerTotals()}
	minPasses := 1
	if alternate {
		minPasses = 2
	}
	deadline := time.Now().Add(window)
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		traced := alternate && i%2 == 1
		var lt *layerTotals
		name := "pass"
		if traced {
			lt, name = st.layers, "traced pass"
		}
		id := r.spans.begin(name, r.root)
		var pass time.Duration
		lat := make(map[int]time.Duration, len(qs))
		ok := true
		for _, q := range qs {
			d, good := r.exec(db, q, id, lt, opts...)
			pass += d
			lat[q.num] = d
			ok = ok && good
		}
		r.spans.end(id, nil)
		if !ok {
			continue // failures are counted; their times are not
		}
		if traced {
			st.traced = append(st.traced, pass)
			continue
		}
		st.passes = append(st.passes, pass)
		for n, d := range lat {
			st.perQuery[n] = append(st.perQuery[n], d)
			st.all = append(st.all, d)
		}
	}
	return st
}

// report stores the stream's end-to-end metrics.
func (st *streamStats) report(r *runner) {
	var meds []float64
	byQuery := map[string]float64{}
	for n, ds := range st.perQuery {
		m := median(millis(ds))
		meds = append(meds, m)
		byQuery[fmt.Sprintf("q%02d", n)] = m
	}
	var total time.Duration
	for _, p := range st.passes {
		total += p
	}
	all := millis(st.all)
	r.e2e["geomean_ms"] = metric{geomean(meds), "ms"}
	r.e2e["stream_s"] = metric{median(millis(st.passes)) / 1e3, "s"}
	// Pooled percentiles stay out of the end-to-end set: over a fixed mix
	// of query types they read one query type's extreme sample (p95 of the
	// 22-query stream is the slowest non-Q21 run) or fall between two
	// types (p50 of the Q1/Q6 mix), so they jump with single samples.
	r.info["query_p50_ms"] = percentile(all, 50)
	r.info["query_p95_ms"] = percentile(all, 95)
	r.e2e["queries_per_s"] = metric{float64(len(st.all)) / total.Seconds(), "1/s"}
	r.info["query_samples"] = len(st.all)
	r.info["passes"] = len(st.passes)
	r.info["pass_ms"] = millis(st.passes)
	r.info["query_medians_ms"] = byQuery
}

// Operators and kernels reported per layer: the ones that carry most of
// the traced time of the 22-query stream, at parallelism 1 and 2 alike.
var (
	layerOperators = map[string]string{
		"HashJoin(probe)": "hashjoin_probe",
		"HashJoin(build)": "hashjoin_build",
		"Aggr(HASH)":      "aggr_hash",
		"Aggr(DIRECT)":    "aggr_direct",
		"Select":          "select",
	}
	layerKernels = []string{
		"aggr_hashprobe_uidx_col",
		"map_hash_col",
		"map_like_str_col",
		"map_fetch_uchr_col_flt_col",
		"aggr_sumcount_flt_col_uidx_col",
		"fused_sub_mul_flt_val_flt_col_flt_col",
		"select_le_sint_col_sint_val",
		"select_eq_uchr_col_uchr_val",
	}
)

// reportLayers stores the traced stream's per-layer metrics: per-query
// medians, tracer overhead, and operator and primitive totals per pass.
func (st *streamStats) reportLayers(r *runner) {
	for n, ds := range st.perQuery {
		r.layer[fmt.Sprintf("x100.q%02d_ms", n)] = metric{median(millis(ds)), "ms"}
	}
	untraced := median(millis(st.passes))
	if untraced > 0 {
		r.layer["x100.trace_overhead"] = metric{median(millis(st.traced)) / untraced, "ratio"}
	}
	passes := float64(max(len(st.traced), 1))
	for name, key := range layerOperators {
		r.layer["core.op."+key+"_ms"] = metric{float64(st.layers.opNanos[name]) / 1e6 / passes, "ms"}
	}
	for _, k := range layerKernels {
		ns := 0.0
		if t := st.layers.primTuples[k]; t > 0 {
			ns = float64(st.layers.primNanos[k]) / float64(t)
		}
		r.layer["primitives."+k+"_ns_per_tuple"] = metric{ns, "ns"}
	}
	var self int64
	for _, ns := range st.layers.primNanos {
		self += ns
	}
	r.layer["primitives.self_ms"] = metric{float64(self) / 1e6 / passes, "ms"}
	r.info["traced_passes"] = len(st.traced)
	r.info["untraced_passes"] = len(st.passes)
}
