package core

import (
	"fmt"
	"slices"
	"strings"

	"x100/internal/colstore"
	"x100/internal/delta"
	"x100/internal/primitives"
	"x100/internal/vector"
)

// CodeSuffix marks a request for the raw enumeration codes of an enum
// column: scanning "l_returnflag#" yields the uint8/uint16 codes instead of
// decoded values. The matching dictionary is exposed as the mapping table
// "l_returnflag#dict" with a single "value" column, so plans can group by
// the small code domain (DirectAggr) and rehydrate values with a Fetch1Join
// — exactly the paper's enum machinery (Sections 4.3, 5.1).
const CodeSuffix = "#"

// DictSuffix names dictionary mapping tables.
const DictSuffix = "#dict"

type scanCol struct {
	name    string
	col     *colstore.Column
	ti      int // index of col in the table view (its delta column)
	isRowID bool
	rawCode bool
	// dictRead marks a logical read served through the code domain: enum
	// columns and merged-dict string columns scan their narrow codes and
	// gather the decoded values through the shared dictionary — only for
	// rows that survive the selection vector (late materialization).
	dictRead bool
	typ      vector.Type // output type
	// reader streams the column's base fragments, materializing at most
	// one (decompressed ColumnBM chunk or in-memory slice) at a time.
	reader *colstore.FragReader
	// buf is the decode buffer of a dictRead column, or the code buffer a
	// rawCode column encodes delta rows into.
	buf *vector.Vector
}

// newReader creates the column's fragment reader: a "<col>#" scan of a
// merged-dict string column needs the code-mode reader (its Vector serves
// codes); every other column — including dictRead columns, which ask for
// codes explicitly via CodeVector — uses the plain reader.
func (sc *scanCol) newReader() *colstore.FragReader {
	if sc.col == nil {
		return nil
	}
	if sc.rawCode && !sc.col.IsEnum() {
		return sc.col.CodeReader()
	}
	return sc.col.Reader()
}

// domainValues returns the shared dictionary of a dictRead/rawCode string
// column.
func (sc *scanCol) domainDict() *colstore.Dict {
	if d, _, ok := sc.col.CodeDomain(); ok {
		return d
	}
	return sc.col.Dict // float enums
}

type scanOp struct {
	db *Database
	// view is the query's frozen view of the table (column set, base row
	// count); dsnap is the matching delta snapshot. Both come from the
	// plan's snapshot set, so a concurrent checkpoint or compaction never
	// changes what this scan reads.
	view   *tableView
	dsnap  *delta.Snapshot
	cols   []scanCol
	schema vector.Schema
	opts   ExecOptions
	// lo, hi bound the scanned base rows (summary-index pruning). The row
	// domain is [lo,hi) followed by the snapshot's delta rows
	// [view.n, view.n+NumDeltaRows()), which keep their global row ids.
	lo, hi int

	// shared, when non-nil, makes this a partitioned scan: the operator
	// claims row-range morsels from a dispenser shared with sibling scans
	// on other goroutines, so they balance the work dynamically. A serial
	// scan claims from a private dispenser created at Open.
	shared  *morselSource
	morsels *morselSource

	pos, end int // unscanned rows [pos,end) of the current morsel
	rowIDBuf []int32
	selBuf   []int32
	batch    *vector.Batch
}

func newScanOp(db *Database, table string, cols []string, opts ExecOptions) (*scanOp, error) {
	v, err := opts.snaps.view(table)
	if err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		for _, c := range v.cols {
			cols = append(cols, c.Name)
		}
	}
	op := &scanOp{db: db, view: v, dsnap: v.delta, opts: opts, lo: 0, hi: v.n}
	for _, name := range cols {
		sc := scanCol{name: name}
		switch {
		case name == "#rowid":
			sc.isRowID = true
			sc.typ = vector.Int32
		case strings.HasSuffix(name, CodeSuffix):
			base := strings.TrimSuffix(name, CodeSuffix)
			c := v.col(base)
			if c == nil {
				return nil, fmt.Errorf("core: table %s has no column %q", table, base)
			}
			sc.col = c
			sc.rawCode = true
			switch {
			case c.IsEnum():
				sc.typ = c.PhysType()
			default:
				_, phys, ok := c.CodeDomain()
				if !ok {
					return nil, fmt.Errorf("core: %s.%s is not an enum or dict-compressed column", table, base)
				}
				sc.typ = phys
			}
		default:
			c := v.col(name)
			if c == nil {
				return nil, fmt.Errorf("core: table %s has no column %q", table, name)
			}
			sc.col = c
			sc.typ = c.Typ
			if c.IsEnum() {
				sc.dictRead = true
			} else if _, _, ok := c.CodeDomain(); ok {
				sc.dictRead = true
			}
		}
		sc.ti = slices.Index(v.cols, sc.col)
		op.cols = append(op.cols, sc)
		op.schema = append(op.schema, vector.Field{Name: name, Type: sc.typ})
	}
	return op, nil
}

func (s *scanOp) Schema() vector.Schema { return s.schema }

func (s *scanOp) Open() error {
	s.morsels = s.shared
	if s.morsels == nil {
		s.morsels = s.newMorselSource()
	}
	s.pos, s.end = 0, 0
	// Buffers are sized to the actual batch length: with vector sizes far
	// beyond the table size (Figure 10's right edge) a batch is at most the
	// table itself.
	n := min(s.opts.batchSize(), max(s.hi-s.lo, s.dsnap.NumDeltaRows(), 1))
	s.rowIDBuf = make([]int32, n)
	s.selBuf = make([]int32, 0, n)
	for i := range s.cols {
		sc := &s.cols[i]
		sc.reader = sc.newReader()
		if sc.dictRead || sc.rawCode {
			sc.buf = vector.New(sc.typ, n)
		}
	}
	s.batch = &vector.Batch{Schema: s.schema, Vecs: make([]*vector.Vector, len(s.cols))}
	// Charge the scan's decode/row-id buffers against the query budget.
	s.opts.life.reserve(batchBytes(len(s.cols)+1, n))
	return nil
}

// newMorselSource creates a dispenser over the scan's row domain: the
// pruned base rows, with morsels aligned to the ColumnBM chunk grid of
// disk-backed tables so workers never split (and thus never redundantly
// decompress) a chunk, then the delta rows.
func (s *scanOp) newMorselSource() *morselSource {
	n := s.view.n
	return newMorselSource(s.lo, s.hi, n, n+s.dsnap.NumDeltaRows(), s.view.chunkRows, s.opts)
}

// Close flushes the readers' decode counters into the tracer.
func (s *scanOp) Close() error {
	tr := s.opts.Tracer
	for i := range s.cols {
		if r := s.cols[i].reader; r != nil {
			tr.RecordCounter("scan_decoded_values", r.Stats.DecodedValues)
			tr.RecordCounter("scan_decoded_bytes", r.Stats.DecodedBytes)
			tr.RecordCounter("scan_skipped_values", r.Stats.SkippedValues)
			tr.RecordCounter("scan_skipped_bytes", r.Stats.SkippedBytes)
			r.Stats = colstore.ReaderStats{}
		}
	}
	return nil
}

// claimRange returns the next batch row range [lo, hi). A batch never
// spans a morsel, so never the base/delta boundary, and a base batch never
// spans a fragment boundary: each column's reader then holds exactly one
// materialized fragment per batch. ok=false means the scan's morsels are
// exhausted.
func (s *scanOp) claimRange() (int, int, bool) {
	for s.pos >= s.end {
		// A morsel claim is the natural scheduling quantum: offer the
		// worker's admission slot to the oldest waiter so concurrent
		// queries rotate over the shared pool (serial scans hold no slot).
		// Yield only fails when the query was abandoned while re-queued —
		// end the scan.
		if !s.opts.slot.Yield() {
			return 0, 0, false
		}
		lo, hi, ok := s.morsels.claim()
		if !ok {
			return 0, 0, false
		}
		s.pos, s.end = lo, hi
	}
	lo := s.pos
	hi := min(lo+s.opts.batchSize(), s.end)
	if lo < s.view.n {
		for i := range s.cols {
			if c := s.cols[i].col; c != nil {
				if _, fe := c.FragSpan(lo); fe < hi {
					hi = fe
				}
			}
		}
	}
	s.pos = hi
	return lo, hi, true
}

// deletionSel fills the scan's selection buffer with the positions of
// [lo,hi) not on the deletion list.
func (s *scanOp) deletionSel(lo, hi int) []int32 {
	sel := s.selBuf[:0]
	for j := 0; j < hi-lo; j++ {
		if !s.dsnap.IsDeleted(int32(lo + j)) {
			sel = append(sel, int32(j))
		}
	}
	s.selBuf = sel
	return sel
}

// fillCol materializes column i of the current batch over [lo,hi). sel
// (batch-relative positions, nil = all) is the selection known so far:
// dictionary-backed columns decode only the selected rows.
func (s *scanOp) fillCol(i, lo, hi int, sel []int32) error {
	sc := &s.cols[i]
	k := hi - lo
	switch {
	case sc.isRowID:
		ids := s.rowIDBuf[:k]
		for j := range ids {
			ids[j] = int32(lo + j)
		}
		s.batch.Vecs[i] = vector.FromInt32s(ids)
	case lo >= s.view.n:
		v, err := s.deltaVector(sc, lo-s.view.n, hi-s.view.n)
		if err != nil {
			return err
		}
		s.batch.Vecs[i] = v
	case sc.dictRead:
		v, err := s.decodeDict(sc, lo, hi, sel)
		if err != nil {
			return err
		}
		s.batch.Vecs[i] = v
	case sc.rawCode:
		v, err := sc.reader.Vector(lo, hi)
		if err != nil {
			return err
		}
		v.Typ = sc.typ
		s.batch.Vecs[i] = v
	default:
		v, err := sc.reader.VectorSel(lo, hi, sel)
		if err != nil {
			return err
		}
		v.Typ = sc.typ
		s.batch.Vecs[i] = v
	}
	return nil
}

// Next returns the next batch of the row domain. Deletions (of base or
// delta rows) become a selection vector, so pending writes never leave the
// vectorized path or stop a scan from partitioning.
func (s *scanOp) Next() (*vector.Batch, error) {
	hasDel := s.dsnap.NumDeleted() > 0
	for {
		// Batch boundary: the cancellation/budget check of this pipeline.
		if err := s.opts.life.check(); err != nil {
			return nil, err
		}
		lo, hi, ok := s.claimRange()
		if !ok {
			return nil, nil
		}
		k := hi - lo
		b := s.batch
		b.N = k
		b.Sel = nil
		var sel []int32
		if hasDel {
			sel = s.deletionSel(lo, hi)
			if len(sel) == 0 {
				continue // fully deleted batch: pull the next range
			}
			if len(sel) == k {
				sel = nil
			}
		}
		for i := range s.cols {
			if err := s.fillCol(i, lo, hi, sel); err != nil {
				return nil, err
			}
		}
		b.Sel = sel
		return b, nil
	}
}

// decodeDict gathers dictionary values through the code vector — the
// automatic Fetch1Join against the mapping table (map_fetch_uchr_col in
// Table 5 of the paper). With a selection vector only surviving rows are
// materialized: the decompress-only-what-you-use scan path.
func (s *scanOp) decodeDict(sc *scanCol, lo, hi int, sel []int32) (*vector.Vector, error) {
	k := hi - lo
	out := sc.buf.Slice(0, k)
	out.Typ = sc.typ
	codes, err := sc.reader.CodeVector(lo, hi)
	if err != nil {
		return nil, err
	}
	tr := s.opts.Tracer
	t0 := tr.Now()
	var name string
	dict := sc.domainDict()
	if sc.typ.Physical() == vector.Float64 {
		base := dict.Floats()
		if codes.Typ == vector.UInt8 {
			primitives.GatherColU8(out.Float64s(), base, codes.UInt8s(), sel)
			name = "map_fetch_uchr_col_flt_col"
		} else {
			primitives.GatherColU16(out.Float64s(), base, codes.UInt16s(), sel)
			name = "map_fetch_usht_col_flt_col"
		}
	} else {
		base := dict.Strings()
		if codes.Typ == vector.UInt8 {
			primitives.GatherColU8(out.Strings(), base, codes.UInt8s(), sel)
			name = "map_fetch_uchr_col_str_col"
		} else {
			primitives.GatherColU16(out.Strings(), base, codes.UInt16s(), sel)
			name = "map_fetch_usht_col_str_col"
		}
	}
	live := k
	if sel != nil {
		live = len(sel)
		width := int64(16) // string header estimate
		if sc.typ.Physical() == vector.Float64 {
			width = 8
		}
		tr.RecordCounter("scan_skipped_values", int64(k-live))
		tr.RecordCounter("scan_skipped_bytes", int64(k-live)*width)
	}
	tr.RecordPrimitiveSince(name, t0, live, live+8*live)
	return out, nil
}

// deltaVector serves delta rows [lo,hi) (0-based within the delta) of a
// scan column from the snapshot's uncompressed delta columns; only a
// "<col>#" scan encodes them, one value at a time.
func (s *scanOp) deltaVector(sc *scanCol, lo, hi int) (*vector.Vector, error) {
	if !sc.rawCode {
		v := s.dsnap.DeltaVector(sc.ti, lo, hi)
		v.Typ = sc.typ
		return v, nil
	}
	out := sc.buf.Slice(0, hi-lo)
	for j := range hi - lo {
		val, err := s.deltaValue(sc, lo+j)
		if err != nil {
			return nil, err
		}
		out.Set(j, val)
	}
	return out, nil
}

// deltaValue encodes delta row j of a "<col>#" column into the dictionary
// code space. Enum dictionaries are append-only and grow with the delta
// (the existing insert contract); the attach-time merged dictionary of a
// dict-compressed disk column is a shared immutable snapshot — growing it
// would desynchronize compiled predicate translations and the registered
// "<col>#dict" mapping table — so an unseen value is an explicit error
// (checkpoint or reorganize first, then re-attach).
func (s *scanOp) deltaValue(sc *scanCol, j int) (any, error) {
	val := s.dsnap.DeltaValue(sc.ti, j)
	if d := sc.col.Dict; d != nil {
		if d.Typ == vector.Float64 {
			return sc.encodeCode(d.CodeF64(val.(float64))), nil
		}
		return sc.encodeCode(d.Code(val.(string))), nil
	}
	return sc.lookupCode(val.(string))
}

// lookupCode translates a string through a merged-dict column's shared
// dictionary without inserting.
func (sc *scanCol) lookupCode(s string) (any, error) {
	code, ok := sc.domainDict().Lookup(s)
	if !ok {
		return nil, fmt.Errorf("core: column %s: value %q is not in the attached merged dictionary (checkpoint/reorganize and re-attach before scanning %s%s)",
			sc.col.Name, s, sc.col.Name, CodeSuffix)
	}
	return sc.encodeCode(code), nil
}

// encodeCode casts a dictionary code to the column's code vector type.
func (sc *scanCol) encodeCode(code int) any {
	if sc.typ == vector.UInt8 {
		return uint8(code)
	}
	return uint16(code)
}

// arrayOp generates all coordinates of an N-dimensional array in
// column-major dimension order (paper Section 4.1.2).
type arrayOp struct {
	dims   []int
	schema vector.Schema
	opts   ExecOptions
	total  int
	pos    int
}

func newArrayOp(dims []int, opts ExecOptions) *arrayOp {
	total := 1
	schema := make(vector.Schema, len(dims))
	for i, d := range dims {
		total *= d
		schema[i] = vector.Field{Name: fmt.Sprintf("dim%d", i), Type: vector.Int32}
	}
	if len(dims) == 0 {
		total = 0
	}
	return &arrayOp{dims: dims, schema: schema, total: total, opts: opts}
}

func (a *arrayOp) Schema() vector.Schema { return a.schema }
func (a *arrayOp) Open() error           { a.pos = 0; return nil }
func (a *arrayOp) Close() error          { return nil }

func (a *arrayOp) Next() (*vector.Batch, error) {
	if a.pos >= a.total {
		return nil, nil
	}
	bs := a.opts.batchSize()
	if bs <= 0 {
		bs = vector.DefaultBatchSize
	}
	k := min(bs, a.total-a.pos)
	b := &vector.Batch{Schema: a.schema, Vecs: make([]*vector.Vector, len(a.dims)), N: k}
	for d := range a.dims {
		b.Vecs[d] = vector.New(vector.Int32, k)
	}
	for j := 0; j < k; j++ {
		idx := a.pos + j
		// Column-major: dim0 varies fastest.
		for d := 0; d < len(a.dims); d++ {
			b.Vecs[d].Int32s()[j] = int32(idx % a.dims[d])
			idx /= a.dims[d]
		}
	}
	a.pos += k
	return b, nil
}
