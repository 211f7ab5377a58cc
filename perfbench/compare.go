package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"x100"
)

// floatTol is the relative tolerance on float cells: parallel and
// column-at-a-time engines sum in different orders, so aggregates agree
// only to rounding. Below magnitude 1 it acts as an absolute tolerance.
const floatTol = 1e-9

// answer is a query result reduced to sorted boxed rows, the form the
// oracle comparison works on.
type answer struct {
	cols int
	rows [][]any
}

// toAnswer materializes a result and sorts its rows, so answers compare as
// row multisets: queries whose ORDER BY has ties may return tied rows in
// either order.
func toAnswer(r *x100.Result) answer {
	rows := r.Rows()
	slices.SortFunc(rows, compareRows)
	return answer{cols: len(r.Schema), rows: rows}
}

// compareRows orders rows cell by cell; floats compare numerically.
func compareRows(a, b []any) int {
	for i := range min(len(a), len(b)) {
		if c := compareCells(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

func compareCells(a, b any) int {
	switch x := a.(type) {
	case float64:
		if y, ok := b.(float64); ok {
			return cmp.Compare(x, y)
		}
	case int32:
		if y, ok := b.(int32); ok {
			return cmp.Compare(x, y)
		}
	case int64:
		if y, ok := b.(int64); ok {
			return cmp.Compare(x, y)
		}
	case string:
		if y, ok := b.(string); ok {
			return cmp.Compare(x, y)
		}
	}
	return cmp.Compare(fmt.Sprintf("%T:%v", a, a), fmt.Sprintf("%T:%v", b, b))
}

// cellsMatch reports whether two cells are equal, floats within floatTol.
func cellsMatch(want, got any) bool {
	if w, ok := want.(float64); ok {
		g, ok := got.(float64)
		return ok && (w == g || math.Abs(w-g) <= floatTol*math.Max(1, math.Max(math.Abs(w), math.Abs(g))))
	}
	return want == got
}

// sameAnswer returns nil when got matches want, and otherwise an error
// naming the first differing row and column.
func sameAnswer(want, got answer) error {
	if want.cols != got.cols {
		return fmt.Errorf("%d columns, want %d", got.cols, want.cols)
	}
	if len(want.rows) != len(got.rows) {
		return fmt.Errorf("%d rows, want %d", len(got.rows), len(want.rows))
	}
	for i, w := range want.rows {
		for c := range w {
			if !cellsMatch(w[c], got.rows[i][c]) {
				return fmt.Errorf("row %d column %d: got %v, want %v", i, c, got.rows[i][c], w[c])
			}
		}
	}
	return nil
}
