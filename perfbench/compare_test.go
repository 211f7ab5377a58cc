package main

import (
	"strings"
	"testing"

	"x100"
)

// resultOf runs a plan over a small in-memory table and returns its answer.
func resultOf(t *testing.T, prices []float64) answer {
	t.Helper()
	db := x100.NewDB()
	err := db.CreateTable("t",
		x100.ColumnData{Name: "k", Type: x100.Int32T, Data: []int32{3, 1, 2, 1}},
		x100.ColumnData{Name: "s", Type: x100.StringT, Data: []string{"c", "a", "b", "a"}},
		x100.ColumnData{Name: "p", Type: x100.Float64T, Data: prices},
	)
	if err != nil {
		t.Fatal(err)
	}
	q := x100.ScanT("t", "k", "s", "p").AggrBy(
		[]x100.Named{x100.Keep("k"), x100.Keep("s")},
		x100.SumA("sum_p", x100.Col("p")), x100.CountA("n"))
	res, err := db.Exec(q.Node())
	if err != nil {
		t.Fatal(err)
	}
	return toAnswer(res)
}

func TestSameAnswerAcceptsEqualResults(t *testing.T) {
	prices := []float64{1.25, 2.5, 3.75, 0.1}
	if err := sameAnswer(resultOf(t, prices), resultOf(t, prices)); err != nil {
		t.Fatal(err)
	}
}

func TestSameAnswerFlagsOnePerturbedCell(t *testing.T) {
	want := resultOf(t, []float64{1.25, 2.5, 3.75, 0.1})
	got := resultOf(t, []float64{1.25, 2.5, 3.75, 0.1 + 1e-6})
	err := sameAnswer(want, got)
	if err == nil || !strings.Contains(err.Error(), "column 2") {
		t.Fatalf("perturbed sum not flagged on column 2: %v", err)
	}
}

func TestSameAnswerCells(t *testing.T) {
	base := answer{cols: 3, rows: [][]any{
		{int32(1), "a", 1000.0},
		{int32(2), "b", 0.5},
	}}
	perturb := func(row, col int, v any) answer {
		rows := make([][]any, len(base.rows))
		for i, r := range base.rows {
			rows[i] = append([]any(nil), r...)
		}
		rows[row][col] = v
		return answer{cols: base.cols, rows: rows}
	}
	for _, c := range []struct {
		name string
		got  answer
		ok   bool
	}{
		{"identical", perturb(0, 0, int32(1)), true},
		{"float within tolerance", perturb(0, 2, 1000.0*(1+1e-12)), true},
		{"small float within absolute tolerance", perturb(1, 2, 0.5+1e-12), true},
		{"float off by 1e-6 relative", perturb(0, 2, 1000.0*(1+1e-6)), false},
		{"int changed", perturb(1, 0, int32(3)), false},
		{"string changed", perturb(1, 1, "c"), false},
		{"type changed", perturb(0, 0, int64(1)), false},
		{"missing row", answer{cols: 3, rows: base.rows[:1]}, false},
		{"extra column", answer{cols: 4, rows: base.rows}, false},
	} {
		err := sameAnswer(base, c.got)
		if (err == nil) != c.ok {
			t.Errorf("%s: sameAnswer = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCompareRowsOrdersTiesByLaterCells(t *testing.T) {
	a := []any{int32(1), "a", 2.0}
	b := []any{int32(1), "a", 3.0}
	if compareRows(a, b) >= 0 || compareRows(b, a) <= 0 || compareRows(a, a) != 0 {
		t.Fatal("compareRows does not order rows by their first differing cell")
	}
}
