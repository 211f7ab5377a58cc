package main

import (
	"errors"

	"x100"
	"x100/internal/algebra"
	"x100/internal/expr"
)

// streamPlan returns the plan the benchmark runs for TPC-H query n: the
// engine's own plan, except that Q15 matches its maximum within floatTol.
func streamPlan(n int, sf float64) (x100.Node, error) {
	plan, err := x100.TPCHQuery(n, sf)
	if err != nil || n != 15 {
		return plan, err
	}
	return matchMaxWithinTol(plan)
}

// matchMaxWithinTol rewrites Q15's top-supplier match. The engine's plan
// computes the revenue view twice and equi-joins the two float sums on
// total_revenue = max_rev. Parallel aggregation adds in an order that
// changes from run to run, so the two sums can differ in their last bits,
// and the query then returns no rows (124 of 300 runs at parallelism 2 on
// the SF 0.1 data of tpch.Generate's default seed). The rewrite joins the
// view with its one-row maximum without a key and keeps the suppliers
// within floatTol of it, the tolerance the oracle comparison allows, so
// the answer no longer depends on summation order. The rest of the plan is
// the engine's.
func matchMaxWithinTol(plan x100.Node) (x100.Node, error) {
	errShape := errors.New("Q15: plan is not Order(Project(Join(Join(view, max), supplier))); revisit matchMaxWithinTol")
	o, ok := plan.(*algebra.Order)
	if !ok {
		return nil, errShape
	}
	p, ok := o.Input.(*algebra.Project)
	if !ok {
		return nil, errShape
	}
	sj, ok := p.Input.(*algebra.Join)
	if !ok {
		return nil, errShape
	}
	best, ok := sj.Left.(*algebra.Join)
	if !ok || len(best.On) != 1 || best.On[0] != (algebra.EquiCond{L: "total_revenue", R: "max_rev"}) {
		return nil, errShape
	}
	sj.Left = algebra.NewSelect(algebra.NewJoin(best.Left, best.Right),
		expr.GEE(expr.C("total_revenue"), expr.MulE(expr.C("max_rev"), expr.Float(1-floatTol))))
	return plan, nil
}
