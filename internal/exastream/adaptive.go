package exastream

import (
	"strings"

	"repro/internal/engine"
	"repro/internal/sql"
)

// adaptPlan rewrites hash joins whose build side is a full scan of a
// static base table into lookup joins against that table, so every
// window probes the table's index instead of rebuilding a hash table.
func (e *Engine) adaptPlan(p engine.Plan) engine.Plan {
	var rec func(p engine.Plan) engine.Plan
	rec = func(p engine.Plan) engine.Plan {
		switch n := p.(type) {
		case *engine.HashJoinPlan:
			left := rec(n.Left)
			right := rec(n.Right)
			if !n.LeftOuter {
				if lj, ok := e.toLookupJoin(left, right, n.LeftKeys, n.RightKeys, n.Residual); ok {
					return lj
				}
				if lj, ok := e.toLookupJoin(right, left, n.RightKeys, n.LeftKeys, n.Residual); ok {
					// Column order flips; the schema does too, which is fine
					// because residual and projection reference columns by
					// name. Only safe when the residual still resolves;
					// checked inside toLookupJoin.
					return lj
				}
			}
			return engine.NewHashJoinPlan(left, right, n.LeftKeys, n.RightKeys, n.Residual, n.LeftOuter)
		case *engine.NestedLoopJoinPlan:
			left := rec(n.Left)
			right := rec(n.Right)
			return engine.NewNestedLoopJoinPlan(left, right, n.On, n.LeftOuter)
		case *engine.FilterPlan:
			return &engine.FilterPlan{Input: rec(n.Input), Pred: n.Pred}
		case *engine.ProjectPlan:
			return engine.NewProjectPlan(rec(n.Input), n.Exprs, n.Names)
		case *engine.SortPlan:
			return &engine.SortPlan{Input: rec(n.Input), Items: n.Items}
		case *engine.DistinctPlan:
			return &engine.DistinctPlan{Input: rec(n.Input)}
		case *engine.LimitPlan:
			return &engine.LimitPlan{Input: rec(n.Input), N: n.N}
		case *engine.AggregatePlan:
			return engine.NewAggregatePlan(rec(n.Input), n.GroupExprs, n.Aggs)
		case *engine.UnionPlan:
			inputs := make([]engine.Plan, len(n.Inputs))
			for i, in := range n.Inputs {
				inputs[i] = rec(in)
			}
			return &engine.UnionPlan{Inputs: inputs, Distinct: n.Distinct}
		default:
			return p
		}
	}
	return rec(p)
}

// toLookupJoin converts (probeSide, buildSide) into a lookup join when
// the build side is a plain scan of a catalog table and the build keys
// are bare columns of it.
func (e *Engine) toLookupJoin(probeSide, buildSide engine.Plan, probeKeys, buildKeys []sql.Expr, residual sql.Expr) (engine.Plan, bool) {
	scan, ok := buildSide.(*engine.ScanPlan)
	if !ok || len(buildKeys) == 0 {
		return nil, false
	}
	table, err := e.catalog.Get(scan.Table)
	if err != nil {
		return nil, false
	}
	cols := make([]string, len(buildKeys))
	for i, k := range buildKeys {
		cr, ok := k.(*sql.ColumnRef)
		if !ok {
			return nil, false
		}
		// The scan qualifies columns by its alias; strip it.
		if cr.Table != "" && !strings.EqualFold(cr.Table, scan.Alias) {
			return nil, false
		}
		cols[i] = cr.Name
	}
	lj := engine.NewLookupJoinPlan(probeSide, scan.Table, scan.Alias, table.Schema(), probeKeys, cols, residual)
	// The lookup join's output schema must contain everything the
	// residual references.
	if residual != nil && !engine.ResolvesAgainst(residual, lj.Schema()) {
		return nil, false
	}
	return lj, true
}

// indexPlan builds a hash index for every lookup pattern in p: each
// lookup join's and index scan's (table, columns). This is the paper's
// adaptive main-memory indexing with a threshold of one lookup: the
// pattern is known once the plan is built, so the plan's first window
// already probes the index. Creating an index that exists is a no-op.
func (e *Engine) indexPlan(p engine.Plan) {
	var table string
	var cols []string
	switch n := p.(type) {
	case *engine.LookupJoinPlan:
		table, cols = n.Table, n.TableCols
	case *engine.IndexScanPlan:
		table, cols = n.Table, n.Cols
	}
	if table != "" {
		if t, err := e.catalog.Get(table); err == nil {
			// Plans of several queries can be built at once; e.mu makes
			// check, build and count one step, so each index counts once.
			e.mu.Lock()
			if !t.HasIndex(cols...) && t.CreateIndex(cols...) == nil {
				e.met.adaptiveIndexes.Inc()
			}
			e.mu.Unlock()
		}
	}
	for _, c := range p.Children() {
		e.indexPlan(c)
	}
}
