package engine

import (
	"fmt"
	"slices"

	"repro/internal/sql"
)

// Every plan rewrite in this package — the rule pass (Optimize), the
// hash-join→lookup-join adaptation and the cost-based rewrite
// (OptimizeWithStats) — is a rule run by one walk, rewrite, over one
// node rebuilder, withInputs. A rule sees a node whose inputs are
// already rewritten and returns its replacement, or reports no change.

// rewrite applies rule bottom-up: it rewrites p's inputs, rebuilds p
// over them if any changed, then applies rule to the result. No node of
// the input tree is modified, and every subtree the rule leaves alone —
// each leaf included — is returned by identity, so a caller holding
// leaves of the input (the stream engine's window sources) finds them
// in the output.
func rewrite(p Plan, rule func(Plan) (Plan, bool)) (Plan, bool) {
	p, changed := mapInputs(p, func(c Plan) (Plan, bool) { return rewrite(c, rule) })
	if out, ok := rule(p); ok {
		return out, true
	}
	return p, changed
}

// mapInputs applies f to each input of p and rebuilds p over the
// results when f changed any; otherwise it returns p itself.
func mapInputs(p Plan, f func(Plan) (Plan, bool)) (Plan, bool) {
	kids := p.Children()
	var in []Plan
	for i, c := range kids {
		if nc, ok := f(c); ok {
			if in == nil {
				in = slices.Clone(kids)
			}
			in[i] = nc
		}
	}
	if in == nil {
		return p, false
	}
	return withInputs(p, in), true
}

// withInputs returns a copy of p over new inputs, given in Children
// order, with its cached schema recomputed. It is the only place a plan
// node is rebuilt around other inputs.
func withInputs(p Plan, in []Plan) Plan {
	switch n := p.(type) {
	case *FilterPlan:
		return &FilterPlan{Input: in[0], Pred: n.Pred}
	case *ProjectPlan:
		return NewProjectPlan(in[0], n.Exprs, n.Names)
	case *AliasPlan:
		return NewAliasPlan(in[0], n.Alias)
	case *SortPlan:
		return &SortPlan{Input: in[0], Items: n.Items}
	case *DistinctPlan:
		return &DistinctPlan{Input: in[0]}
	case *LimitPlan:
		return &LimitPlan{Input: in[0], N: n.N}
	case *AggregatePlan:
		return NewAggregatePlan(in[0], n.GroupExprs, n.Aggs)
	case *NestedLoopJoinPlan:
		return NewNestedLoopJoinPlan(in[0], in[1], n.On, n.LeftOuter)
	case *HashJoinPlan:
		return NewHashJoinPlan(in[0], in[1], n.LeftKeys, n.RightKeys, n.Residual, n.LeftOuter)
	case *LookupJoinPlan:
		return &LookupJoinPlan{
			Left: in[0], Table: n.Table, Alias: n.Alias,
			LeftKeys: n.LeftKeys, TableCols: n.TableCols, Residual: n.Residual,
			schema: in[0].Schema().Concat(ownColumns(n)),
		}
	case *UnionPlan:
		return &UnionPlan{Inputs: in, Distinct: n.Distinct}
	}
	panic(fmt.Sprintf("engine: cannot rebuild %T over new inputs", p))
}

// Optimize applies the rewrite passes the paper calls out for executing
// unfolded query fleets efficiently (§2: "the queries ... can be very
// inefficient, e.g., they contain many redundant joins and unions"):
//
//  1. duplicate-union-branch elimination,
//  2. predicate pushdown through filters into join inputs,
//  3. cross-product + equality predicate → hash join conversion,
//  4. filter fusion (adjacent filters merge).
//
// Passes iterate to a fixpoint bounded by plan depth.
func Optimize(p Plan) Plan {
	for i := 0; i < 8; i++ {
		var changed bool
		p, changed = rewrite(p, rewriteNode)
		if !changed {
			break
		}
	}
	return p
}

func rewriteNode(p Plan) (Plan, bool) {
	switch n := p.(type) {
	case *UnionPlan:
		if out, c := dedupUnion(n); c {
			return out, true
		}
	case *FilterPlan:
		// Fuse adjacent filters.
		if inner, ok := n.Input.(*FilterPlan); ok {
			return &FilterPlan{Input: inner.Input, Pred: sql.AndAll(inner.Pred, n.Pred)}, true
		}
		// Push predicates into join inputs and convert cross joins.
		if j, ok := n.Input.(*NestedLoopJoinPlan); ok && !j.LeftOuter {
			if out, c := pushIntoJoin(n, j); c {
				return out, true
			}
		}
	}
	return p, false
}

// dedupUnion removes syntactically identical union branches (Distinct
// semantics) and collapses a single-branch union. For UNION ALL, branch
// multiplicity matters, so only exact whole-plan duplicates under
// Distinct are removed.
func dedupUnion(u *UnionPlan) (Plan, bool) {
	if !u.Distinct && len(u.Inputs) > 1 {
		return u, false
	}
	seen := map[string]bool{}
	var kept []Plan
	for _, in := range u.Inputs {
		sig := Explain(in)
		if u.Distinct && seen[sig] {
			continue
		}
		seen[sig] = true
		kept = append(kept, in)
	}
	if len(kept) == 1 && u.Distinct {
		return &DistinctPlan{Input: kept[0]}, true
	}
	if len(kept) != len(u.Inputs) {
		return &UnionPlan{Inputs: kept, Distinct: u.Distinct}, true
	}
	return u, false
}

// pushIntoJoin distributes a filter's conjuncts over a cross/nested-loop
// join: conjuncts referencing only one side push into that side; equality
// conjuncts across sides become hash-join keys; the rest stays above.
func pushIntoJoin(f *FilterPlan, j *NestedLoopJoinPlan) (Plan, bool) {
	conjuncts := SplitConjuncts(sql.AndAll(f.Pred, j.On))
	var leftOnly, rightOnly, cross []sql.Expr
	ls, rs := j.Left.Schema(), j.Right.Schema()
	for _, c := range conjuncts {
		switch {
		case ResolvesAgainst(c, ls):
			leftOnly = append(leftOnly, c)
		case ResolvesAgainst(c, rs):
			rightOnly = append(rightOnly, c)
		default:
			cross = append(cross, c)
		}
	}
	if len(leftOnly) == 0 && len(rightOnly) == 0 && len(cross) == len(conjuncts) {
		// Nothing to push; try converting to a hash join anyway.
		lk, rk, residual := ExtractEquiKeys(sql.AndAll(cross...), ls, rs)
		if len(lk) == 0 {
			return f, false
		}
		return NewHashJoinPlan(j.Left, j.Right, lk, rk, residual, false), true
	}
	left := j.Left
	if len(leftOnly) > 0 {
		left = &FilterPlan{Input: left, Pred: sql.AndAll(leftOnly...)}
	}
	right := j.Right
	if len(rightOnly) > 0 {
		right = &FilterPlan{Input: right, Pred: sql.AndAll(rightOnly...)}
	}
	lk, rk, residual := ExtractEquiKeys(sql.AndAll(cross...), ls, rs)
	if len(lk) > 0 {
		return NewHashJoinPlan(left, right, lk, rk, residual, false), true
	}
	var out Plan = NewNestedLoopJoinPlan(left, right, sql.AndAll(cross...), false)
	return out, true
}

// CountOperators returns the number of nodes in a plan tree; benchmarks
// use it to quantify optimisation effects.
func CountOperators(p Plan) int {
	n := 1
	for _, c := range p.Children() {
		n += CountOperators(c)
	}
	return n
}
