package engine

import (
	"math"
	"sort"
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// PlanEstimate is the cost model's verdict for one plan node: EstRows is
// the estimated output cardinality, EstCost the estimated cumulative
// work (rows touched, abstract units — comparable only within one tree).
type PlanEstimate struct {
	EstRows float64
	EstCost float64
}

// Estimates annotates plan nodes with their estimates. It is a side
// table keyed by node identity rather than fields on each struct, so the
// execution-path types stay lean; EXPLAIN joins it against the observed
// ExecStats to render the estimated-vs-observed column.
type Estimates map[Plan]PlanEstimate

// Cost-model knobs. The absolute values only matter relative to each
// other; they are deliberately coarse (the model exists to rank
// alternatives, not to predict wall time).
const (
	// indexScanMaxSel is the largest estimated predicate selectivity for
	// which Filter(Scan) is rewritten into an IndexScanPlan: above it, a
	// full scan touches fewer total rows than probe + residual.
	indexScanMaxSel = 0.25
	// indexScanMinRows is the smallest table worth index-scanning;
	// below it the scan is already effectively free.
	indexScanMinRows = 8
)

// EstimatePlan walks a plan tree bottom-up computing per-node estimated
// cardinality and cost from the statistics store. windowRows is the
// rows one window source delivers per execution, as the caller has
// observed it; at or below zero a default stands in. A nil store
// yields pure-default estimates (still useful for relative
// comparisons).
func EstimatePlan(p Plan, st *StatsStore, windowRows float64) Estimates {
	if windowRows <= 0 {
		windowRows = defaultStreamRows
	}
	est := make(Estimates)
	estimateNode(p, st, windowRows, est)
	return est
}

func estimateNode(p Plan, st *StatsStore, windowRows float64, est Estimates) PlanEstimate {
	var e PlanEstimate
	switch n := p.(type) {
	case *ScanPlan:
		e.EstRows = tableRowEstimate(st, n.Table)
		e.EstCost = e.EstRows
	case *IndexScanPlan:
		base := tableRowEstimate(st, n.Table)
		sel := 1.0
		ts := st.Table(n.Table)
		for i, col := range n.Cols {
			if cs := ts.Col(col); cs != nil {
				sel *= cs.EqSelectivity(int64(base), n.Vals[i])
			} else {
				sel *= defaultEqSelectivity
			}
		}
		e.EstRows = base * clampSel(sel)
		e.EstCost = 1 + e.EstRows // probe + emit
	case *ValuesPlan:
		e.EstRows = float64(len(n.rows))
		e.EstCost = e.EstRows
	case *WindowSourcePlan:
		e.EstRows = windowRows
		e.EstCost = e.EstRows
	case *AliasPlan:
		e = estimateNode(n.Input, st, windowRows, est)
	case *FilterPlan:
		in := estimateNode(n.Input, st, windowRows, est)
		e.EstRows = in.EstRows * exprSelectivity(n.Pred, n.Input, st)
		e.EstCost = in.EstCost + in.EstRows
	case *ProjectPlan:
		in := estimateNode(n.Input, st, windowRows, est)
		e.EstRows = in.EstRows
		e.EstCost = in.EstCost + in.EstRows
	case *HashJoinPlan:
		l := estimateNode(n.Left, st, windowRows, est)
		r := estimateNode(n.Right, st, windowRows, est)
		match := equiMatchFactor(n, st, n.LeftKeys, n.RightKeys)
		e.EstRows = l.EstRows * r.EstRows * match
		e.EstCost = l.EstCost + r.EstCost + l.EstRows + r.EstRows + e.EstRows
	case *NestedLoopJoinPlan:
		l := estimateNode(n.Left, st, windowRows, est)
		r := estimateNode(n.Right, st, windowRows, est)
		sel := 1.0
		if n.On != nil {
			sel = exprSelectivity(n.On, n, st)
		}
		e.EstRows = l.EstRows * r.EstRows * sel
		e.EstCost = l.EstCost + r.EstCost + l.EstRows*r.EstRows
	case *LookupJoinPlan:
		l := estimateNode(n.Left, st, windowRows, est)
		mpp := matchesPerProbe(n, st)
		e.EstRows = l.EstRows * mpp
		e.EstCost = l.EstCost + l.EstRows + e.EstRows
	case *AggregatePlan:
		in := estimateNode(n.Input, st, windowRows, est)
		e.EstRows = groupEstimate(n, in.EstRows, st)
		e.EstCost = in.EstCost + in.EstRows
	case *SortPlan:
		in := estimateNode(n.Input, st, windowRows, est)
		e.EstRows = in.EstRows
		e.EstCost = in.EstCost + in.EstRows*math.Log2(in.EstRows+2)
	case *DistinctPlan:
		in := estimateNode(n.Input, st, windowRows, est)
		e.EstRows = in.EstRows
		e.EstCost = in.EstCost + in.EstRows
	case *LimitPlan:
		in := estimateNode(n.Input, st, windowRows, est)
		e.EstRows = math.Min(float64(n.N), in.EstRows)
		e.EstCost = in.EstCost
	case *UnionPlan:
		for _, in := range n.Inputs {
			c := estimateNode(in, st, windowRows, est)
			e.EstRows += c.EstRows
			e.EstCost += c.EstCost
		}
		if n.Distinct {
			e.EstCost += e.EstRows
		}
	default:
		// Unknown plan implementation: estimate children, propagate the
		// widest.
		for _, c := range p.Children() {
			ce := estimateNode(c, st, windowRows, est)
			e.EstRows = math.Max(e.EstRows, ce.EstRows)
			e.EstCost += ce.EstCost
		}
	}
	est[p] = e
	return e
}

func tableRowEstimate(st *StatsStore, table string) float64 {
	if ts := st.Table(table); ts != nil {
		return float64(ts.RowCount)
	}
	return defaultTableRows
}

// exprSelectivity estimates the fraction of under's rows satisfying e,
// resolving column references to the statistics of whatever leaf
// supplies them. Unresolvable predicates fall back to the default
// equality selectivity.
func exprSelectivity(e sql.Expr, under Plan, st *StatsStore) float64 {
	switch x := e.(type) {
	case *sql.BinaryExpr:
		switch x.Op {
		case "AND":
			return clampSel(exprSelectivity(x.Left, under, st) * exprSelectivity(x.Right, under, st))
		case "OR":
			s1 := exprSelectivity(x.Left, under, st)
			s2 := exprSelectivity(x.Right, under, st)
			return clampSel(s1 + s2 - s1*s2)
		case "=":
			return compareSelectivity(x, under, st, true)
		case "<>", "!=":
			return clampSel(1 - compareSelectivity(x, under, st, true))
		case "<", "<=", ">", ">=":
			return compareSelectivity(x, under, st, false)
		}
	case *sql.UnaryExpr:
		if x.Op == "NOT" {
			return clampSel(1 - exprSelectivity(x.Expr, under, st))
		}
	case *sql.IsNullExpr:
		if cs, rows := columnStatsFor(under, x.Expr, st); cs != nil && rows > 0 {
			frac := float64(cs.NullCount) / float64(rows)
			if x.Negate {
				return clampSel(1 - frac)
			}
			return clampSel(frac)
		}
	}
	return defaultEqSelectivity
}

// compareSelectivity handles col <op> literal (either orientation) and
// col = col comparisons.
func compareSelectivity(be *sql.BinaryExpr, under Plan, st *StatsStore, eq bool) float64 {
	col, lit, op := be.Left, be.Right, be.Op
	if _, ok := col.(*sql.Literal); ok {
		col, lit = lit, col
		op = flipCompare(op)
	}
	_, isCol := col.(*sql.ColumnRef)
	l, isLit := lit.(*sql.Literal)
	if !isCol {
		if eq {
			return defaultEqSelectivity
		}
		return defaultRangeSelectivity
	}
	if !isLit {
		// col = col (self-join-style equality inside one input): use the
		// larger NDV of the two sides, the textbook estimate.
		if eq {
			n1 := columnNDVFor(under, col, st)
			n2 := columnNDVFor(under, lit, st)
			if n := maxInt64(n1, n2); n > 0 {
				return clampSel(1 / float64(n))
			}
			return defaultEqSelectivity
		}
		return defaultRangeSelectivity
	}
	cs, rows := columnStatsFor(under, col, st)
	switch {
	case cs != nil && eq:
		return clampSel(cs.EqSelectivity(rows, l.Value))
	case cs != nil:
		return clampSel(cs.RangeSelectivity(op, l.Value))
	case eq:
		return defaultEqSelectivity
	}
	return defaultRangeSelectivity
}

func flipCompare(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// sourceLeaf finds the leaf plan (scan, window source, values, index
// scan) whose schema supplies the qualified column name.
func sourceLeaf(p Plan, name string) Plan {
	children := p.Children()
	if len(children) == 0 {
		if p.Schema().Has(name) {
			return p
		}
		return nil
	}
	for _, c := range children {
		if l := sourceLeaf(c, name); l != nil {
			return l
		}
	}
	return nil
}

// columnStatsFor resolves a column expression to its source table's
// column statistics and row count; nil when it is no column reference
// or no static leaf supplies it (a window source has no statistics).
func columnStatsFor(under Plan, e sql.Expr, st *StatsStore) (*ColumnStats, int64) {
	cr, isCol := e.(*sql.ColumnRef)
	if !isCol {
		return nil, 0
	}
	var table string
	switch l := sourceLeaf(under, cr.FullName()).(type) {
	case *ScanPlan:
		table = l.Table
	case *IndexScanPlan:
		table = l.Table
	default:
		return nil, 0
	}
	ts := st.Table(table)
	if ts == nil {
		return nil, 0
	}
	return ts.Col(cr.Name), ts.RowCount
}

// columnNDVFor returns the NDV of a column expression, 0 when unknown.
func columnNDVFor(under Plan, e sql.Expr, st *StatsStore) int64 {
	if cs, _ := columnStatsFor(under, e, st); cs != nil {
		return cs.NDV
	}
	return 0
}

// equiMatchFactor estimates the per-pair match probability of an
// equi-join: 1/max(NDV_left, NDV_right) per key, multiplied across keys.
func equiMatchFactor(j *HashJoinPlan, st *StatsStore, leftKeys, rightKeys []sql.Expr) float64 {
	f := 1.0
	for i := range leftKeys {
		nl := columnNDVFor(j.Left, leftKeys[i], st)
		nr := columnNDVFor(j.Right, rightKeys[i], st)
		if n := maxInt64(nl, nr); n > 0 {
			f *= 1 / float64(n)
		} else {
			f *= defaultEqSelectivity
		}
	}
	return clampSel(f)
}

// matchesPerProbe estimates how many base-table rows one left row's
// lookup returns: rows × Π 1/NDV over the lookup columns.
func matchesPerProbe(j *LookupJoinPlan, st *StatsStore) float64 {
	ts := st.Table(j.Table)
	rows := float64(defaultTableRows)
	if ts != nil {
		rows = float64(ts.RowCount)
	}
	sel := 1.0
	for _, col := range j.TableCols {
		if cs := ts.Col(col); cs != nil && cs.NDV > 0 {
			sel *= 1 / float64(cs.NDV)
		} else {
			sel *= defaultEqSelectivity
		}
	}
	return rows * clampSel(sel)
}

// groupEstimate bounds an aggregation's output by the product of the
// group columns' NDVs when resolvable, capped at the input cardinality.
func groupEstimate(a *AggregatePlan, inRows float64, st *StatsStore) float64 {
	if len(a.GroupExprs) == 0 {
		return 1
	}
	prod := 1.0
	for _, g := range a.GroupExprs {
		if n := columnNDVFor(a.Input, g, st); n > 0 {
			prod *= float64(n)
		} else {
			// Unknown group key: assume it alone explains the input.
			return inRows
		}
	}
	return math.Min(prod, inRows)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// OptimizeWithStats applies the statistics-driven rewrites on top of an
// already-built (and adapted) physical plan, as one rule on the plan
// walk (see rewrite):
//
//  1. index-scan choice: Filter(Scan) with constant equality conjuncts
//     whose estimated selectivity beats indexScanMaxSel becomes an
//     IndexScanPlan (Adapt lists its pattern for indexing, exactly as
//     for lookup joins);
//  2. lookup-join reorder: a chain of lookup joins over one spine is
//     reordered by ascending estimated matches-per-probe, so the most
//     selective join shrinks the intermediate result first.
//
// Rewrites preserve result multiset but not row order or output column
// order; callers above resolve columns by name (projection, residuals),
// and the chain is never reordered at the plan root or directly under a
// Union, where positional layout is observable. p is not modified.
func OptimizeWithStats(p Plan, st *StatsStore) Plan {
	if st == nil {
		return p
	}
	p, _ = rewrite(p, func(n Plan) (Plan, bool) { return statsRule(n, st) })
	return p
}

// statsRule is OptimizeWithStats' rule. A chain is reordered from its
// parent, the one node that knows it holds a chain top (an input that
// is a lookup join while the parent is not one) and that the top is
// neither the root nor a union branch.
func statsRule(p Plan, st *StatsStore) (Plan, bool) {
	switch n := p.(type) {
	case *FilterPlan:
		if scan, ok := n.Input.(*ScanPlan); ok {
			return toIndexScan(n, scan, st)
		}
	case *UnionPlan, *LookupJoinPlan:
		return p, false
	}
	return mapInputs(p, func(c Plan) (Plan, bool) {
		if lj, ok := c.(*LookupJoinPlan); ok {
			if r := reorderLookupChain(lj, st); r != lj {
				return r, true
			}
		}
		return c, false
	})
}

// toIndexScan rewrites Filter(Scan) into an IndexScanPlan when the
// filter contains constant equality conjuncts on scan columns whose
// combined estimated selectivity clears the threshold.
func toIndexScan(f *FilterPlan, scan *ScanPlan, st *StatsStore) (Plan, bool) {
	ts := st.Table(scan.Table)
	if ts == nil || ts.RowCount < indexScanMinRows {
		return f, false
	}
	var cols []string
	var vals []relation.Value
	var rest []sql.Expr
	sel := 1.0
	for _, c := range SplitConjuncts(f.Pred) {
		col, lit, ok := constEquality(c, scan.Alias)
		if !ok {
			rest = append(rest, c)
			continue
		}
		cs := ts.Col(col)
		if cs == nil {
			rest = append(rest, c)
			continue
		}
		cols = append(cols, col)
		vals = append(vals, lit)
		sel *= cs.EqSelectivity(ts.RowCount, lit)
	}
	if len(cols) == 0 || clampSel(sel) > indexScanMaxSel {
		return f, false
	}
	return NewIndexScanPlan(scan.Table, scan.Alias, scan.Schema(), cols, vals, sql.AndAll(rest...)), true
}

// constEquality matches `alias.col = literal` (either orientation)
// against the given alias, returning the bare column name and value.
func constEquality(e sql.Expr, alias string) (string, relation.Value, bool) {
	be, ok := e.(*sql.BinaryExpr)
	if !ok || be.Op != "=" {
		return "", relation.Null, false
	}
	col, lit := be.Left, be.Right
	if _, isLit := col.(*sql.Literal); isLit {
		col, lit = lit, col
	}
	cr, okCol := col.(*sql.ColumnRef)
	l, okLit := lit.(*sql.Literal)
	if !okCol || !okLit || l.Value.IsNull() {
		return "", relation.Null, false
	}
	if cr.Table != "" && !strings.EqualFold(cr.Table, alias) {
		return "", relation.Null, false
	}
	return cr.Name, l.Value, true
}

// reorderLookupChain reorders a maximal chain of lookup joins
// j_k(...(j_1(spine))) by ascending estimated matches-per-probe. Safe
// only when every member's keys and residual resolve against the spine
// alone (plus its own table), so any order is executable; otherwise the
// chain is returned untouched. The rebuilt chain concatenates table
// columns in the new order — consumers resolve by name.
func reorderLookupChain(top *LookupJoinPlan, st *StatsStore) *LookupJoinPlan {
	var chain []*LookupJoinPlan
	var spine Plan = top
	for {
		lj, ok := spine.(*LookupJoinPlan)
		if !ok {
			break
		}
		chain = append(chain, lj)
		spine = lj.Left
	}
	if len(chain) < 2 {
		return top
	}
	spineSchema := spine.Schema()
	for _, lj := range chain {
		for _, k := range lj.LeftKeys {
			if !ResolvesAgainst(k, spineSchema) {
				return top
			}
		}
		if lj.Residual != nil &&
			!ResolvesAgainst(lj.Residual, spineSchema.Concat(ownColumns(lj))) {
			return top
		}
	}
	// chain[] is outermost-first; order lists it in execution order,
	// innermost-first, so the stable sort keeps tied members as written.
	order := make([]int, len(chain))
	for i := range order {
		order[i] = len(chain) - 1 - i
	}
	mpp := make([]float64, len(chain))
	for i, lj := range chain {
		mpp[i] = matchesPerProbe(lj, st)
	}
	sort.SliceStable(order, func(a, b int) bool { return mpp[order[a]] < mpp[order[b]] })
	same := true
	for i := range order {
		if order[i] != len(chain)-1-i {
			same = false
			break
		}
	}
	if same {
		return top
	}
	// Rebuild innermost-first: the most selective member (fewest
	// matches per probe, order[0]) executes first so every later probe
	// runs over the smallest possible intermediate result.
	cur := spine
	for _, idx := range order {
		cur = withInputs(chain[idx], []Plan{cur})
	}
	return cur.(*LookupJoinPlan)
}

// ownColumns returns the (already alias-qualified) columns a lookup
// join appends to its left input's schema.
func ownColumns(j *LookupJoinPlan) relation.Schema {
	full := j.Schema().Columns
	leftArity := j.Left.Schema().Arity()
	return relation.Schema{Columns: full[leftArity:]}
}
