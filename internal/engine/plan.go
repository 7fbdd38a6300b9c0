package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// OpKind identifies a physical operator type for per-operator
// statistics.
type OpKind int

// Operator kinds, one per Plan implementation.
const (
	OpScan OpKind = iota
	OpValues
	OpWindowSource
	OpFilter
	OpProject
	OpHashJoin
	OpNestedJoin
	OpLookupJoin
	OpAggregate
	OpSort
	OpDistinct
	OpLimit
	OpUnion
	OpIndexScan
	NumOpKinds // array bound, keep last
)

var opKindNames = [NumOpKinds]string{
	"scan", "values", "window_source", "filter", "project",
	"hash_join", "nested_join", "lookup_join", "aggregate",
	"sort", "distinct", "limit", "union", "index_scan",
}

func (k OpKind) String() string {
	if k < 0 || k >= NumOpKinds {
		return "unknown"
	}
	return opKindNames[k]
}

// OpCounters are one operator kind's per-execution counters.
type OpCounters struct {
	Calls   int64 // Execute invocations
	RowsOut int64 // rows returned by this operator kind
	// WallNS is inclusive wall time spent evaluating operators of this
	// kind (children included), measured at the execChild boundary.
	// Inside a fused vectorized subtree only the subtree root is
	// timed; interior kernels report under the root's kind.
	WallNS int64
}

// ExecStats accumulates counters during plan execution; the telemetry
// layer, EXPLAIN ANALYZE and the benchmarks read them. Ops breaks
// invocation and output-row counts down per operator kind (fixed array:
// no allocation on the execution path).
type ExecStats struct {
	RowsScanned   int64
	RowsProduced  int64
	HashProbes    int64
	IndexLookups  int64
	OperatorCount int64
	Ops           [NumOpKinds]OpCounters
}

// enter records one Execute invocation of an operator kind.
func (s *ExecStats) enter(k OpKind) {
	s.OperatorCount++
	s.Ops[k].Calls++
}

// produced records an operator's output rows (also feeding the
// aggregate RowsProduced counter, as before).
func (s *ExecStats) produced(k OpKind, n int) {
	s.RowsProduced += int64(n)
	s.Ops[k].RowsOut += int64(n)
}

// Add folds another execution's counters into s. exastream uses it to
// accumulate per-query stats across windows — the observed
// cardinalities EXPLAIN ANALYZE renders.
func (s *ExecStats) Add(o *ExecStats) {
	s.RowsScanned += o.RowsScanned
	s.RowsProduced += o.RowsProduced
	s.HashProbes += o.HashProbes
	s.IndexLookups += o.IndexLookups
	s.OperatorCount += o.OperatorCount
	for k := range s.Ops {
		s.Ops[k].Calls += o.Ops[k].Calls
		s.Ops[k].RowsOut += o.Ops[k].RowsOut
		s.Ops[k].WallNS += o.Ops[k].WallNS
	}
}

// ExecContext carries everything a plan needs to run.
type ExecContext struct {
	Catalog *relation.Catalog
	Funcs   *FuncRegistry
	Stats   ExecStats
	// rowPath forces tuple-at-a-time execution for the whole plan. Left
	// false, every subtree that has columnar kernels (vec.go) runs
	// columnar and the row operators above it consume its output; only
	// this package's differential tests set it, to run the row path as
	// the oracle for the kernels.
	rowPath bool
}

// NewExecContext returns a context over a catalog with built-in functions.
func NewExecContext(cat *relation.Catalog) *ExecContext {
	return &ExecContext{Catalog: cat, Funcs: NewFuncRegistry()}
}

// Plan is a node of a physical query plan. Execute returns the full
// result; the engine materialises intermediate results, matching the
// window-batch-at-a-time execution model of the stream engine.
type Plan interface {
	Schema() relation.Schema
	Execute(ctx *ExecContext) ([]relation.Tuple, error)
	Children() []Plan
	String() string
}

// Explain renders a plan tree as an indented outline.
func Explain(p Plan) string {
	var sb strings.Builder
	var rec func(p Plan, depth int)
	rec = func(p Plan, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(p.String())
		sb.WriteByte('\n')
		for _, c := range p.Children() {
			rec(c, depth+1)
		}
	}
	rec(p, 0)
	return sb.String()
}

// ---- Scan ----

// ScanPlan reads a base table from the catalog.
type ScanPlan struct {
	Table  string
	Alias  string
	schema relation.Schema
}

// NewScanPlan builds a scan; the schema is qualified by the alias (or the
// table name) so joined plans have unambiguous columns.
func NewScanPlan(table, alias string, schema relation.Schema) *ScanPlan {
	name := alias
	if name == "" {
		name = table
	}
	return &ScanPlan{Table: table, Alias: name, schema: schema.Qualify(name)}
}

// Schema implements Plan.
func (s *ScanPlan) Schema() relation.Schema { return s.schema }

// Children implements Plan.
func (s *ScanPlan) Children() []Plan { return nil }

func (s *ScanPlan) String() string {
	if s.Alias != s.Table {
		return fmt.Sprintf("Scan(%s AS %s)", s.Table, s.Alias)
	}
	return fmt.Sprintf("Scan(%s)", s.Table)
}

// Execute implements Plan.
func (s *ScanPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpScan)
	t, err := ctx.Catalog.Get(s.Table)
	if err != nil {
		return nil, err
	}
	rows := t.Rows()
	ctx.Stats.RowsScanned += int64(len(rows))
	return rows, nil
}

// ---- Values (materialised input, used for window batches) ----

// ValuesPlan serves a pre-materialised batch of rows; the stream layer
// wraps window contents in it.
type ValuesPlan struct {
	Name   string
	rows   []relation.Tuple
	schema relation.Schema

	cb *relation.ColBatch // lazy transpose of rows for the columnar path
}

// NewValuesPlan wraps rows under the given qualified schema.
func NewValuesPlan(name string, schema relation.Schema, rows []relation.Tuple) *ValuesPlan {
	return &ValuesPlan{rows: rows, Name: name, schema: schema}
}

// SetRows re-points the plan at new rows and drops the columnar form
// cached for the old ones, so both execution paths serve the new rows.
func (v *ValuesPlan) SetRows(rows []relation.Tuple) {
	v.rows = rows
	v.cb = nil
}

// Schema implements Plan.
func (v *ValuesPlan) Schema() relation.Schema { return v.schema }

// Children implements Plan.
func (v *ValuesPlan) Children() []Plan { return nil }

func (v *ValuesPlan) String() string { return fmt.Sprintf("Values(%s, %d rows)", v.Name, len(v.rows)) }

// Execute implements Plan.
func (v *ValuesPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpValues)
	ctx.Stats.RowsScanned += int64(len(v.rows))
	return v.rows, nil
}

// ---- Filter ----

// FilterPlan keeps rows satisfying a predicate.
type FilterPlan struct {
	Input Plan
	Pred  sql.Expr

	pred  CompiledExpr // compiled on first Execute
	vpred vecExpr      // columnar kernel, compiled on first executeVec

	// executeVec scratch, reused across serialized executions (see the
	// concurrency contract in vec.go).
	keep *relation.Bitmap
	vf   vecFrame
}

// Schema implements Plan.
func (f *FilterPlan) Schema() relation.Schema { return f.Input.Schema() }

// Children implements Plan.
func (f *FilterPlan) Children() []Plan { return []Plan{f.Input} }

func (f *FilterPlan) String() string { return "Filter(" + f.Pred.String() + ")" }

// Execute implements Plan.
func (f *FilterPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpFilter)
	in, err := execChild(ctx, f.Input)
	if err != nil {
		return nil, err
	}
	if f.pred == nil {
		f.pred, err = Compile(f.Pred, f.Input.Schema(), ctx.Funcs)
		if err != nil {
			return nil, err
		}
	}
	var out []relation.Tuple
	for _, row := range in {
		v, err := f.pred(row)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			out = append(out, row)
		}
	}
	ctx.Stats.produced(OpFilter, len(out))
	return out, nil
}

// ---- Project ----

// ProjectPlan computes output expressions per row.
type ProjectPlan struct {
	Input  Plan
	Exprs  []sql.Expr
	Names  []string
	schema relation.Schema

	exprs  []CompiledExpr // compiled on first Execute
	vexprs []vecExpr      // columnar kernels, compiled on first executeVec

	// executeVec scratch, reused across serialized executions.
	vout []*relation.Vector
	vro  []bool
	vf   vecFrame
}

// NewProjectPlan builds a projection with explicit output column names.
// Output types are inferred lazily as TNull (untyped); consumers relying
// on types should look at values.
func NewProjectPlan(input Plan, exprs []sql.Expr, names []string) *ProjectPlan {
	cols := make([]relation.Column, len(exprs))
	for i := range exprs {
		cols[i] = relation.Column{Name: names[i], Type: relation.TNull}
	}
	return &ProjectPlan{Input: input, Exprs: exprs, Names: names, schema: relation.Schema{Columns: cols}}
}

// Schema implements Plan.
func (p *ProjectPlan) Schema() relation.Schema { return p.schema }

// Children implements Plan.
func (p *ProjectPlan) Children() []Plan { return []Plan{p.Input} }

func (p *ProjectPlan) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// Execute implements Plan.
func (p *ProjectPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpProject)
	in, err := execChild(ctx, p.Input)
	if err != nil {
		return nil, err
	}
	if p.exprs == nil {
		p.exprs = compileAll(p.Exprs, p.Input.Schema(), ctx.Funcs)
	}
	out := make([]relation.Tuple, len(in))
	for i, row := range in {
		t := make(relation.Tuple, len(p.exprs))
		for j, e := range p.exprs {
			v, err := e(row)
			if err != nil {
				return nil, err
			}
			t[j] = v
		}
		out[i] = t
	}
	ctx.Stats.produced(OpProject, len(out))
	return out, nil
}

// ---- Joins ----

// HashJoinPlan is an equi-join on key expressions: it builds a hash table
// on the right input and probes with the left. Non-equi residual
// predicates are applied after the probe.
type HashJoinPlan struct {
	Left, Right         Plan
	LeftKeys, RightKeys []sql.Expr
	Residual            sql.Expr
	LeftOuter           bool
	schema              relation.Schema

	// Compiled on first Execute.
	leftKey, rightKey *compiledKey
	residual          CompiledExpr
}

// NewHashJoinPlan constructs a hash join.
func NewHashJoinPlan(left, right Plan, leftKeys, rightKeys []sql.Expr, residual sql.Expr, leftOuter bool) *HashJoinPlan {
	return &HashJoinPlan{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		Residual: residual, LeftOuter: leftOuter,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Plan.
func (j *HashJoinPlan) Schema() relation.Schema { return j.schema }

// Children implements Plan.
func (j *HashJoinPlan) Children() []Plan { return []Plan{j.Left, j.Right} }

func (j *HashJoinPlan) String() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = j.LeftKeys[i].String() + "=" + j.RightKeys[i].String()
	}
	kind := "HashJoin"
	if j.LeftOuter {
		kind = "HashLeftJoin"
	}
	return kind + "(" + strings.Join(parts, ", ") + ")"
}

// Execute implements Plan.
func (j *HashJoinPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpHashJoin)
	leftRows, err := execChild(ctx, j.Left)
	if err != nil {
		return nil, err
	}
	rightRows, err := execChild(ctx, j.Right)
	if err != nil {
		return nil, err
	}
	if j.leftKey == nil {
		j.leftKey = newCompiledKey(ctx, j.LeftKeys, j.Left.Schema())
		j.rightKey = newCompiledKey(ctx, j.RightKeys, j.Right.Schema())
		if j.Residual != nil {
			if j.residual, err = Compile(j.Residual, j.schema, ctx.Funcs); err != nil {
				return nil, err
			}
		}
	}
	// The table maps each distinct key to its group of right rows; only
	// a new key allocates its string, and probes index the map with
	// string(k), which does not allocate.
	build := make(map[string]int, len(rightRows))
	var groups [][]relation.Tuple
	for _, row := range rightRows {
		k, ok, err := j.rightKey.eval(row)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		g, seen := build[string(k)]
		if !seen {
			g = len(groups)
			build[string(k)] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], row)
	}
	var out []relation.Tuple
	nullRight := make(relation.Tuple, j.Right.Schema().Arity())
	for i := range nullRight {
		nullRight[i] = relation.Null
	}
	for _, lrow := range leftRows {
		k, ok, err := j.leftKey.eval(lrow)
		ctx.Stats.HashProbes++
		if err != nil {
			return nil, err
		}
		matched := false
		if g, hit := build[string(k)]; ok && hit {
			for _, rrow := range groups[g] {
				joined := lrow.Concat(rrow)
				if j.residual != nil {
					v, err := j.residual(joined)
					if err != nil {
						return nil, err
					}
					if !v.Truthy() {
						continue
					}
				}
				matched = true
				out = append(out, joined)
			}
		}
		if !matched && j.LeftOuter {
			out = append(out, lrow.Concat(nullRight))
		}
	}
	ctx.Stats.produced(OpHashJoin, len(out))
	return out, nil
}

// NestedLoopJoinPlan joins with an arbitrary predicate; it is the
// fallback when no equi-keys exist.
type NestedLoopJoinPlan struct {
	Left, Right Plan
	On          sql.Expr // nil = cross product
	LeftOuter   bool
	schema      relation.Schema

	on CompiledExpr // compiled on first Execute
}

// NewNestedLoopJoinPlan constructs a nested-loop join.
func NewNestedLoopJoinPlan(left, right Plan, on sql.Expr, leftOuter bool) *NestedLoopJoinPlan {
	return &NestedLoopJoinPlan{Left: left, Right: right, On: on, LeftOuter: leftOuter,
		schema: left.Schema().Concat(right.Schema())}
}

// Schema implements Plan.
func (j *NestedLoopJoinPlan) Schema() relation.Schema { return j.schema }

// Children implements Plan.
func (j *NestedLoopJoinPlan) Children() []Plan { return []Plan{j.Left, j.Right} }

func (j *NestedLoopJoinPlan) String() string {
	on := "true"
	if j.On != nil {
		on = j.On.String()
	}
	kind := "NestedLoopJoin"
	if j.LeftOuter {
		kind = "NestedLoopLeftJoin"
	}
	return kind + "(" + on + ")"
}

// Execute implements Plan.
func (j *NestedLoopJoinPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpNestedJoin)
	leftRows, err := execChild(ctx, j.Left)
	if err != nil {
		return nil, err
	}
	rightRows, err := execChild(ctx, j.Right)
	if err != nil {
		return nil, err
	}
	if j.On != nil && j.on == nil {
		if j.on, err = Compile(j.On, j.schema, ctx.Funcs); err != nil {
			return nil, err
		}
	}
	var out []relation.Tuple
	nullRight := make(relation.Tuple, j.Right.Schema().Arity())
	for i := range nullRight {
		nullRight[i] = relation.Null
	}
	for _, lrow := range leftRows {
		matched := false
		for _, rrow := range rightRows {
			joined := lrow.Concat(rrow)
			if j.on != nil {
				v, err := j.on(joined)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			matched = true
			out = append(out, joined)
		}
		if !matched && j.LeftOuter {
			out = append(out, lrow.Concat(nullRight))
		}
	}
	ctx.Stats.produced(OpNestedJoin, len(out))
	return out, nil
}

// ---- Aggregate ----

// AggregatePlan groups rows by the group expressions and computes
// aggregate calls. Output columns are the group expressions followed by
// the aggregates, each named by its expression text so upstream
// projections can reference them.
type AggregatePlan struct {
	Input      Plan
	GroupExprs []sql.Expr
	Aggs       []*sql.FuncExpr
	schema     relation.Schema

	// Compiled on first Execute.
	groups   []CompiledExpr
	aggArgs  [][2]CompiledExpr // [arg0, arg1]; arg1 only for corr
	compiled bool
}

// NewAggregatePlan constructs an aggregation.
func NewAggregatePlan(input Plan, groupExprs []sql.Expr, aggs []*sql.FuncExpr) *AggregatePlan {
	cols := make([]relation.Column, 0, len(groupExprs)+len(aggs))
	for _, g := range groupExprs {
		cols = append(cols, relation.Column{Name: exprName(g), Type: relation.TNull})
	}
	for _, a := range aggs {
		cols = append(cols, relation.Column{Name: a.String(), Type: relation.TNull})
	}
	return &AggregatePlan{Input: input, GroupExprs: groupExprs, Aggs: aggs,
		schema: relation.Schema{Columns: cols}}
}

// exprName yields the output column name for a group expression: bare
// column refs keep their (qualified) name, others use the printed form.
func exprName(e sql.Expr) string {
	if c, ok := e.(*sql.ColumnRef); ok {
		return c.FullName()
	}
	return e.String()
}

// Schema implements Plan.
func (a *AggregatePlan) Schema() relation.Schema { return a.schema }

// Children implements Plan.
func (a *AggregatePlan) Children() []Plan { return []Plan{a.Input} }

func (a *AggregatePlan) String() string {
	groups := make([]string, len(a.GroupExprs))
	for i, g := range a.GroupExprs {
		groups[i] = g.String()
	}
	aggs := make([]string, len(a.Aggs))
	for i, g := range a.Aggs {
		aggs[i] = g.String()
	}
	return fmt.Sprintf("Aggregate(groups=[%s], aggs=[%s])",
		strings.Join(groups, ", "), strings.Join(aggs, ", "))
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count   int64
	sum     float64
	sumSq   float64
	sumXY   float64
	sumY    float64
	sumYSq  float64
	min     relation.Value
	max     relation.Value
	first   relation.Value
	last    relation.Value
	seen    map[string]struct{} // DISTINCT: equality keys of the values counted
	started bool
}

// insertKey adds the equality key k to set and reports whether it was
// new. Only a new key allocates its string.
func insertKey(set map[string]struct{}, k []byte) bool {
	if _, dup := set[string(k)]; dup {
		return false
	}
	set[string(k)] = struct{}{}
	return true
}

// Execute implements Plan.
func (a *AggregatePlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpAggregate)
	in, err := execChild(ctx, a.Input)
	if err != nil {
		return nil, err
	}
	if !a.compiled {
		schema := a.Input.Schema()
		a.groups = compileAll(a.GroupExprs, schema, ctx.Funcs)
		a.aggArgs = make([][2]CompiledExpr, len(a.Aggs))
		for i, agg := range a.Aggs {
			if len(agg.Args) > 0 {
				a.aggArgs[i][0], _ = Compile(agg.Args[0], schema, ctx.Funcs)
			}
			if len(agg.Args) == 2 && strings.EqualFold(agg.Name, "corr") {
				a.aggArgs[i][1], _ = Compile(agg.Args[1], schema, ctx.Funcs)
			}
		}
		a.compiled = true
	}

	// Groups are keyed by the equality key of their group values (NULLs
	// group together) and kept in first-seen order.
	type group struct {
		key    relation.Tuple
		states []*aggState
	}
	index := make(map[string]int)
	var ordered []*group
	newGroup := func(key relation.Tuple) *group {
		grp := &group{key: key, states: make([]*aggState, len(a.Aggs))}
		for i := range grp.states {
			grp.states[i] = &aggState{}
		}
		ordered = append(ordered, grp)
		return grp
	}
	keyVals := make(relation.Tuple, len(a.GroupExprs))
	var kb []byte
	for _, row := range in {
		kb = kb[:0]
		for i, g := range a.groups {
			v, err := g(row)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
			kb = relation.AppendKey(kb, v)
		}
		var grp *group
		if gi, ok := index[string(kb)]; ok {
			grp = ordered[gi]
		} else {
			index[string(kb)] = len(ordered)
			grp = newGroup(append(relation.Tuple(nil), keyVals...))
		}
		for i, agg := range a.Aggs {
			if err := accumulate(grp.states[i], agg, a.aggArgs[i][0], a.aggArgs[i][1], row); err != nil {
				return nil, err
			}
		}
	}

	// A global aggregate over zero rows still yields one output row.
	if len(ordered) == 0 && len(a.GroupExprs) == 0 {
		newGroup(nil)
	}

	out := make([]relation.Tuple, 0, len(ordered))
	for _, g := range ordered {
		row := make(relation.Tuple, 0, len(g.key)+len(a.Aggs))
		row = append(row, g.key...)
		for i, agg := range a.Aggs {
			row = append(row, finalize(g.states[i], agg))
		}
		out = append(out, row)
	}
	ctx.Stats.produced(OpAggregate, len(out))
	return out, nil
}

func accumulate(st *aggState, agg *sql.FuncExpr, arg, yarg CompiledExpr, row relation.Tuple) error {
	name := strings.ToLower(agg.Name)
	if agg.Star {
		st.count++
		return nil
	}
	if len(agg.Args) == 0 {
		return fmt.Errorf("engine: aggregate %s requires an argument", name)
	}
	v, err := arg(row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	if agg.Distinct {
		if st.seen == nil {
			st.seen = make(map[string]struct{})
		}
		var kb [16]byte
		if !insertKey(st.seen, relation.AppendKey(kb[:0], v)) {
			return nil
		}
	}
	if !st.started {
		st.first = v
		st.started = true
	}
	st.last = v
	st.count++
	switch name {
	case "count", "first", "last":
	case "sum", "avg":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("engine: %s over non-numeric value %s", name, v)
		}
		st.sum += f
	case "stddev":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("engine: stddev over non-numeric value %s", v)
		}
		st.sum += f
		st.sumSq += f * f
	case "corr":
		if len(agg.Args) != 2 {
			return fmt.Errorf("engine: corr expects 2 arguments")
		}
		y, err := yarg(row)
		if err != nil {
			return err
		}
		if y.IsNull() {
			st.count-- // pair incomplete; undo the count
			return nil
		}
		xf, ok1 := v.AsFloat()
		yf, ok2 := y.AsFloat()
		if !ok1 || !ok2 {
			return fmt.Errorf("engine: corr over non-numeric values")
		}
		st.sum += xf
		st.sumSq += xf * xf
		st.sumY += yf
		st.sumYSq += yf * yf
		st.sumXY += xf * yf
	case "min":
		if st.min.IsNull() {
			st.min = v
		} else if c, ok := relation.Compare(v, st.min); ok && c < 0 {
			st.min = v
		}
	case "max":
		if st.max.IsNull() {
			st.max = v
		} else if c, ok := relation.Compare(v, st.max); ok && c > 0 {
			st.max = v
		}
	default:
		return fmt.Errorf("engine: unknown aggregate %q", name)
	}
	return nil
}

func finalize(st *aggState, agg *sql.FuncExpr) relation.Value {
	switch strings.ToLower(agg.Name) {
	case "count":
		return relation.Int(st.count)
	case "sum":
		if st.count == 0 {
			return relation.Null
		}
		return relation.Float(st.sum)
	case "avg":
		if st.count == 0 {
			return relation.Null
		}
		return relation.Float(st.sum / float64(st.count))
	case "stddev":
		if st.count < 2 {
			return relation.Null
		}
		n := float64(st.count)
		variance := (st.sumSq - st.sum*st.sum/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		return relation.Float(math.Sqrt(variance))
	case "corr":
		if st.count < 2 {
			return relation.Null
		}
		n := float64(st.count)
		cov := st.sumXY - st.sum*st.sumY/n
		vx := st.sumSq - st.sum*st.sum/n
		vy := st.sumYSq - st.sumY*st.sumY/n
		if vx <= 0 || vy <= 0 {
			return relation.Null
		}
		return relation.Float(cov / math.Sqrt(vx*vy))
	case "min":
		return st.min
	case "max":
		return st.max
	case "first":
		return st.first
	case "last":
		return st.last
	default:
		return relation.Null
	}
}

// ---- Sort / Distinct / Limit / Union ----

// SortPlan orders rows by expressions.
type SortPlan struct {
	Input Plan
	Items []sql.OrderItem

	items []CompiledExpr // compiled on first Execute
}

// Schema implements Plan.
func (s *SortPlan) Schema() relation.Schema { return s.Input.Schema() }

// Children implements Plan.
func (s *SortPlan) Children() []Plan { return []Plan{s.Input} }

func (s *SortPlan) String() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// Execute implements Plan.
func (s *SortPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpSort)
	in, err := execChild(ctx, s.Input)
	if err != nil {
		return nil, err
	}
	if s.items == nil {
		schema := s.Input.Schema()
		s.items = make([]CompiledExpr, len(s.Items))
		for j, it := range s.Items {
			s.items[j], _ = Compile(it.Expr, schema, ctx.Funcs)
		}
	}
	keys := make([][]relation.Value, len(in))
	for i, row := range in {
		ks := make([]relation.Value, len(s.items))
		for j, it := range s.items {
			v, err := it(row)
			if err != nil {
				return nil, err
			}
			ks[j] = v
		}
		keys[i] = ks
	}
	idx := make([]int, len(in))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		for j, it := range s.Items {
			c, ok := relation.Compare(keys[idx[x]][j], keys[idx[y]][j])
			if !ok || c == 0 {
				continue
			}
			if it.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([]relation.Tuple, len(in))
	for i, p := range idx {
		out[i] = in[p]
	}
	return out, nil
}

// DistinctPlan removes duplicate rows.
type DistinctPlan struct {
	Input Plan
}

// Schema implements Plan.
func (d *DistinctPlan) Schema() relation.Schema { return d.Input.Schema() }

// Children implements Plan.
func (d *DistinctPlan) Children() []Plan { return []Plan{d.Input} }

func (d *DistinctPlan) String() string { return "Distinct" }

// Execute implements Plan.
func (d *DistinctPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpDistinct)
	in, err := execChild(ctx, d.Input)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(in))
	var out []relation.Tuple
	var kb []byte
	for _, row := range in {
		kb = kb[:0]
		for _, v := range row {
			kb = relation.AppendKey(kb, v)
		}
		if insertKey(seen, kb) {
			out = append(out, row)
		}
	}
	ctx.Stats.produced(OpDistinct, len(out))
	return out, nil
}

// LimitPlan truncates the result.
type LimitPlan struct {
	Input Plan
	N     int

	// executeVec scratch, reused across serialized executions.
	keep *relation.Bitmap
	vf   vecFrame
}

// Schema implements Plan.
func (l *LimitPlan) Schema() relation.Schema { return l.Input.Schema() }

// Children implements Plan.
func (l *LimitPlan) Children() []Plan { return []Plan{l.Input} }

func (l *LimitPlan) String() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Execute implements Plan.
func (l *LimitPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpLimit)
	in, err := execChild(ctx, l.Input)
	if err != nil {
		return nil, err
	}
	if len(in) > l.N {
		in = in[:l.N]
	}
	return in, nil
}

// UnionPlan concatenates branch outputs; Distinct applies set semantics.
type UnionPlan struct {
	Inputs   []Plan
	Distinct bool
}

// Schema implements Plan.
func (u *UnionPlan) Schema() relation.Schema { return u.Inputs[0].Schema() }

// Children implements Plan.
func (u *UnionPlan) Children() []Plan { return u.Inputs }

func (u *UnionPlan) String() string {
	if u.Distinct {
		return fmt.Sprintf("Union(distinct, %d branches)", len(u.Inputs))
	}
	return fmt.Sprintf("UnionAll(%d branches)", len(u.Inputs))
}

// Execute implements Plan.
func (u *UnionPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	ctx.Stats.enter(OpUnion)
	arity := u.Schema().Arity()
	var out []relation.Tuple
	for _, in := range u.Inputs {
		rows, err := execChild(ctx, in)
		if err != nil {
			return nil, err
		}
		if in.Schema().Arity() != arity {
			return nil, fmt.Errorf("engine: union branches have different arity")
		}
		out = append(out, rows...)
	}
	if u.Distinct {
		d := &DistinctPlan{Input: NewValuesPlan("union", u.Schema(), out)}
		return d.Execute(ctx)
	}
	ctx.Stats.produced(OpUnion, len(out))
	return out, nil
}
