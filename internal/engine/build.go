package engine

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/sql"
)

// TableResolver maps a FROM item to a plan for its contents. The stream
// layer supplies a resolver that materialises window batches; the default
// resolver handles only base tables.
type TableResolver func(tr *sql.TableRef) (Plan, error)

// CatalogResolver resolves base tables against a catalog and rejects
// stream references (which need the DSMS layer).
func CatalogResolver(cat *relation.Catalog) TableResolver {
	return func(tr *sql.TableRef) (Plan, error) {
		if tr.IsStream || tr.Window != nil {
			return nil, fmt.Errorf("engine: stream %q needs a stream-aware resolver", tr.Table)
		}
		t, err := cat.Get(tr.Table)
		if err != nil {
			return nil, err
		}
		return NewScanPlan(t.Name(), tr.Name(), t.Schema()), nil
	}
}

// AliasPlan re-qualifies a child plan's schema under a new alias
// (derived tables).
type AliasPlan struct {
	Input  Plan
	Alias  string
	schema relation.Schema
}

// NewAliasPlan wraps input under alias.
func NewAliasPlan(input Plan, alias string) *AliasPlan {
	return &AliasPlan{Input: input, Alias: alias, schema: input.Schema().Qualify(alias)}
}

// Schema implements Plan.
func (a *AliasPlan) Schema() relation.Schema { return a.schema }

// Children implements Plan.
func (a *AliasPlan) Children() []Plan { return []Plan{a.Input} }

func (a *AliasPlan) String() string { return fmt.Sprintf("Alias(%s)", a.Alias) }

// Execute implements Plan.
func (a *AliasPlan) Execute(ctx *ExecContext) ([]relation.Tuple, error) {
	return execChild(ctx, a.Input)
}

// Build compiles a SELECT statement into an executable plan using the
// given resolver, then applies the optimiser.
func Build(stmt *sql.SelectStmt, resolve TableResolver) (Plan, error) {
	p, err := buildUnoptimized(stmt, resolve)
	if err != nil {
		return nil, err
	}
	return Optimize(p), nil
}

// BuildUnoptimized compiles without optimisation; the ablation benchmarks
// compare it against Build.
func BuildUnoptimized(stmt *sql.SelectStmt, resolve TableResolver) (Plan, error) {
	return buildUnoptimized(stmt, resolve)
}

func buildUnoptimized(stmt *sql.SelectStmt, resolve TableResolver) (Plan, error) {
	branches := stmt.Branches()
	plans := make([]Plan, len(branches))
	for i, b := range branches {
		p, err := buildBranch(b, resolve)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	if len(plans) == 1 {
		return plans[0], nil
	}
	return &UnionPlan{Inputs: plans, Distinct: !stmt.UnionAll}, nil
}

func buildBranch(stmt *sql.SelectStmt, resolve TableResolver) (Plan, error) {
	items := make([]Plan, len(stmt.From))
	for i, tr := range stmt.From {
		p, err := buildTableRef(tr, resolve)
		if err != nil {
			return nil, err
		}
		items[i] = p
	}
	comps := connectedOrder(stmt.From, items, stmt.Where)
	var plan Plan
	for _, comp := range comps {
		part := items[comp[0]]
		for _, idx := range comp[1:] {
			part = NewNestedLoopJoinPlan(part, items[idx], nil, false)
		}
		if plan == nil {
			plan = part
			continue
		}
		plan = NewNestedLoopJoinPlan(plan, part, nil, false)
	}
	if plan == nil {
		// SELECT without FROM evaluates items once against an empty row.
		plan = NewValuesPlan("dual", relation.Schema{}, []relation.Tuple{{}})
	}

	if stmt.Where != nil {
		plan = &FilterPlan{Input: plan, Pred: stmt.Where}
	}

	// Collect aggregates from items, HAVING and ORDER BY.
	var aggs []*sql.FuncExpr
	aggSeen := map[string]bool{}
	collect := func(e sql.Expr) {
		walkExpr(e, func(x sql.Expr) {
			if f, ok := x.(*sql.FuncExpr); ok && IsAggregate(f.Name) {
				if !aggSeen[f.String()] {
					aggSeen[f.String()] = true
					aggs = append(aggs, f)
				}
			}
		})
	}
	for _, it := range stmt.Items {
		if !it.Star {
			collect(it.Expr)
		}
	}
	collect(stmt.Having)
	for _, o := range stmt.OrderBy {
		collect(o.Expr)
	}

	grouped := len(stmt.GroupBy) > 0 || len(aggs) > 0
	if grouped {
		plan = NewAggregatePlan(plan, stmt.GroupBy, aggs)
		if stmt.Having != nil {
			plan = &FilterPlan{Input: plan, Pred: rewriteAggRefs(stmt.Having, stmt.GroupBy)}
		}
	} else if stmt.Having != nil {
		return nil, fmt.Errorf("engine: HAVING without GROUP BY or aggregates")
	}

	// Expand projection items. SELECT * lists the FROM items' columns
	// in written order, whatever order connectedOrder joined them in.
	inSchema := plan.Schema()
	starSchema := inSchema
	if !grouped && !inWrittenOrder(comps) {
		starSchema = relation.Schema{}
		for _, p := range items {
			starSchema = starSchema.Concat(p.Schema())
		}
	}
	var exprs []sql.Expr
	var names []string
	for _, it := range stmt.Items {
		if it.Star {
			for _, c := range starSchema.Columns {
				if it.Table != "" && !strings.HasPrefix(strings.ToLower(c.Name), strings.ToLower(it.Table)+".") {
					continue
				}
				exprs = append(exprs, sql.Col(c.Name))
				names = append(names, c.Name)
			}
			continue
		}
		e := it.Expr
		if grouped {
			e = rewriteAggRefs(e, stmt.GroupBy)
		}
		exprs = append(exprs, e)
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr)
		}
		names = append(names, name)
	}
	if len(exprs) == 0 {
		return nil, fmt.Errorf("engine: empty projection")
	}

	// ORDER BY: prefer sorting on the projected output (aliases resolve
	// there); fall back to sorting the pre-projection input.
	project := NewProjectPlan(plan, exprs, names)
	if len(stmt.OrderBy) > 0 {
		rewritten := make([]sql.OrderItem, len(stmt.OrderBy))
		resolvable := true
		for i, o := range stmt.OrderBy {
			e := o.Expr
			if grouped {
				e = rewriteAggRefs(e, stmt.GroupBy)
			}
			rewritten[i] = sql.OrderItem{Expr: e, Desc: o.Desc}
			if !ResolvesAgainst(e, project.Schema()) {
				resolvable = false
			}
		}
		if resolvable {
			plan = &SortPlan{Input: project, Items: rewritten}
		} else {
			// Sort below the projection when items reference source columns.
			allBelow := true
			for _, o := range rewritten {
				if !ResolvesAgainst(o.Expr, inSchema) {
					allBelow = false
				}
			}
			if !allBelow {
				return nil, fmt.Errorf("engine: ORDER BY expression not resolvable")
			}
			sorted := &SortPlan{Input: plan, Items: rewritten}
			plan = NewProjectPlan(sorted, exprs, names)
		}
	} else {
		plan = project
	}

	if stmt.Distinct {
		plan = &DistinctPlan{Input: plan}
	}
	if stmt.Limit >= 0 {
		plan = &LimitPlan{Input: plan, N: stmt.Limit}
	}
	return plan, nil
}

// connectedOrder groups a branch's comma-separated FROM items into the
// components its WHERE connects, each listed in the order buildBranch
// joins it. A list of plain base tables is ordered greedily: a
// component starts with the first unplaced item and then repeatedly
// takes the first remaining item, in written order, that shares an
// equality conjunct with the items already in the component. buildBranch
// joins each component on its own and crosses only whole components, so
// the cross products left are exactly those between components the
// WHERE never connects. Without this, two atoms of an unfolded CQ that
// join only through a later third one become a cross product that
// pushIntoJoin cannot turn into a hash join. Inner comma joins commute
// under bag semantics; lists with explicit JOINs, subqueries, streams or
// repeated names keep their written order as one left-deep chain.
func connectedOrder(from []*sql.TableRef, items []Plan, where sql.Expr) [][]int {
	if len(items) == 0 {
		return nil
	}
	written := make([]int, len(items))
	for i := range written {
		written[i] = i
	}
	if len(items) < 3 || where == nil {
		return [][]int{written}
	}
	names := make(map[string]bool, len(from))
	for _, tr := range from {
		name := strings.ToLower(tr.Name())
		if tr.IsStream || tr.Window != nil || tr.Subquery != nil || len(tr.Joins) > 0 || names[name] {
			return [][]int{written}
		}
		names[name] = true
	}
	var eqs []*sql.BinaryExpr
	for _, c := range SplitConjuncts(where) {
		if be, ok := c.(*sql.BinaryExpr); ok && be.Op == "=" && hasColumnRef(be.Left) && hasColumnRef(be.Right) {
			eqs = append(eqs, be)
		}
	}
	if len(eqs) == 0 {
		return [][]int{written}
	}
	placed := make([]bool, len(items))
	var comps [][]int
	for start := range items {
		if placed[start] {
			continue
		}
		comp := []int{start}
		placed[start] = true
		joined := items[start].Schema()
		for grown := true; grown; {
			grown = false
			for i, p := range items {
				if !placed[i] && connects(eqs, joined, p.Schema()) {
					comp = append(comp, i)
					placed[i] = true
					joined = joined.Concat(p.Schema())
					grown = true
					break
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// connects reports whether one of the equality conjuncts has one side
// over the joined tables and the other over the candidate: the shape
// pushIntoJoin turns into a hash-join key.
func connects(eqs []*sql.BinaryExpr, joined, cand relation.Schema) bool {
	for _, be := range eqs {
		if ResolvesAgainst(be.Left, joined) && ResolvesAgainst(be.Right, cand) ||
			ResolvesAgainst(be.Right, joined) && ResolvesAgainst(be.Left, cand) {
			return true
		}
	}
	return false
}

// hasColumnRef reports whether e references a column; a literal
// resolves against every schema and so connects nothing.
func hasColumnRef(e sql.Expr) bool {
	found := false
	walkExpr(e, func(x sql.Expr) {
		if _, ok := x.(*sql.ColumnRef); ok {
			found = true
		}
	})
	return found
}

// inWrittenOrder reports whether the components list the FROM items in
// written order, so the joined schema already has the written layout.
func inWrittenOrder(comps [][]int) bool {
	next := 0
	for _, comp := range comps {
		for _, idx := range comp {
			if idx != next {
				return false
			}
			next++
		}
	}
	return true
}

// ResolvesAgainst reports whether every column reference in e can be
// resolved in the schema (treating aggregate calls as resolved columns).
func ResolvesAgainst(e sql.Expr, schema relation.Schema) bool {
	ok := true
	walkExpr(e, func(x sql.Expr) {
		switch c := x.(type) {
		case *sql.ColumnRef:
			if !schema.Has(c.FullName()) {
				ok = false
			}
		case *sql.FuncExpr:
			if IsAggregate(c.Name) && !schema.Has(c.String()) {
				ok = false
			}
		}
	})
	return ok
}

// rewriteAggRefs replaces aggregate calls and group expressions with
// column references into the aggregate plan's output schema.
func rewriteAggRefs(e sql.Expr, groupExprs []sql.Expr) sql.Expr {
	if e == nil {
		return nil
	}
	for _, g := range groupExprs {
		if e.String() == g.String() {
			return sql.Col(exprName(g))
		}
	}
	switch x := e.(type) {
	case *sql.FuncExpr:
		if IsAggregate(x.Name) {
			return &sql.ColumnRef{Name: x.String()}
		}
		args := make([]sql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rewriteAggRefs(a, groupExprs)
		}
		return &sql.FuncExpr{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *sql.BinaryExpr:
		return sql.Bin(x.Op, rewriteAggRefs(x.Left, groupExprs), rewriteAggRefs(x.Right, groupExprs))
	case *sql.UnaryExpr:
		return &sql.UnaryExpr{Op: x.Op, Expr: rewriteAggRefs(x.Expr, groupExprs)}
	case *sql.IsNullExpr:
		return &sql.IsNullExpr{Expr: rewriteAggRefs(x.Expr, groupExprs), Negate: x.Negate}
	case *sql.CaseExpr:
		out := &sql.CaseExpr{Else: rewriteAggRefs(x.Else, groupExprs)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sql.CaseWhen{
				Cond: rewriteAggRefs(w.Cond, groupExprs),
				Then: rewriteAggRefs(w.Then, groupExprs),
			})
		}
		return out
	case *sql.InExpr:
		out := &sql.InExpr{Expr: rewriteAggRefs(x.Expr, groupExprs), Negate: x.Negate}
		for _, i := range x.List {
			out.List = append(out.List, rewriteAggRefs(i, groupExprs))
		}
		return out
	default:
		return e
	}
}

func buildTableRef(tr *sql.TableRef, resolve TableResolver) (Plan, error) {
	var plan Plan
	var err error
	if tr.Subquery != nil {
		plan, err = buildUnoptimized(tr.Subquery, resolve)
		if err != nil {
			return nil, err
		}
		plan = NewAliasPlan(plan, tr.Alias)
	} else {
		plan, err = resolve(tr)
		if err != nil {
			return nil, err
		}
	}
	for _, j := range tr.Joins {
		right, err := buildTableRef(&sql.TableRef{
			Table: j.Right.Table, IsStream: j.Right.IsStream, Window: j.Right.Window,
			Subquery: j.Right.Subquery, Alias: j.Right.Alias,
		}, resolve)
		if err != nil {
			return nil, err
		}
		plan = buildJoin(plan, right, j)
	}
	return plan, nil
}

// buildJoin picks a hash join when the ON condition contains usable
// equi-join keys, otherwise a nested-loop join.
func buildJoin(left, right Plan, j sql.Join) Plan {
	outer := j.Kind == sql.JoinLeft
	if j.On == nil {
		return NewNestedLoopJoinPlan(left, right, nil, outer)
	}
	leftKeys, rightKeys, residual := ExtractEquiKeys(j.On, left.Schema(), right.Schema())
	if len(leftKeys) > 0 {
		return NewHashJoinPlan(left, right, leftKeys, rightKeys, residual, outer)
	}
	return NewNestedLoopJoinPlan(left, right, j.On, outer)
}

// ExtractEquiKeys splits a join predicate into equi-key pairs (left-side
// expression, right-side expression) plus a residual predicate for the
// remaining conjuncts. It returns no keys when the condition has no
// usable equality.
func ExtractEquiKeys(on sql.Expr, leftSchema, rightSchema relation.Schema) (leftKeys, rightKeys []sql.Expr, residual sql.Expr) {
	conjuncts := SplitConjuncts(on)
	var rest []sql.Expr
	for _, c := range conjuncts {
		be, ok := c.(*sql.BinaryExpr)
		if !ok || be.Op != "=" {
			rest = append(rest, c)
			continue
		}
		switch {
		case ResolvesAgainst(be.Left, leftSchema) && ResolvesAgainst(be.Right, rightSchema):
			leftKeys = append(leftKeys, be.Left)
			rightKeys = append(rightKeys, be.Right)
		case ResolvesAgainst(be.Right, leftSchema) && ResolvesAgainst(be.Left, rightSchema):
			leftKeys = append(leftKeys, be.Right)
			rightKeys = append(rightKeys, be.Left)
		default:
			rest = append(rest, c)
		}
	}
	return leftKeys, rightKeys, sql.AndAll(rest...)
}

// SplitConjuncts flattens an AND tree into its conjuncts.
func SplitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == "AND" {
		return append(SplitConjuncts(be.Left), SplitConjuncts(be.Right)...)
	}
	return []sql.Expr{e}
}

// Run parses, builds, and executes a SQL(+) query against a catalog,
// returning the result schema and rows. It is the one-call API used by
// tests and examples.
func Run(ctx *ExecContext, query string, resolve TableResolver) (relation.Schema, []relation.Tuple, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	if resolve == nil {
		resolve = CatalogResolver(ctx.Catalog)
	}
	plan, err := Build(stmt, resolve)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	rows, err := plan.Execute(ctx)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	return plan.Schema(), rows, nil
}
