package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// TestHashJoinMatchesNestedLoopEquality pins that a hash join agrees
// with the = operator: each case joins a and b once on equalities (a
// hash join) and once on the same keys written as <= AND >= (a
// nested-loop join evaluated by relation.Compare), and both must return
// the expected number of rows.
func TestHashJoinMatchesNestedLoopEquality(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name       string
		aCols      []relation.Column
		bCols      []relation.Column
		aRows      []relation.Tuple
		bRows      []relation.Tuple
		wantJoined int
	}{
		{
			name:  "int equals float",
			aCols: []relation.Column{relation.Col("x", relation.TInt)},
			bCols: []relation.Column{relation.Col("y", relation.TFloat)},
			aRows: []relation.Tuple{{relation.Int(1)}, {relation.Int(2)}},
			bRows: []relation.Tuple{{relation.Float(1.0)}, {relation.Float(2.5)}},
			// 1 = 1.0 only.
			wantJoined: 1,
		},
		{
			name:       "negative zero equals zero",
			aCols:      []relation.Column{relation.Col("x", relation.TFloat)},
			bCols:      []relation.Column{relation.Col("y", relation.TFloat)},
			aRows:      []relation.Tuple{{relation.Float(negZero)}},
			bRows:      []relation.Tuple{{relation.Float(0)}},
			wantJoined: 1,
		},
		{
			name:       "time equals int",
			aCols:      []relation.Column{relation.Col("x", relation.TTime)},
			bCols:      []relation.Column{relation.Col("y", relation.TInt)},
			aRows:      []relation.Tuple{{relation.Time(5)}, {relation.Time(6)}},
			bRows:      []relation.Tuple{{relation.Int(5)}},
			wantJoined: 1,
		},
		{
			name:       "null never joins",
			aCols:      []relation.Column{relation.Col("x", relation.TInt)},
			bCols:      []relation.Column{relation.Col("y", relation.TInt)},
			aRows:      []relation.Tuple{{relation.Null}, {relation.Int(1)}},
			bRows:      []relation.Tuple{{relation.Null}, {relation.Int(2)}},
			wantJoined: 0,
		},
		{
			name:  "strings with unit separators",
			aCols: []relation.Column{relation.Col("x", relation.TString), relation.Col("x2", relation.TString)},
			bCols: []relation.Column{relation.Col("y", relation.TString), relation.Col("y2", relation.TString)},
			// Same bytes once concatenated with a 0x1f separator, but
			// unequal column by column; plus one true match.
			aRows: []relation.Tuple{
				{relation.String_("a\x1f3b"), relation.String_("c")},
				{relation.String_("p\x1f"), relation.String_("q")},
			},
			bRows: []relation.Tuple{
				{relation.String_("a"), relation.String_("b\x1f3c")},
				{relation.String_("p\x1f"), relation.String_("q")},
			},
			wantJoined: 1,
		},
		{
			name:       "bools",
			aCols:      []relation.Column{relation.Col("x", relation.TBool)},
			bCols:      []relation.Column{relation.Col("y", relation.TBool)},
			aRows:      []relation.Tuple{{relation.Bool_(true)}, {relation.Bool_(false)}},
			bRows:      []relation.Tuple{{relation.Bool_(true)}, {relation.Bool_(true)}},
			wantJoined: 2,
		},
		{
			name:  "multi-column keys",
			aCols: []relation.Column{relation.Col("x", relation.TInt), relation.Col("x2", relation.TString)},
			bCols: []relation.Column{relation.Col("y", relation.TFloat), relation.Col("y2", relation.TString)},
			aRows: []relation.Tuple{
				{relation.Int(1), relation.String_("k")},
				{relation.Int(1), relation.String_("m")},
				{relation.Int(2), relation.Null},
			},
			bRows: []relation.Tuple{
				{relation.Float(1), relation.String_("k")},
				{relation.Float(1), relation.String_("k")},
				{relation.Float(2), relation.Null},
			},
			// (1,'k') meets both duplicates; the NULL key joins nothing.
			wantJoined: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := relation.NewCatalog()
			for _, tb := range []struct {
				name string
				cols []relation.Column
				rows []relation.Tuple
			}{{"a", tc.aCols, tc.aRows}, {"b", tc.bCols, tc.bRows}} {
				table, err := cat.Create(tb.name, relation.NewSchema(tb.cols...))
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range tb.rows {
					table.MustInsert(r)
				}
			}
			var eq, le []string
			for i := range tc.aCols {
				x, y := "a."+tc.aCols[i].Name, "b."+tc.bCols[i].Name
				eq = append(eq, x+" = "+y)
				le = append(le, x+" <= "+y+" AND "+x+" >= "+y)
			}
			run := func(on, wantOp string) []string {
				stmt := sql.MustParse("SELECT * FROM a JOIN b ON " + on)
				plan, err := Build(stmt, CatalogResolver(cat))
				if err != nil {
					t.Fatal(err)
				}
				if ex := Explain(plan); !strings.Contains(ex, wantOp) {
					t.Fatalf("ON %s: want a %s plan:\n%s", on, wantOp, ex)
				}
				rows, err := plan.Execute(NewExecContext(cat))
				if err != nil {
					t.Fatal(err)
				}
				return rowStrings(rows)
			}
			hash := run(strings.Join(eq, " AND "), "HashJoin")
			nested := run(strings.Join(le, " AND "), "NestedLoopJoin")
			if len(nested) != tc.wantJoined {
				t.Fatalf("nested-loop join returned %d rows, want %d: %v", len(nested), tc.wantJoined, nested)
			}
			if strings.Join(hash, "\n") != strings.Join(nested, "\n") {
				t.Fatalf("hash join disagrees with =:\nhash:   %v\nnested: %v", hash, nested)
			}
		})
	}
}

func rowStrings(rows []relation.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// asWrittenPlan builds the reference for a comma join: the FROM items
// crossed left to right in written order, the WHERE on top, then the
// projection, with no optimisation.
func asWrittenPlan(t *testing.T, stmt *sql.SelectStmt, cat *relation.Catalog) Plan {
	t.Helper()
	resolve := CatalogResolver(cat)
	var plan Plan
	for _, tr := range stmt.From {
		p, err := resolve(tr)
		if err != nil {
			t.Fatal(err)
		}
		if plan == nil {
			plan = p
			continue
		}
		plan = NewNestedLoopJoinPlan(plan, p, nil, false)
	}
	if stmt.Where != nil {
		plan = &FilterPlan{Input: plan, Pred: stmt.Where}
	}
	in := plan.Schema()
	var exprs []sql.Expr
	var names []string
	for _, it := range stmt.Items {
		if !it.Star {
			exprs = append(exprs, it.Expr)
			names = append(names, exprName(it.Expr))
			continue
		}
		for _, c := range in.Columns {
			if it.Table == "" || strings.HasPrefix(c.Name, it.Table+".") {
				exprs = append(exprs, sql.Col(c.Name))
				names = append(names, c.Name)
			}
		}
	}
	return NewProjectPlan(plan, exprs, names)
}

// randomCommaJoin draws a comma join of 3–6 small tables (t0..tn-1, each
// with int columns k and v, duplicate rows likely) over a random forest
// of equality edges, so some queries have several components. WHERE may
// also carry single-table filters and a cross-table inequality;
// projections are SELECT *, a qualified star, or explicit columns.
func randomCommaJoin(rng *rand.Rand, trial int) (*relation.Catalog, string, int) {
	cat := relation.NewCatalog()
	n := 3 + rng.Intn(4)
	tables := make([]string, n)
	for i := range tables {
		tables[i] = fmt.Sprintf("t%d", i)
		table, err := cat.Create(tables[i], relation.NewSchema(
			relation.Col("k", relation.TInt), relation.Col("v", relation.TInt)))
		if err != nil {
			panic(err)
		}
		for r := rng.Intn(5); r > 0; r-- {
			table.MustInsert(relation.Tuple{relation.Int(int64(rng.Intn(3))), relation.Int(int64(rng.Intn(3)))})
		}
	}
	// Written order is a shuffle of the tables, so edges run in both
	// directions between written positions.
	from := append([]string(nil), tables...)
	rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
	cols := []string{"k", "v"}
	col := func(tab string) string { return tab + "." + cols[rng.Intn(2)] }
	// Each table after the first joins an earlier one with probability
	// 2/3, otherwise it starts a new component.
	parent := make([]int, n)
	var conds []string
	for i := 1; i < n; i++ {
		parent[i] = i
		if rng.Intn(3) > 0 {
			j := rng.Intn(i)
			parent[i] = j
			conds = append(conds, col(tables[j])+" = "+col(tables[i]))
		}
	}
	comps := 0
	for i := range parent {
		if parent[i] == i {
			comps++
		}
	}
	if rng.Intn(2) == 0 {
		conds = append(conds, col(tables[rng.Intn(n)])+" > 0")
	}
	if rng.Intn(3) == 0 {
		conds = append(conds, col(tables[rng.Intn(n)])+" <= "+col(tables[rng.Intn(n)]))
	}
	var items string
	switch trial % 3 {
	case 0:
		items = "*"
	case 1:
		items = from[rng.Intn(n)] + ".*, " + col(from[rng.Intn(n)])
	default:
		var cs []string
		for m := 1 + rng.Intn(4); m > 0; m-- {
			cs = append(cs, col(tables[rng.Intn(n)]))
		}
		items = strings.Join(cs, ", ")
	}
	q := "SELECT " + items + " FROM " + strings.Join(from, ", ")
	if len(conds) > 0 {
		q += " WHERE " + strings.Join(conds, " AND ")
	}
	return cat, q, comps
}

// TestConnectedJoinOrderDifferential compares Build against the
// as-written cross-product evaluation on seeded random comma joins: the
// row multisets must be equal and the output columns identical, in
// name and order. Cross products may remain only between components
// the WHERE never connects.
func TestConnectedJoinOrderDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	reordered := 0
	for trial := 0; trial < 600; trial++ {
		cat, q, comps := randomCommaJoin(rng, trial)
		stmt := sql.MustParse(q)
		plan, err := Build(stmt, CatalogResolver(cat))
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, q, err)
		}
		ref := asWrittenPlan(t, stmt, cat)
		if got, want := plan.Schema().Names(), ref.Schema().Names(); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("trial %d: %s: columns %v, as written %v", trial, q, got, want)
		}
		rows, err := plan.Execute(NewExecContext(cat))
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, q, err)
		}
		refRows, err := ref.Execute(NewExecContext(cat))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowStrings(rows), rowStrings(refRows); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("trial %d: %s:\ngot  %v\nwant %v\nplan:\n%s", trial, q, got, want, Explain(plan))
		}
		ex := Explain(plan)
		if crosses := strings.Count(ex, "NestedLoopJoin(true)"); crosses > comps-1 {
			t.Fatalf("trial %d: %s: %d cross products for %d components:\n%s", trial, q, crosses, comps, ex)
		}
		if order := connectedOrder(stmt.From, fromPlans(t, stmt, cat), stmt.Where); !inWrittenOrder(order) {
			reordered++
		}
	}
	if reordered < 100 {
		t.Fatalf("only %d of 600 queries were reordered: the generator does not exercise the join order", reordered)
	}
}

func fromPlans(t *testing.T, stmt *sql.SelectStmt, cat *relation.Catalog) []Plan {
	t.Helper()
	out := make([]Plan, len(stmt.From))
	for i, tr := range stmt.From {
		p, err := buildTableRef(tr, CatalogResolver(cat))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// TestConnectedJoinOrderKeepsWrittenOrder pins the lists the planner
// must not reorder: explicit JOINs and subqueries keep their written
// left-deep order, as does a list whose WHERE connects nothing.
func TestConnectedJoinOrderKeepsWrittenOrder(t *testing.T) {
	cat := fixture(t)
	for _, q := range []string{
		"SELECT * FROM sensors s JOIN turbines t ON s.tid = t.tid, msmt m WHERE m.sid = s.sid",
		"SELECT * FROM sensors s, (SELECT * FROM turbines) t, msmt m WHERE m.sid = s.sid AND t.tid = s.tid",
		"SELECT * FROM sensors s, turbines t, msmt m WHERE m.val > 60",
	} {
		stmt := sql.MustParse(q)
		if order := connectedOrder(stmt.From, fromPlans(t, stmt, cat), stmt.Where); len(order) != 1 || !inWrittenOrder(order) {
			t.Fatalf("%s: order %v, want the written order", q, order)
		}
	}
	// A chain written out of order is joined along its edges.
	stmt := sql.MustParse("SELECT * FROM msmt m, turbines t, sensors s WHERE m.sid = s.sid AND s.tid = t.tid")
	plan, err := Build(stmt, CatalogResolver(cat))
	if err != nil {
		t.Fatal(err)
	}
	if ex := Explain(plan); strings.Contains(ex, "NestedLoopJoin") {
		t.Fatalf("connected chain kept a cross product:\n%s", ex)
	}
	if got := strings.Join(plan.Schema().Names(), ","); !strings.HasPrefix(got, "m.sid,m.ts,m.val,t.tid,t.model,s.sid") {
		t.Fatalf("SELECT * columns %s, want the written order", got)
	}
}
