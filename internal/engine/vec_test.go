package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// windowSchema is the unqualified tuple schema of the test stream `w`:
// typed columns of every vector layout plus `mix`, whose values mix
// types so its column degrades to the generic layout.
func windowSchema() relation.Schema {
	return relation.NewSchema(
		relation.Col("sid", relation.TInt),
		relation.Col("ts", relation.TTime),
		relation.Col("val", relation.TFloat),
		relation.Col("tag", relation.TString),
		relation.Col("ok", relation.TBool),
		relation.Col("mix", relation.TNull),
	)
}

// bigInt is 2^53, the first integer above which float64 skips integers.
const bigInt = 1 << 53

// randomBatch draws a window batch: empty batches, NULL-heavy columns,
// occasionally an all-NULL column, and sids and values around 2^53, so
// the differential covers the typed, generic, and degenerate vector
// layouts and exact integer comparison.
func randomBatch(rng *rand.Rand) []relation.Tuple {
	var n int
	switch rng.Intn(5) {
	case 0:
		n = 0
	case 1:
		n = 1
	default:
		n = 2 + rng.Intn(40)
	}
	allNullCol := -1
	if rng.Intn(4) == 0 {
		allNullCol = rng.Intn(6)
	}
	tags := []string{"p", "q", "r"}
	rows := make([]relation.Tuple, n)
	for i := range rows {
		row := relation.Tuple{
			relation.Int(int64(rng.Intn(6))),
			relation.Time(int64(i) * 100),
			relation.Float(float64(rng.Intn(50))),
			relation.String_(tags[rng.Intn(len(tags))]),
			relation.Bool_(rng.Intn(2) == 0),
			relation.Null,
		}
		if rng.Intn(8) == 0 { // integers float64 cannot tell apart
			row[0] = relation.Int(bigInt + int64(rng.Intn(3)))
			row[2] = relation.Float(bigInt + float64(2*rng.Intn(2)))
		}
		switch rng.Intn(3) { // mixed-type column
		case 0:
			row[5] = relation.Int(int64(rng.Intn(4)))
		case 1:
			row[5] = relation.String_(tags[rng.Intn(len(tags))])
		}
		for j := range row {
			if j == allNullCol || rng.Intn(8) == 0 {
				row[j] = relation.Null
			}
		}
		rows[i] = row
	}
	return rows
}

// randomWindowSQL draws a query shape over `w` (optionally joining the
// static `dim` table). Constant predicates produce full- and
// zero-selection bitmaps; AND/OR, every comparison type, arithmetic,
// the mixed column, and row-fallback shapes (IS NULL, CASE) are all in
// the pool.
func randomWindowSQL(rng *rand.Rand) string {
	pred := func() string {
		switch rng.Intn(15) {
		case 0:
			return fmt.Sprintf("w.val > %d", rng.Intn(50))
		case 12: // exact integer comparison above 2^53
			return fmt.Sprintf("w.sid = %d", bigInt+rng.Intn(3))
		case 13: // integer column against a REAL constant, and against a REAL column
			return fmt.Sprintf("w.sid >= %d.0 OR w.val = w.sid", bigInt+2*rng.Intn(2))
		case 14:
			return fmt.Sprintf("w.val < %d AND w.sid > %d", bigInt+rng.Intn(3), bigInt)
		case 1:
			return fmt.Sprintf("w.sid <= %d", rng.Intn(6))
		case 2:
			return "w.tag <> 'p'"
		case 3:
			return "w.ok"
		case 4:
			return fmt.Sprintf("w.sid = %d AND w.val >= %d", rng.Intn(6), rng.Intn(50))
		case 5:
			return fmt.Sprintf("w.val < %d OR w.tag = 'q'", rng.Intn(50))
		case 6:
			return fmt.Sprintf("w.sid + 1 < %d", rng.Intn(8))
		case 7:
			return "w.val * 2 > w.sid"
		case 8:
			return fmt.Sprintf("w.ts >= %d", rng.Intn(4000))
		case 9:
			return "1 = 1" // full selection
		case 10:
			return "1 = 2" // zero selection
		default:
			return "w.mix IS NULL" // row fallback inside the kernel tree
		}
	}
	switch rng.Intn(6) {
	case 0:
		return "SELECT w.sid, w.val FROM w WHERE " + pred()
	case 1:
		return fmt.Sprintf("SELECT w.sid + w.val, w.tag FROM w WHERE %s LIMIT %d", pred(), 1+rng.Intn(6))
	case 2:
		return "SELECT * FROM w WHERE " + pred()
	case 3: // aggregate above the columnar subtree
		return "SELECT w.sid, avg(w.val) FROM w WHERE " + pred() + " GROUP BY w.sid"
	case 4: // join with a static table above the columnar subtree
		return "SELECT w.sid, d.name FROM w, dim AS d WHERE w.sid = d.id AND " + pred()
	default:
		return "SELECT CASE WHEN w.val > 25 THEN 'hi' ELSE w.tag END FROM w WHERE " + pred()
	}
}

func dimCatalog(t *testing.T, indexed bool) *relation.Catalog {
	t.Helper()
	cat := relation.NewCatalog()
	tb, err := cat.Create("dim", relation.NewSchema(
		relation.Col("id", relation.TInt),
		relation.Col("name", relation.TString)))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		tb.MustInsert(relation.Tuple{relation.Int(i), relation.String_(fmt.Sprintf("n%d", i))})
	}
	if indexed {
		if err := tb.CreateIndex("id"); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// rowPathContext returns an execution context pinned to the
// tuple-at-a-time path, the oracle the columnar kernels are checked
// against.
func rowPathContext(cat *relation.Catalog) *ExecContext {
	ctx := NewExecContext(cat)
	ctx.rowPath = true
	return ctx
}

// diffExec runs the same plan over the same bound batch on the row path
// and the vectorized path and requires identical tuple multisets. Error
// identity may differ between the paths (see the semantics contract in
// vec.go) but error presence must not. It then checks the columnar
// entry point against the same oracle (diffColumns).
func diffExec(t *testing.T, cat *relation.Catalog, plan Plan, label string) {
	t.Helper()
	rowRes, rowErr := ExecutePlan(rowPathContext(cat), plan)
	vctx := NewExecContext(cat)
	vecRes, vecErr := ExecutePlan(vctx, plan)
	if (rowErr == nil) != (vecErr == nil) {
		t.Fatalf("%s: error disagreement: row=%v vec=%v", label, rowErr, vecErr)
	}
	if rowErr != nil {
		return
	}
	if !sameMultiset(rowRes, vecRes) {
		t.Fatalf("%s: results differ\nrow: %v\nvec: %v\nplan:\n%s", label, rowRes, vecRes, Explain(plan))
	}
	diffColumns(t, cat, plan, label)
}

// TestVectorizedFilterNaN checks that the row and vectorized filters
// order NaN alike, as relation.CompareFloat does: NaN equals NaN, no
// number, and sorts above every number, including +Inf.
func TestVectorizedFilterNaN(t *testing.T) {
	nan := relation.Float(math.NaN())
	schema := relation.NewSchema(relation.Col("sid", relation.TInt), relation.Col("val", relation.TFloat))
	rows := []relation.Tuple{
		{relation.Int(1), relation.Float(1)},
		{relation.Int(2), nan},
		{relation.Int(3), relation.Float(math.Inf(1))},
		{relation.Int(4), relation.Float(math.Copysign(0, -1))},
		{relation.Int(5), nan},
		{relation.Int(6), relation.Null},
	}
	cat := relation.NewCatalog()
	for _, tc := range []struct{ pred, want string }{
		{"w.val = 1", "[1]"},
		{"w.val <> 1", "[2 3 4 5]"},
		{"w.val > 1", "[2 3 5]"},
		{"w.val < 1", "[4]"},
		{"w.val >= 0", "[1 2 3 4 5]"},
		{"w.val = w.val", "[1 2 3 4 5]"},
		{"w.val > w.sid", "[2 3 5]"},
		{"w.sid = w.val", "[1]"},
	} {
		wsp := NewWindowSourcePlan("w", schema.Qualify("w"))
		resolver := func(*sql.TableRef) (Plan, error) { return wsp, nil }
		plan, err := Build(sql.MustParse("SELECT w.sid FROM w WHERE "+tc.pred), resolver)
		if err != nil {
			t.Fatal(err)
		}
		wsp.Bind(rows, relation.Transpose(rows))
		for _, ctx := range []*ExecContext{rowPathContext(cat), NewExecContext(cat)} {
			res, err := ExecutePlan(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int64, len(res))
			for i, r := range res {
				ids[i] = r[0].Int
			}
			if got := fmt.Sprint(ids); got != tc.want {
				t.Errorf("WHERE %s (row path %v) = %s, want %s", tc.pred, ctx.rowPath, got, tc.want)
			}
		}
	}
}

// TestVectorizedDifferentialSeeded is the seeded row-vs-vectorized
// differential: random plans over random window batches, each plan
// re-executed over several batches so the kernels' reused scratch
// (vecBufs, selection bitmaps, frames) is exercised across executions.
func TestVectorizedDifferentialSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	cat := dimCatalog(t, true)
	schema := windowSchema()
	for trial := 0; trial < 150; trial++ {
		query := randomWindowSQL(rng)
		stmt, err := sql.Parse(query)
		if err != nil {
			t.Fatalf("trial %d: generated invalid SQL %q: %v", trial, query, err)
		}
		wsp := NewWindowSourcePlan("w", schema.Qualify("w"))
		resolver := func(tr *sql.TableRef) (Plan, error) {
			if tr.Table == "w" {
				return wsp, nil
			}
			return CatalogResolver(cat)(tr)
		}
		plan, err := Build(stmt, resolver)
		if err != nil {
			t.Fatalf("trial %d: Build(%q): %v", trial, query, err)
		}
		for b := 0; b < 3; b++ {
			rows := randomBatch(rng)
			wsp.Bind(rows, relation.Transpose(rows))
			diffExec(t, cat, plan, fmt.Sprintf("trial %d batch %d: %s", trial, b, query))
		}
	}
}

// TestVectorizedLookupJoinDifferential drives the lookup-join kernel
// directly: scan and indexed probes, NULL keys, residual predicates,
// and empty probe batches.
func TestVectorizedLookupJoinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	schema := windowSchema()
	for _, indexed := range []bool{false, true} {
		cat := dimCatalog(t, indexed)
		for _, residual := range []sql.Expr{nil, sql.Bin(">", sql.Col("d.id"), sql.Lit(relation.Int(2)))} {
			wsp := NewWindowSourcePlan("w", schema.Qualify("w"))
			probe := &FilterPlan{Input: wsp, Pred: sql.MustParse("SELECT 1 FROM t WHERE w.val >= 10").Where}
			tb, err := cat.Get("dim")
			if err != nil {
				t.Fatal(err)
			}
			lj := NewLookupJoinPlan(probe, "dim", "d", tb.Schema(),
				[]sql.Expr{sql.Col("w.sid")}, []string{"id"}, residual)
			for b := 0; b < 6; b++ {
				rows := randomBatch(rng)
				wsp.Bind(rows, relation.Transpose(rows))
				diffExec(t, cat, lj, fmt.Sprintf("indexed=%v residual=%v batch %d", indexed, residual != nil, b))
			}
		}
	}
}

// TestVectorizedEdgeBatches pins the degenerate shapes explicitly:
// empty batch, all-NULL predicate column, constant-true and
// constant-false predicates.
func TestVectorizedEdgeBatches(t *testing.T) {
	cat := dimCatalog(t, false)
	schema := windowSchema()
	mk := func(query string) (Plan, *WindowSourcePlan) {
		t.Helper()
		wsp := NewWindowSourcePlan("w", schema.Qualify("w"))
		resolver := func(tr *sql.TableRef) (Plan, error) {
			if tr.Table == "w" {
				return wsp, nil
			}
			return CatalogResolver(cat)(tr)
		}
		plan, err := Build(sql.MustParse(query), resolver)
		if err != nil {
			t.Fatalf("Build(%q): %v", query, err)
		}
		return plan, wsp
	}
	someRows := []relation.Tuple{
		{relation.Int(1), relation.Time(0), relation.Null, relation.String_("p"), relation.Bool_(true), relation.Null},
		{relation.Int(2), relation.Time(100), relation.Null, relation.String_("q"), relation.Bool_(false), relation.Int(3)},
	}
	cases := []struct {
		name  string
		query string
		rows  []relation.Tuple
		want  int
	}{
		{"empty batch", "SELECT w.sid FROM w WHERE w.val > 0", nil, 0},
		{"all-null predicate column", "SELECT w.sid FROM w WHERE w.val > 0", someRows, 0},
		{"const true keeps all", "SELECT w.sid FROM w WHERE 1 = 1", someRows, 2},
		{"const false drops all", "SELECT w.sid FROM w WHERE 1 = 2", someRows, 0},
	}
	for _, c := range cases {
		plan, wsp := mk(c.query)
		wsp.Bind(c.rows, relation.Transpose(c.rows))
		ctx := NewExecContext(cat)
		got, err := ExecutePlan(ctx, plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != c.want {
			t.Errorf("%s: got %d rows, want %d: %v", c.name, len(got), c.want, got)
		}
		diffExec(t, cat, plan, c.name)
	}
}

// TestVectorizedSharedWindowRace models the parallel window pool: many
// queries execute concurrently over the same shared window batch (rows
// and one shared transposition), each with its own compiled plan. The
// shared vectors are read-only; run under -race.
func TestVectorizedSharedWindowRace(t *testing.T) {
	cat := dimCatalog(t, true)
	schema := windowSchema()
	rng := rand.New(rand.NewSource(7))
	rows := randomBatch(rng)
	for len(rows) < 8 {
		rows = randomBatch(rng)
	}
	cb := relation.Transpose(rows)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			query := fmt.Sprintf(
				"SELECT w.sid, w.val, d.name FROM w, dim AS d WHERE w.sid = d.id AND w.val > %d", g)
			wsp := NewWindowSourcePlan("w", schema.Qualify("w"))
			resolver := func(tr *sql.TableRef) (Plan, error) {
				if tr.Table == "w" {
					return wsp, nil
				}
				return CatalogResolver(cat)(tr)
			}
			plan, err := Build(sql.MustParse(query), resolver)
			if err != nil {
				errs[g] = err
				return
			}
			ctx := NewExecContext(cat)
			for iter := 0; iter < 100; iter++ {
				wsp.Bind(rows, cb)
				if _, err := ExecutePlan(ctx, plan); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestDerivedTableRunsKernels checks that a derived table's top
// operator runs columnar when its subtree has kernels: the inner
// projection compiles its columnar expressions and never its row
// closures, and the result equals the row path's.
func TestDerivedTableRunsKernels(t *testing.T) {
	cat := relation.NewCatalog()
	schema := relation.NewSchema(relation.Col("a", relation.TInt), relation.Col("b", relation.TInt))
	rows := []relation.Tuple{
		{relation.Int(1), relation.Int(0)},
		{relation.Int(2), relation.Int(2)},
		{relation.Int(3), relation.Int(5)},
		{relation.Int(4), relation.Null},
	}
	const query = "SELECT d.x FROM (SELECT w.a AS x FROM w WHERE w.b > 1) AS d"
	run := func(ctx *ExecContext) (*ProjectPlan, []relation.Tuple) {
		t.Helper()
		wsp := NewWindowSourcePlan("w", schema.Qualify("w"))
		plan, err := Build(sql.MustParse(query), func(*sql.TableRef) (Plan, error) { return wsp, nil })
		if err != nil {
			t.Fatal(err)
		}
		var inner *ProjectPlan
		var find func(p Plan)
		find = func(p Plan) {
			if a, ok := p.(*AliasPlan); ok {
				inner, _ = a.Input.(*ProjectPlan)
			}
			for _, c := range p.Children() {
				find(c)
			}
		}
		if find(plan); inner == nil {
			t.Fatalf("no projection under the derived table's alias:\n%s", Explain(plan))
		}
		wsp.Bind(rows, relation.Transpose(rows))
		res, err := ExecutePlan(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		return inner, res
	}
	inner, vecRes := run(NewExecContext(cat))
	if inner.vexprs == nil || inner.exprs != nil {
		t.Errorf("inner projection compiled columnar %v, row %v: want its kernel only", inner.vexprs != nil, inner.exprs != nil)
	}
	_, rowRes := run(rowPathContext(cat))
	if got, want := fmt.Sprint(vecRes), fmt.Sprint(rowRes); got != want || got != "[(2) (3)]" {
		t.Errorf("columnar %s, row path %s, want [(2) (3)]", got, want)
	}
}
