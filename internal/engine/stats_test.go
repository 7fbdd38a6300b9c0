package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// collectIndexScans returns every IndexScanPlan in a plan tree.
func collectIndexScans(p Plan) []*IndexScanPlan {
	var out []*IndexScanPlan
	if s, ok := p.(*IndexScanPlan); ok {
		out = append(out, s)
	}
	for _, c := range p.Children() {
		out = append(out, collectIndexScans(c)...)
	}
	return out
}

// statsRig builds a catalog with a sensors table of n rows: sid 0..n-1
// (unique), kind cycling over 5 values, val = sid as float.
func statsRig(t *testing.T, n int64) *relation.Catalog {
	t.Helper()
	cat := relation.NewCatalog()
	sensors, err := cat.Create("sensors", relation.NewSchema(
		relation.Col("sid", relation.TInt),
		relation.Col("kind", relation.TString),
		relation.Col("val", relation.TFloat)))
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"temperature", "pressure", "vibration", "flow", "speed"}
	for i := int64(0); i < n; i++ {
		sensors.MustInsert(relation.Tuple{
			relation.Int(i),
			relation.String_(kinds[i%int64(len(kinds))]),
			relation.Float(float64(i)),
		})
	}
	return cat
}

func TestAnalyzeTableStats(t *testing.T) {
	cat := statsRig(t, 1000)
	st := NewStatsStore(cat)
	ts := st.Table("sensors")
	if ts == nil {
		t.Fatal("no stats for sensors")
	}
	if ts.RowCount != 1000 {
		t.Fatalf("RowCount = %d, want 1000", ts.RowCount)
	}
	sid := ts.Col("sid")
	if sid == nil || sid.NDV != 1000 {
		t.Fatalf("sid NDV = %+v, want 1000", sid)
	}
	kind := ts.Col("KIND") // case-insensitive
	if kind == nil || kind.NDV != 5 {
		t.Fatalf("kind NDV = %+v, want 5", kind)
	}
	if len(sid.Hist) == 0 {
		t.Fatal("sid has no histogram")
	}

	// Unique column: eq selectivity is 1/NDV; out-of-range pins to 0.
	if got := sid.EqSelectivity(ts.RowCount, relation.Int(500)); got != 1.0/1000 {
		t.Errorf("eq sel in range = %v, want 0.001", got)
	}
	if got := sid.EqSelectivity(ts.RowCount, relation.Int(5000)); got != 0 {
		t.Errorf("eq sel out of range = %v, want 0", got)
	}

	// Range selectivity through the equi-depth histogram: the median
	// splits roughly in half, and < is monotone in v.
	mid := sid.RangeSelectivity("<", relation.Int(500))
	if mid < 0.35 || mid > 0.65 {
		t.Errorf("sel(sid < 500) = %v, want ~0.5", mid)
	}
	lo := sid.RangeSelectivity("<", relation.Int(100))
	hi := sid.RangeSelectivity("<", relation.Int(900))
	if !(lo < mid && mid < hi) {
		t.Errorf("range selectivity not monotone: %v %v %v", lo, mid, hi)
	}
}

func TestStatsStoreInvalidatedByCatalogGeneration(t *testing.T) {
	cat := statsRig(t, 100)
	st := NewStatsStore(cat)
	before := st.Table("sensors")
	if before == nil || before.RowCount != 100 {
		t.Fatalf("unexpected initial stats: %+v", before)
	}
	// Creating a table bumps the catalog generation; the cached entry
	// must be re-analyzed on next access, not served stale.
	if _, err := cat.Create("other", relation.NewSchema(relation.Col("x", relation.TInt))); err != nil {
		t.Fatal(err)
	}
	after := st.Table("sensors")
	if after == nil {
		t.Fatal("stats vanished after generation bump")
	}
	if after.Gen == before.Gen {
		t.Fatalf("stats not refreshed: gen still %d", after.Gen)
	}
}

// TestEstimatePlanWindowRows: a window source is estimated at the rows
// per execution the caller observed, or at the default before any
// observation.
func TestEstimatePlanWindowRows(t *testing.T) {
	src := NewWindowSourcePlan("m", relation.NewSchema(relation.Col("m.sid", relation.TInt)))
	for _, c := range []struct{ observed, want float64 }{{0, defaultStreamRows}, {12.5, 12.5}} {
		if got := EstimatePlan(src, nil, c.observed)[src].EstRows; got != c.want {
			t.Errorf("observed %v rows per window: estimate %v, want %v", c.observed, got, c.want)
		}
	}
}

func TestOptimizeWithStatsChoosesIndexScan(t *testing.T) {
	cat := statsRig(t, 1000)
	st := NewStatsStore(cat)
	tbl, _ := cat.Get("sensors")
	scan := NewScanPlan(tbl.Name(), "s", tbl.Schema())
	pred := sql.Bin("AND",
		sql.Bin("=", &sql.ColumnRef{Table: "s", Name: "sid"}, sql.Lit(relation.Int(7))),
		sql.Bin(">", &sql.ColumnRef{Table: "s", Name: "val"}, sql.Lit(relation.Float(-1))))
	var before Plan = &FilterPlan{Input: scan, Pred: pred}

	after := OptimizeWithStats(before, st)
	found := collectIndexScans(after)
	if len(found) != 1 {
		t.Fatalf("expected one index scan, got %d in:\n%s", len(found), after.String())
	}
	is := found[0]
	if is.Table != "sensors" || len(is.Cols) != 1 || is.Cols[0] != "sid" {
		t.Fatalf("unexpected index scan target: %+v", is)
	}
	if is.Residual == nil {
		t.Fatal("range conjunct should remain as residual")
	}

	// Differential: both plans return the same rows.
	ctx := NewExecContext(cat)
	want, err := before.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := after.Execute(NewExecContext(cat))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("index scan changed results:\nwant %v\ngot  %v", want, got)
	}
}

func TestOptimizeWithStatsKeepsTinyTableScan(t *testing.T) {
	cat := statsRig(t, 4) // below indexScanMinRows
	st := NewStatsStore(cat)
	tbl, _ := cat.Get("sensors")
	var p Plan = &FilterPlan{
		Input: NewScanPlan(tbl.Name(), "s", tbl.Schema()),
		Pred:  sql.Bin("=", &sql.ColumnRef{Table: "s", Name: "sid"}, sql.Lit(relation.Int(1))),
	}
	if got := OptimizeWithStats(p, st); len(collectIndexScans(got)) != 0 {
		t.Fatalf("tiny table should stay a scan:\n%s", got.String())
	}
}

func TestReorderLookupChainBySelectivity(t *testing.T) {
	// Stream rows join two tables: "wide" matches many rows per probe
	// (NDV 2 over 100 rows), "narrow" exactly one (unique key). The
	// optimizer must probe narrow first.
	cat := relation.NewCatalog()
	wide, err := cat.Create("wide", relation.NewSchema(
		relation.Col("k", relation.TInt), relation.Col("w", relation.TInt)))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := cat.Create("narrow", relation.NewSchema(
		relation.Col("id", relation.TInt), relation.Col("n", relation.TInt)))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		wide.MustInsert(relation.Tuple{relation.Int(i % 2), relation.Int(i)})
		narrow.MustInsert(relation.Tuple{relation.Int(i), relation.Int(i * 10)})
	}
	st := NewStatsStore(cat)

	src := NewWindowSourcePlan("m", relation.NewSchema(
		relation.Col("m.sid", relation.TInt), relation.Col("m.flag", relation.TInt)))
	inner := NewLookupJoinPlan(src, "wide", "a", wide.Schema(),
		[]sql.Expr{&sql.ColumnRef{Table: "m", Name: "flag"}}, []string{"k"}, nil)
	top := NewLookupJoinPlan(inner, "narrow", "b", narrow.Schema(),
		[]sql.Expr{&sql.ColumnRef{Table: "m", Name: "sid"}}, []string{"id"}, nil)
	proj := NewProjectPlan(top, []sql.Expr{
		&sql.ColumnRef{Table: "b", Name: "n"},
		&sql.ColumnRef{Table: "a", Name: "w"},
	}, []string{"n", "w"})

	opt := OptimizeWithStats(proj, st)
	optTop, ok := opt.(*ProjectPlan).Input.(*LookupJoinPlan)
	if !ok {
		t.Fatalf("optimized root is not a lookup join:\n%s", opt.String())
	}
	if optTop.Table != "wide" {
		t.Fatalf("chain not reordered: outermost join is %s, want wide last", optTop.Table)
	}

	rows := []relation.Tuple{
		{relation.Int(3), relation.Int(1)},
		{relation.Int(8), relation.Int(0)},
	}
	exec := func(p Plan) []string {
		src.Bind(relation.Transpose(rows))
		out, err := p.Execute(NewExecContext(cat))
		if err != nil {
			t.Fatal(err)
		}
		var ss []string
		for _, r := range out {
			ss = append(ss, fmt.Sprint(r))
		}
		sort.Strings(ss)
		return ss
	}
	want := exec(proj)
	got := exec(opt)
	if len(want) == 0 {
		t.Fatal("oracle produced no rows — vacuous differential")
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("reorder changed the result set:\nwant %v\ngot  %v", want, got)
	}
}

// TestReorderLookupChainKeepsTies checks that a lookup chain whose
// members tie on matches per probe keeps its written order, so a second
// OptimizeWithStats leaves the plan as the first one left it.
func TestReorderLookupChainKeepsTies(t *testing.T) {
	cat := relation.NewCatalog()
	for _, name := range []string{"left", "right"} {
		tab, err := cat.Create(name, relation.NewSchema(
			relation.Col("id", relation.TInt), relation.Col("v", relation.TInt)))
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 50; i++ {
			tab.MustInsert(relation.Tuple{relation.Int(i), relation.Int(i * 10)})
		}
	}
	st := NewStatsStore(cat)
	schema := relation.NewSchema(relation.Col("id", relation.TInt), relation.Col("v", relation.TInt))
	src := NewWindowSourcePlan("m", relation.NewSchema(
		relation.Col("m.a", relation.TInt), relation.Col("m.b", relation.TInt)))
	inner := NewLookupJoinPlan(src, "left", "l", schema,
		[]sql.Expr{&sql.ColumnRef{Table: "m", Name: "a"}}, []string{"id"}, nil)
	top := NewLookupJoinPlan(inner, "right", "r", schema,
		[]sql.Expr{&sql.ColumnRef{Table: "m", Name: "b"}}, []string{"id"}, nil)
	proj := NewProjectPlan(top, []sql.Expr{
		&sql.ColumnRef{Table: "l", Name: "v"},
		&sql.ColumnRef{Table: "r", Name: "v"},
	}, []string{"lv", "rv"})

	once := OptimizeWithStats(proj, st)
	if got, want := Explain(once), Explain(proj); got != want {
		t.Fatalf("tied chain was reordered:\n%s\nwant as written:\n%s", got, want)
	}
	if got, want := Explain(OptimizeWithStats(once, st)), Explain(once); got != want {
		t.Fatalf("second OptimizeWithStats changed the plan:\n%s\nfirst pass:\n%s", got, want)
	}
}

func TestEstimatePlanCoversTree(t *testing.T) {
	cat := statsRig(t, 1000)
	st := NewStatsStore(cat)
	stmt := sql.MustParse(`SELECT s.kind, count(*) FROM sensors AS s WHERE s.sid < 500 GROUP BY s.kind`)
	plan, err := Build(stmt, CatalogResolver(cat))
	if err != nil {
		t.Fatal(err)
	}
	est := EstimatePlan(plan, st, 0)
	var walk func(Plan)
	walk = func(p Plan) {
		e, ok := est[p]
		if !ok {
			t.Fatalf("no estimate for node %T", p)
		}
		if e.EstRows < 0 || e.EstCost < 0 {
			t.Fatalf("negative estimate for %T: %+v", p, e)
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(plan)
	// The scan estimate must reflect ANALYZE, not the default.
	for p, e := range est {
		if _, ok := p.(*ScanPlan); ok && e.EstRows != 1000 {
			t.Fatalf("scan estimate = %v, want 1000", e.EstRows)
		}
	}
}

// TestExplainAnalyzeZeroCallOperators pins the selectivity guard: an
// operator that never executed (calls=0 — e.g. a pruned union branch
// in an aggregated kind) must not render a selectivity, a NaN, or an
// Inf, and nil estimates must render the legacy format.
func TestExplainAnalyzeZeroCallOperators(t *testing.T) {
	cat := statsRig(t, 10)
	tbl, _ := cat.Get("sensors")
	var p Plan = &FilterPlan{
		Input: NewScanPlan(tbl.Name(), "s", tbl.Schema()),
		Pred:  sql.Bin("=", &sql.ColumnRef{Table: "s", Name: "sid"}, sql.Lit(relation.Int(1))),
	}
	var st ExecStats
	// The scan produced rows on a previous tick, but the filter was
	// never invoked: input > 0 with calls=0 used to print sel=0.0%.
	st.Ops[OpScan] = OpCounters{Calls: 1, RowsOut: 10}
	st.Ops[OpFilter] = OpCounters{Calls: 0, RowsOut: 0}

	out := ExplainAnalyze(p, &st, nil)
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Fatalf("explain output leaks %s:\n%s", bad, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "calls=0") && strings.Contains(line, "sel=") {
			t.Fatalf("zero-call operator renders selectivity:\n%s", out)
		}
	}

	// With estimates attached, the same guard holds and the est-vs-obs
	// column appears.
	est := EstimatePlan(p, NewStatsStore(cat), 0)
	out = ExplainAnalyze(p, &st, est)
	if !strings.Contains(out, "est_rows=") || !strings.Contains(out, "obs_rows=") {
		t.Fatalf("estimates column missing:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("explain-with-estimates leaks NaN/Inf:\n%s", out)
	}
}
