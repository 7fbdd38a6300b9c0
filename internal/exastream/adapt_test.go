package exastream

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/sql"
)

// TestDerivedTableJoinIsLookupJoin registers a stream–static join
// inside a derived table: it must be planned as a lookup join, exactly
// like the same join at top level, with its index built at Register,
// and every window's rows must equal the as-written plan's over that
// window's tuples.
func TestDerivedTableJoinIsLookupJoin(t *testing.T) {
	e := testRig(t, Options{})
	derived, raw := &collector{}, &collector{}
	stmt := sql.MustParse(`SELECT d.sid, d.val FROM (
		SELECT m.sid, m.val, s.tid FROM STREAM msmt [RANGE 500 SLIDE 500] AS m, sensors AS s
		WHERE m.sid = s.sid) AS d
		WHERE d.tid = 2`)
	if err := e.Register("derived", stmt, nil, derived.sink); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("raw", sql.MustParse(`SELECT m.sid, m.ts, m.val
		FROM STREAM msmt [RANGE 500 SLIDE 500] AS m`), nil, raw.sink); err != nil {
		t.Fatal(err)
	}
	ex, err := e.ExplainQuery("derived", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex, "LookupJoin(sensors, m.sid=s.sid)") || strings.Contains(ex, "HashJoin") {
		t.Fatalf("the derived table's stream–static join is not a lookup join:\n%s", ex)
	}
	if tb, _ := e.Catalog().Get("sensors"); !tb.HasIndex("sid") {
		t.Fatal("index on sensors.sid not built at Register")
	}
	feed(t, e, 60, 100)

	// The as-written plan of the statement, over each window's tuples.
	ss, err := e.StreamSchema("msmt")
	if err != nil {
		t.Fatal(err)
	}
	window := engine.NewWindowSourcePlan("m", ss.Tuple.Qualify("m"))
	ref, err := engine.BuildUnoptimized(stmt, func(tr *sql.TableRef) (engine.Plan, error) {
		if tr.IsStream {
			return window, nil
		}
		return engine.CatalogResolver(e.Catalog())(tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64][]string{}
	for _, r := range derived.results {
		got[r.end] = rowStrings(r.rows)
	}
	matched := 0
	for _, r := range raw.results {
		window.Bind(relation.Transpose(r.rows))
		want, err := ref.Execute(engine.NewExecContext(e.Catalog()))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(got[r.end]), fmt.Sprint(rowStrings(want)); g != w {
			t.Fatalf("window %d: got %s, as written %s", r.end, g, w)
		}
		matched += len(want)
	}
	if matched == 0 {
		t.Fatal("the as-written plan selected no rows: the differential checks nothing")
	}
}

// TestCachedPlanSourcesReachable checks the plan cache's contract with
// the plan walk: every window source the cache rebinds per window is,
// by identity, a leaf of the plan it executes.
func TestCachedPlanSourcesReachable(t *testing.T) {
	queries := map[string]string{
		"join": `SELECT m.sid, s.tid FROM STREAM msmt [RANGE 500 SLIDE 500] AS m, sensors AS s
			WHERE m.sid = s.sid AND s.tid = 2`,
		"derived": `SELECT d.sid FROM (SELECT m.sid, s.tid FROM STREAM msmt [RANGE 500 SLIDE 500] AS m, sensors AS s
			WHERE m.sid = s.sid) AS d`,
		"self": `SELECT a.sid, b.sid FROM STREAM msmt [RANGE 500 SLIDE 500] AS a,
			msmt [RANGE 500 SLIDE 500] AS b WHERE a.ts = b.ts AND a.sid < b.sid`,
		"union": `SELECT m.sid FROM STREAM msmt [RANGE 500 SLIDE 500] AS m, sensors AS s WHERE m.sid = s.sid
			UNION SELECT n.sid FROM STREAM msmt [RANGE 500 SLIDE 500] AS n WHERE n.val > 60`,
	}
	e := testRig(t, Options{})
	for id, q := range queries {
		if err := e.Register(id, sql.MustParse(q), nil, (&collector{}).sink); err != nil {
			t.Fatal(err)
		}
	}
	for id := range queries {
		cp := e.queries[id].plan
		leaves := map[engine.Plan]bool{}
		var walk func(p engine.Plan)
		walk = func(p engine.Plan) {
			if len(p.Children()) == 0 {
				leaves[p] = true
			}
			for _, c := range p.Children() {
				walk(c)
			}
		}
		walk(cp.adapted)
		for i, src := range cp.sources {
			if !leaves[src] {
				t.Errorf("%s: window source %d (%s) is not in the executed plan:\n%s",
					id, i, src, engine.Explain(cp.adapted))
			}
		}
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
