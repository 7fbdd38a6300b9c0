package engine

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
)

// leaves returns every leaf node of a plan tree.
func leaves(p Plan) []Plan {
	kids := p.Children()
	if len(kids) == 0 {
		return []Plan{p}
	}
	var out []Plan
	for _, c := range kids {
		out = append(out, leaves(c)...)
	}
	return out
}

// TestRewritesLeaveInputUnchanged runs each pass of the plan walk on a
// plan it changes and checks the pass built new nodes instead of
// editing the input: the input's EXPLAIN text is the same afterwards,
// and every leaf of the input is, by identity, a leaf of the output
// (the stream engine rebinds those leaves in the rewritten plan).
func TestRewritesLeaveInputUnchanged(t *testing.T) {
	cat := statsRig(t, 1000)
	st := NewStatsStore(cat)
	tbl, _ := cat.Get("sensors")
	src := NewWindowSourcePlan("m", relation.NewSchema(
		relation.Col("m.sid", relation.TInt), relation.Col("m.val", relation.TFloat)))
	resolve := func(tr *sql.TableRef) (Plan, error) {
		if tr.IsStream {
			return src, nil
		}
		return CatalogResolver(cat)(tr)
	}
	build := func(q string) Plan {
		p, err := BuildUnoptimized(sql.MustParse(q), resolve)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sid := func(alias string) sql.Expr { return &sql.ColumnRef{Table: alias, Name: "sid"} }
	// A lookup chain the statistics reorder: the join on kind (NDV 5)
	// matches more rows per probe than the join on sid (unique), so the
	// sid join moves innermost.
	kindChain := NewLookupJoinPlan(NewLookupJoinPlan(src, "sensors", "k", tbl.Schema(),
		[]sql.Expr{sql.Lit(relation.String_("flow"))}, []string{"kind"}, nil),
		"sensors", "u", tbl.Schema(), []sql.Expr{sid("m")}, []string{"sid"}, nil)

	cases := []struct {
		name string
		in   Plan
		pass func(Plan) Plan
	}{
		{"Optimize", build(`SELECT a.sid, b.kind FROM sensors AS a, sensors AS b
			WHERE a.sid = b.sid AND a.kind = 'flow'`), Optimize},
		{"OptimizeWithStats/index-scan", build(`SELECT s.kind FROM sensors AS s WHERE s.sid = 7`),
			func(p Plan) Plan { return OptimizeWithStats(p, st) }},
		{"OptimizeWithStats/chain-reorder", NewProjectPlan(kindChain,
			[]sql.Expr{&sql.ColumnRef{Table: "k", Name: "val"}}, []string{"val"}),
			func(p Plan) Plan { return OptimizeWithStats(p, st) }},
		{"Adapt", Optimize(build(`SELECT d.sid FROM (SELECT m.sid FROM STREAM m AS m, sensors AS s
			WHERE m.sid = s.sid) AS d`)),
			func(p Plan) Plan { out, _ := Adapt(p, st); return out }},
	}
	for _, c := range cases {
		before := Explain(c.in)
		out := c.pass(c.in)
		if got := Explain(c.in); got != before {
			t.Errorf("%s modified its input:\nbefore:\n%s\nafter:\n%s", c.name, before, got)
		}
		if Explain(out) == before {
			t.Errorf("%s did not rewrite its input, so the case checks nothing:\n%s", c.name, before)
		}
		outLeaves := map[Plan]bool{}
		for _, l := range leaves(out) {
			outLeaves[l] = true
		}
		for _, l := range leaves(c.in) {
			if _, isScan := l.(*ScanPlan); isScan {
				continue // a scan may become an index scan or a lookup join's table
			}
			if !outLeaves[l] {
				t.Errorf("%s: input leaf %s is not a leaf of the output:\n%s", c.name, l, Explain(out))
			}
		}
	}
}
