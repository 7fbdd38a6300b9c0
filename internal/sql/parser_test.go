package sql

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s' FROM t WHERE x <= 1.5 -- comment\nAND y <> 2")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", "FROM", "t", "WHERE", "x", "<=", "1.5", "AND", "y", "<>", "2"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("Lex = %v", texts)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'oops"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := Lex("SELECT @x"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := Lex(`SELECT "abc`); err == nil {
		t.Error("unterminated quoted identifier accepted")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s, err := Parse("SELECT a, b AS bee FROM t WHERE a = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Items) != 2 || s.Items[1].Alias != "bee" {
		t.Errorf("items = %v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Table != "t" {
		t.Errorf("from = %v", s.From)
	}
	be, ok := s.Where.(*BinaryExpr)
	if !ok || be.Op != "=" {
		t.Errorf("where = %v", s.Where)
	}
}

func TestParseStar(t *testing.T) {
	s := MustParse("SELECT *, t.* FROM t")
	if !s.Items[0].Star || s.Items[0].Table != "" {
		t.Error("bare star")
	}
	if !s.Items[1].Star || s.Items[1].Table != "t" {
		t.Error("qualified star")
	}
}

func TestParseJoins(t *testing.T) {
	s := MustParse(`SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y CROSS JOIN d`)
	tr := s.From[0]
	if len(tr.Joins) != 3 {
		t.Fatalf("joins = %d", len(tr.Joins))
	}
	if tr.Joins[0].Kind != JoinInner || tr.Joins[1].Kind != JoinLeft || tr.Joins[2].Kind != JoinCross {
		t.Errorf("join kinds = %v %v %v", tr.Joins[0].Kind, tr.Joins[1].Kind, tr.Joins[2].Kind)
	}
	if tr.Joins[2].On != nil {
		t.Error("cross join has ON")
	}
}

func TestParseStreamWindow(t *testing.T) {
	s := MustParse("SELECT * FROM STREAM msmt [RANGE 10000 SLIDE 1000] AS m WHERE m.v > 70")
	tr := s.From[0]
	if !tr.IsStream || tr.Table != "msmt" || tr.Alias != "m" {
		t.Errorf("stream ref = %+v", tr)
	}
	if tr.Window == nil || tr.Window.RangeMS != 10000 || tr.Window.SlideMS != 1000 {
		t.Errorf("window = %+v", tr.Window)
	}
	// Window on a bare name implies a stream.
	s2 := MustParse("SELECT * FROM msmt [RANGE 5 SLIDE 5]")
	if !s2.From[0].IsStream {
		t.Error("window did not imply stream")
	}
	if _, err := Parse("SELECT * FROM s [RANGE 0 SLIDE 1]"); err == nil {
		t.Error("zero range accepted")
	}
}

func TestParseGroupHavingOrderLimit(t *testing.T) {
	s := MustParse(`SELECT sensor, avg(v) AS m FROM r GROUP BY sensor HAVING avg(v) > 50 ORDER BY m DESC, sensor LIMIT 10`)
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Error("group/having")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("order = %v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Errorf("limit = %d", s.Limit)
	}
}

func TestParseUnionFlattening(t *testing.T) {
	s := MustParse("SELECT a FROM t UNION ALL SELECT a FROM u UNION ALL SELECT a FROM v")
	if len(s.Unions) != 2 || !s.UnionAll {
		t.Fatalf("unions = %d, all=%t", len(s.Unions), s.UnionAll)
	}
	if len(s.Branches()) != 3 {
		t.Errorf("branches = %d", len(s.Branches()))
	}
	if _, err := Parse("SELECT a FROM t UNION SELECT a FROM u UNION ALL SELECT a FROM v"); err == nil {
		t.Error("mixed UNION/UNION ALL accepted")
	}
}

func TestParseSubquery(t *testing.T) {
	s := MustParse("SELECT x FROM (SELECT a AS x FROM t) AS sub WHERE x > 1")
	if s.From[0].Subquery == nil || s.From[0].Alias != "sub" {
		t.Errorf("subquery = %+v", s.From[0])
	}
	if _, err := Parse("SELECT x FROM (SELECT a FROM t)"); err == nil {
		t.Error("derived table without alias accepted")
	}
}

func TestParseExpressions(t *testing.T) {
	s := MustParse(`SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END, b IS NOT NULL,
		c IN (1, 2, 3), d NOT IN (4), e BETWEEN 1 AND 5, -f, NOT g, a || b FROM t`)
	if len(s.Items) != 8 {
		t.Fatalf("items = %d", len(s.Items))
	}
	if _, ok := s.Items[0].Expr.(*CaseExpr); !ok {
		t.Error("case expr")
	}
	if n, ok := s.Items[1].Expr.(*IsNullExpr); !ok || !n.Negate {
		t.Error("is not null")
	}
	if in, ok := s.Items[2].Expr.(*InExpr); !ok || len(in.List) != 3 || in.Negate {
		t.Error("in list")
	}
	if in, ok := s.Items[3].Expr.(*InExpr); !ok || !in.Negate {
		t.Error("not in")
	}
	if be, ok := s.Items[4].Expr.(*BinaryExpr); !ok || be.Op != "AND" {
		t.Error("between desugaring")
	}
}

func TestParsePrecedence(t *testing.T) {
	s := MustParse("SELECT a + b * c FROM t")
	be := s.Items[0].Expr.(*BinaryExpr)
	if be.Op != "+" {
		t.Fatalf("top op = %s", be.Op)
	}
	if inner, ok := be.Right.(*BinaryExpr); !ok || inner.Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
	s2 := MustParse("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3")
	top := s2.Where.(*BinaryExpr)
	if top.Op != "OR" {
		t.Fatal("AND should bind tighter than OR")
	}
}

func TestParseNegativeLiteralFolding(t *testing.T) {
	s := MustParse("SELECT -5, -2.5 FROM t")
	if l, ok := s.Items[0].Expr.(*Literal); !ok || l.Value != relation.Int(-5) {
		t.Errorf("folded -5 = %v", s.Items[0].Expr)
	}
	if l, ok := s.Items[1].Expr.(*Literal); !ok || l.Value != relation.Float(-2.5) {
		t.Errorf("folded -2.5 = %v", s.Items[1].Expr)
	}
}

func TestParseFuncCalls(t *testing.T) {
	s := MustParse("SELECT count(*), count(DISTINCT a), my_udf(a, b, 1) FROM t")
	f0 := s.Items[0].Expr.(*FuncExpr)
	if !f0.Star || f0.Name != "count" {
		t.Error("count(*)")
	}
	f1 := s.Items[1].Expr.(*FuncExpr)
	if !f1.Distinct {
		t.Error("count(DISTINCT)")
	}
	f2 := s.Items[2].Expr.(*FuncExpr)
	if len(f2.Args) != 3 {
		t.Error("udf args")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t extra garbage (",
		"SELECT a FROM t JOIN u",     // missing ON
		"SELECT CASE END FROM t",     // CASE without WHEN
		"SELECT a IN () FROM t",      // empty IN list
		"SELECT a FROM s [RANGE 10]", // window missing SLIDE
		`SELECT "abc`,                // unterminated quoted identifier
		`SELECT"0000000000`,          // the same, with a name that reads as a number
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted invalid input", src)
		}
	}
}

// Round trip: String() output reparses to an equivalent tree (checked by
// comparing the re-rendered string).
func TestParsePrintRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT a, b AS bee FROM t WHERE (a = 1)",
		"SELECT * FROM a JOIN b ON (a.x = b.x) WHERE (a.y > 2.5)",
		"SELECT sensor, AVG(v) FROM STREAM m [RANGE 10000 SLIDE 1000] GROUP BY sensor",
		"SELECT DISTINCT a FROM t UNION ALL SELECT a FROM u",
		"SELECT x FROM (SELECT a AS x FROM t) AS sub ORDER BY x DESC LIMIT 3",
		"SELECT CASE WHEN (a > 1) THEN 'hi' ELSE 'lo' END FROM t",
		// Identifiers that do not lex as plain ones print quoted.
		`SELECT "a b" FROM t`,
		`SELECT "000" FROM t`,
		`SELECT "x y".*, "t 1"."c d" AS "e f" FROM "t 1" AS "x y" JOIN STREAM "s-1" [RANGE 5 SLIDE 5] AS "s 2" ON ("s 2".v = 1)`,
		`SELECT "my udf"(a), "1f"(*) FROM t`,
		// Floats print without an exponent, and -0 keeps its sign.
		"SELECT 1000000000000000000000.0, 0.0000001, -0.0 FROM t",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		s2, err := Parse(s1.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", s1.String(), err)
		}
		if s1.String() != s2.String() {
			t.Errorf("round trip changed:\n  %s\n  %s", s1, s2)
		}
	}
}

func TestAndAll(t *testing.T) {
	if AndAll() != nil {
		t.Error("AndAll() should be nil")
	}
	e := Col("a")
	if AndAll(nil, e, nil) != e {
		t.Error("AndAll single")
	}
	both := AndAll(Col("a"), Col("b"))
	if be, ok := both.(*BinaryExpr); !ok || be.Op != "AND" {
		t.Error("AndAll pair")
	}
}

func TestColHelperQualified(t *testing.T) {
	c := Col("t.a").(*ColumnRef)
	if c.Table != "t" || c.Name != "a" {
		t.Errorf("Col = %+v", c)
	}
}
