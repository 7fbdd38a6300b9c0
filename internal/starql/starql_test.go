package starql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/stream"
)

// figure1 is the paper's Figure 1 query, verbatim up to whitespace, with
// a PREFIX declaration supplying the sie namespace.
const figure1 = `
PREFIX sie: <http://siemens.com/ontology#>
PREFIX : <http://www.optique-project.eu/siemens/out#>

CREATE STREAM S_out AS
CONSTRUCT GRAPH NOW { ?c2 rdf:type :MonInc }
FROM STREAM S_Msmt [NOW-"PT10S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration,
STATIC DATA <http://www.optique-project.eu/siemens/ABoxstatic>,
ONTOLOGY <http://www.optique-project.eu/siemens/TBox>
USING PULSE WITH START = "00:00:00CET", FREQUENCY = "1S"
WHERE {?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2.}
SEQUENCE BY StdSeq AS seq
HAVING MONOTONIC.HAVING(?c2, sie:hasValue)

CREATE AGGREGATE MONOTONIC:HAVING ($var, $attr) AS
HAVING EXISTS ?k IN SEQ: GRAPH ?k { $var sie:showsFailure } AND
FORALL ?i < ?j IN seq, ?x, ?y:
IF ( ?i, ?j < ?k AND GRAPH ?i {$var $attr ?x} AND GRAPH ?j {$var $attr ?y}) THEN ?x<=?y
`

const sieNS = "http://siemens.com/ontology#"

func TestParseDurations(t *testing.T) {
	cases := map[string]int64{
		"PT10S":   10_000,
		"PT1M30S": 90_000,
		"PT0.5S":  500,
		"PT2H":    7_200_000,
		"1S":      1_000,
		"500MS":   500,
		"2M":      120_000,
		"250":     250,
	}
	for in, want := range cases {
		got, err := ParseDuration(in)
		if err != nil || got != want {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "PT", "10X", "S", "PT-1S"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) accepted", bad)
		}
	}
}

func TestParseClockTime(t *testing.T) {
	cases := map[string]int64{
		"00:10:00CET": 600_000,
		"01:00:00":    3_600_000,
		"00:00:05Z":   5_000,
		"1234":        1234,
	}
	for in, want := range cases {
		got, err := ParseClockTime(in)
		if err != nil || got != want {
			t.Errorf("ParseClockTime(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"10:00", "xx:yy:zz", "00:99:00", "-5"} {
		if _, err := ParseClockTime(bad); err == nil {
			t.Errorf("ParseClockTime(%q) accepted", bad)
		}
	}
}

func TestParseFigure1(t *testing.T) {
	q, err := Parse(figure1)
	if err != nil {
		t.Fatalf("Parse(figure1): %v", err)
	}
	if q.Name != "S_out" {
		t.Errorf("name = %q", q.Name)
	}
	if len(q.Construct) != 1 || !q.Construct[0].TypeAtom {
		t.Errorf("construct = %v", q.Construct)
	}
	if len(q.Streams) != 1 || q.Streams[0].Name != "S_Msmt" ||
		q.Streams[0].RangeMS != 10_000 || q.Streams[0].SlideMS != 1_000 {
		t.Errorf("streams = %+v", q.Streams)
	}
	if q.StaticIRI == "" || q.OntologyIRI == "" {
		t.Error("static/ontology IRIs missing")
	}
	if q.Pulse == nil || q.Pulse.FrequencyMS != 1000 {
		t.Errorf("pulse = %+v", q.Pulse)
	}
	if len(q.Where) != 3 {
		t.Fatalf("where = %v", q.Where)
	}
	if q.SequenceBy != "StdSeq" || q.SeqAlias != "seq" {
		t.Errorf("sequence = %q as %q", q.SequenceBy, q.SeqAlias)
	}
	call, ok := q.Having.(*AggCall)
	if !ok || call.Name != "MONOTONIC.HAVING" || len(call.Args) != 2 {
		t.Fatalf("having = %v", q.Having)
	}
	def, ok := q.Aggregates["MONOTONIC.HAVING"]
	if !ok || len(def.Params) != 2 {
		t.Fatalf("aggregate def = %+v", q.Aggregates)
	}
	// Body: EXISTS wrapping AND of graph atom and FORALL.
	ex, ok := def.Body.(*ExistsExpr)
	if !ok {
		t.Fatalf("aggregate body = %T", def.Body)
	}
	and, ok := ex.Cond.(*AndExpr)
	if !ok {
		t.Fatalf("exists cond = %T", ex.Cond)
	}
	if _, ok := and.L.(*GraphAtom); !ok {
		t.Errorf("left of AND = %T", and.L)
	}
	fa, ok := and.R.(*ForallExpr)
	if !ok {
		t.Fatalf("right of AND = %T", and.R)
	}
	if fa.StateVar1 != "i" || fa.StateVar2 != "j" || fa.Rel != "<" {
		t.Errorf("forall = %+v", fa)
	}
	if len(fa.ValueVars) != 2 || fa.Guard == nil {
		t.Errorf("forall vars/guard = %+v", fa)
	}
	if _, ok := fa.Conclusion.(*Comparison); !ok {
		t.Errorf("conclusion = %T", fa.Conclusion)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"CREATE STREAM s AS",                     // incomplete
		"CREATE TABLE s AS",                      // wrong kind
		figure1 + "\n" + figure1,                 // two CREATE STREAM
		strings.Replace(figure1, "WHERE", "", 1), // missing WHERE
		strings.Replace(figure1, `"PT10S"^^xsd:duration`, `"PT0S"`, 1), // zero range
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestValidateUnboundConstructVar(t *testing.T) {
	src := `
CREATE STREAM s AS
CONSTRUCT GRAPH NOW { ?nope a <http://x#C> }
FROM STREAM m [NOW-"1S", NOW]->"1S"
WHERE { ?c a <http://x#Sensor> . }
`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unbound construct var accepted: %v", err)
	}
}

func TestValidateUnknownAggregate(t *testing.T) {
	src := `
CREATE STREAM s AS
CONSTRUCT GRAPH NOW { ?c a <http://x#C> }
FROM STREAM m [NOW-"1S", NOW]->"1S"
WHERE { ?c a <http://x#Sensor> . }
HAVING NOSUCH.AGG(?c, <http://x#v>)
`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "unknown aggregate") {
		t.Errorf("unknown aggregate accepted: %v", err)
	}
}

// ---- sequence construction and HAVING evaluation ----

func msmtStreamSchema() stream.Schema {
	return stream.Schema{
		Name: "S_Msmt",
		Tuple: relation.NewSchema(
			relation.Col("sid", relation.TInt),
			relation.Col("ts", relation.TTime),
			relation.Col("val", relation.TFloat),
			relation.Col("fail", relation.TInt),
		),
		TSCol: "ts",
	}
}

func testMappings(t *testing.T) *mappingSetWrap {
	t.Helper()
	return newTestMappings(t)
}

func row(sid, ts int64, val float64, fail int64) relation.Tuple {
	return relation.Tuple{relation.Int(sid), relation.Time(ts), relation.Float(val), relation.Int(fail)}
}

func batchOf(rows ...relation.Tuple) stream.Batch {
	b := stream.Batch{WindowID: 1, Start: 0, End: 10_000}
	b.Rows = rows
	return b
}

func TestSequenceBuilderStdSeq(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	batch := batchOf(
		row(7, 1000, 70, 0),
		row(7, 2000, 71, 0),
		row(8, 1000, 50, 0),
		row(7, 2000, 72, 0), // second measurement at same ts -> same state
	)
	seq, err := sb.Build(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 2 {
		t.Fatalf("states = %d, want 2 (distinct timestamps)", seq.Len())
	}
	if seq.TS(0) != 1000 || seq.TS(1) != 2000 {
		t.Fatalf("state order: %v %v", seq.TS(0), seq.TS(1))
	}
	s7 := "http://siemens.com/data/sensor/7"
	vals := seq.Values(1, s7, sieNS+"hasValue")
	if len(vals) != 2 {
		t.Fatalf("values at state 2 = %v", vals)
	}
	// Subject filter restricts.
	seq2, err := sb.Build(batch, map[string]bool{s7: true})
	if err != nil {
		t.Fatal(err)
	}
	s8 := "http://siemens.com/data/sensor/8"
	if len(seq2.Values(0, s8, sieNS+"hasValue")) != 0 {
		t.Error("subject filter ignored")
	}
}

func TestFigure1HavingDetectsMonotonicRamp(t *testing.T) {
	q := MustParse(figure1)
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	sensor := "http://siemens.com/data/sensor/7"
	binding := Binding{
		"c1": rdf.NewIRI("http://siemens.com/data/assembly/1"),
		"c2": rdf.NewIRI(sensor),
	}

	// Monotonic ramp followed by a failure flag: HAVING must hold.
	ramp := batchOf(
		row(7, 1000, 70, 0),
		row(7, 2000, 72, 0),
		row(7, 3000, 75, 0),
		row(7, 4000, 90, 1), // failure state
	)
	seq, err := sb.Build(ramp, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := EvalHaving(q.Having, seq, binding, q.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("monotonic ramp with failure not detected")
	}

	// Non-monotonic values before the failure: HAVING must fail.
	dip := batchOf(
		row(7, 1000, 70, 0),
		row(7, 2000, 65, 0), // dip
		row(7, 3000, 75, 0),
		row(7, 4000, 90, 1),
	)
	seq, err = sb.Build(dip, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = EvalHaving(q.Having, seq, binding, q.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("non-monotonic ramp accepted")
	}

	// Monotonic but no failure flag: HAVING must fail (EXISTS ?k).
	noFail := batchOf(
		row(7, 1000, 70, 0),
		row(7, 2000, 72, 0),
		row(7, 3000, 75, 0),
	)
	seq, err = sb.Build(noFail, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = EvalHaving(q.Having, seq, binding, q.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("ramp without failure accepted")
	}

	// Dip after the failure state is irrelevant (?i, ?j < ?k).
	dipAfter := batchOf(
		row(7, 1000, 70, 0),
		row(7, 2000, 72, 0),
		row(7, 3000, 90, 1), // failure
		row(7, 4000, 10, 0), // dip afterwards
	)
	seq, err = sb.Build(dipAfter, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = EvalHaving(q.Having, seq, binding, q.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("dip after failure should not matter")
	}
}

func TestBuiltinAggregates(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	s7 := "http://siemens.com/data/sensor/7"
	s8 := "http://siemens.com/data/sensor/8"
	binding := Binding{"a": rdf.NewIRI(s7), "b": rdf.NewIRI(s8)}
	// Correlated ramps on sensors 7 and 8.
	batch := batchOf(
		row(7, 1000, 10, 0), row(8, 1000, 20, 0),
		row(7, 2000, 12, 0), row(8, 2000, 24, 0),
		row(7, 3000, 14, 0), row(8, 3000, 28, 0),
		row(7, 4000, 16, 0), row(8, 4000, 32, 0),
	)
	seq, err := sb.Build(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	attr := NTerm(rdf.NewIRI(sieNS + "hasValue"))
	pearson := &AggCall{Name: "PEARSON.CORRELATION", Args: []Node{
		NVar("a"), NVar("b"), attr, NTerm(rdf.NewTypedLiteral("0.9", rdf.XSDDouble)),
	}}
	ok, err := EvalHaving(pearson, seq, binding, nil)
	if err != nil || !ok {
		t.Errorf("PEARSON = %t, %v (perfectly correlated ramps)", ok, err)
	}
	trend := &AggCall{Name: "TREND.INCREASE", Args: []Node{NVar("a"), attr}}
	ok, err = EvalHaving(trend, seq, binding, nil)
	if err != nil || !ok {
		t.Errorf("TREND = %t, %v", ok, err)
	}
	thresh := &AggCall{Name: "THRESHOLD.ABOVE", Args: []Node{
		NVar("b"), attr, NTerm(rdf.NewInteger(30)),
	}}
	ok, err = EvalHaving(thresh, seq, binding, nil)
	if err != nil || !ok {
		t.Errorf("THRESHOLD = %t, %v", ok, err)
	}
	threshHigh := &AggCall{Name: "THRESHOLD.ABOVE", Args: []Node{
		NVar("b"), attr, NTerm(rdf.NewInteger(1000)),
	}}
	ok, _ = EvalHaving(threshHigh, seq, binding, nil)
	if ok {
		t.Error("THRESHOLD above 1000 should fail")
	}
}

func TestPearsonFunction(t *testing.T) {
	r, ok := Pearson([]float64{1, 2, 3, 4}, []float64{2, 4, 6, 8})
	if !ok || r < 0.999 {
		t.Errorf("Pearson = %g, %t", r, ok)
	}
	r, ok = Pearson([]float64{1, 2, 3, 4}, []float64{8, 6, 4, 2})
	if !ok || r > -0.999 {
		t.Errorf("anti-correlated Pearson = %g", r)
	}
	if _, ok := Pearson([]float64{1}, []float64{2}); ok {
		t.Error("single point accepted")
	}
	if _, ok := Pearson([]float64{1, 1}, []float64{2, 3}); ok {
		t.Error("zero variance accepted")
	}
}
