package starql

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/relation"
)

// buildSeq constructs a sequence directly for evaluator unit tests:
// states[i] asserts hasValue=vals[i] (and showsFailure when fail[i]).
func buildSeq(subject string, vals []float64, fail []bool) *Sequence {
	seq := &refSequence{}
	for i, v := range vals {
		st := refState{TS: int64(i+1) * 1000, props: map[string]map[string][]relation.Value{
			subject: {sieNS + "hasValue": {relation.Float(v)}},
		}}
		if fail != nil && fail[i] {
			st.props[subject][sieNS+"showsFailure"] = []relation.Value{relation.Int(1)}
		}
		seq.States = append(seq.States, st)
	}
	return flatten(seq)
}

func attrNode() Node { return NTerm(rdf.NewIRI(sieNS + "hasValue")) }
func sensorBinding() Binding {
	return Binding{"s": rdf.NewIRI("http://x/sensor/1")}
}

func TestHavingOrNotExprs(t *testing.T) {
	seq := buildSeq("http://x/sensor/1", []float64{10, 20}, nil)
	b := sensorBinding()
	above := &AggCall{Name: "THRESHOLD.ABOVE", Args: []Node{NVar("s"), attrNode(), NTerm(rdf.NewInteger(15))}}
	aboveHigh := &AggCall{Name: "THRESHOLD.ABOVE", Args: []Node{NVar("s"), attrNode(), NTerm(rdf.NewInteger(99))}}

	or := &OrExpr{aboveHigh, above}
	if ok, err := EvalHaving(or, seq, b, nil); err != nil || !ok {
		t.Errorf("OR = %t, %v", ok, err)
	}
	not := &NotExpr{aboveHigh}
	if ok, err := EvalHaving(not, seq, b, nil); err != nil || !ok {
		t.Errorf("NOT = %t, %v", ok, err)
	}
	and := &AndExpr{above, &NotExpr{aboveHigh}}
	if ok, err := EvalHaving(and, seq, b, nil); err != nil || !ok {
		t.Errorf("AND = %t, %v", ok, err)
	}
	// Strings render.
	for _, e := range []HavingExpr{or, not, and} {
		if e.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestHavingSingleStateForall(t *testing.T) {
	subject := "http://x/sensor/1"
	b := sensorBinding()
	// FORALL ?i IN seq: IF (GRAPH ?i {?s hasValue ?x}) THEN ?x <= 50.
	forall := &ForallExpr{
		StateVar1: "i",
		ValueVars: []string{"x"},
		Guard: &GraphAtom{StateVar: "i", Pattern: TriplePattern{
			S: NVar("s"), P: attrNode(), O: NVar("x")}},
		Conclusion: &Comparison{Left: []Node{NVar("x")}, Op: "<=", Right: NTerm(rdf.NewInteger(50))},
	}
	if ok, err := EvalHaving(forall, buildSeq(subject, []float64{10, 20, 30}, nil), b, nil); err != nil || !ok {
		t.Errorf("all below 50 = %t, %v", ok, err)
	}
	if ok, _ := EvalHaving(forall, buildSeq(subject, []float64{10, 90}, nil), b, nil); ok {
		t.Error("90 accepted")
	}
	if !strings.Contains(forall.String(), "FORALL ?i IN seq, ?x") {
		t.Errorf("String = %s", forall.String())
	}
}

func TestHavingUnguardedForallWithValueVarsRejected(t *testing.T) {
	b := sensorBinding()
	bad := &ForallExpr{
		StateVar1:  "i",
		ValueVars:  []string{"x"},
		Conclusion: &Comparison{Left: []Node{NVar("x")}, Op: "<=", Right: NTerm(rdf.NewInteger(5))},
	}
	if _, err := EvalHaving(bad, buildSeq("http://x/sensor/1", []float64{1}, nil), b, nil); err == nil {
		t.Error("unguarded value-var FORALL accepted")
	}
}

func TestHavingGraphAtomBoundObject(t *testing.T) {
	subject := "http://x/sensor/1"
	b := sensorBinding()
	// EXISTS ?k: GRAPH ?k {?s hasValue ?x} AND GRAPH ?k {?s hasValue ?x}
	// — second atom sees ?x bound; also constant-object form.
	e := &ExistsExpr{StateVar: "k", Cond: &AndExpr{
		&GraphAtom{StateVar: "k", Pattern: TriplePattern{S: NVar("s"), P: attrNode(), O: NVar("x")}},
		&GraphAtom{StateVar: "k", Pattern: TriplePattern{S: NVar("s"), P: attrNode(), O: NVar("x")}},
	}}
	if ok, err := EvalHaving(e, buildSeq(subject, []float64{7}, nil), b, nil); err != nil || !ok {
		t.Errorf("bound object = %t, %v", ok, err)
	}
	constObj := &ExistsExpr{StateVar: "k", Cond: &GraphAtom{
		StateVar: "k",
		Pattern:  TriplePattern{S: NVar("s"), P: attrNode(), O: NTerm(rdf.NewDouble(7))},
	}}
	if ok, err := EvalHaving(constObj, buildSeq(subject, []float64{7}, nil), b, nil); err != nil || !ok {
		t.Errorf("constant object = %t, %v", ok, err)
	}
	missing := &ExistsExpr{StateVar: "k", Cond: &GraphAtom{
		StateVar: "k",
		Pattern:  TriplePattern{S: NVar("s"), P: attrNode(), O: NTerm(rdf.NewDouble(999))},
	}}
	if ok, _ := EvalHaving(missing, buildSeq(subject, []float64{7}, nil), b, nil); ok {
		t.Error("missing constant matched")
	}
}

func TestHavingTypeAtomAndNoObject(t *testing.T) {
	subject := "http://x/sensor/1"
	b := sensorBinding()
	seq := buildSeq(subject, []float64{1, 2}, []bool{false, true})
	// Two-element form: GRAPH ?k { ?s sie:showsFailure }.
	noObj := &ExistsExpr{StateVar: "k", Cond: &GraphAtom{
		StateVar: "k",
		Pattern:  TriplePattern{S: NVar("s"), P: NTerm(rdf.NewIRI(sieNS + "showsFailure")), NoObject: true},
	}}
	if ok, err := EvalHaving(noObj, seq, b, nil); err != nil || !ok {
		t.Errorf("NoObject atom = %t, %v", ok, err)
	}
	// Type-atom form behaves the same (class realised as flag).
	typeAtom := &ExistsExpr{StateVar: "k", Cond: &GraphAtom{
		StateVar: "k",
		Pattern:  TriplePattern{S: NVar("s"), P: NTerm(rdf.NewIRI(sieNS + "showsFailure")), TypeAtom: true},
	}}
	if ok, err := EvalHaving(typeAtom, seq, b, nil); err != nil || !ok {
		t.Errorf("type atom = %t, %v", ok, err)
	}
}

func TestHavingComparisonOperators(t *testing.T) {
	b := sensorBinding()
	seq := buildSeq("http://x/sensor/1", []float64{5}, nil)
	mk := func(op string, l, r int64) *Comparison {
		return &Comparison{Left: []Node{NTerm(rdf.NewInteger(l))}, Op: op, Right: NTerm(rdf.NewInteger(r))}
	}
	cases := []struct {
		c    *Comparison
		want bool
	}{
		{mk("<", 1, 2), true}, {mk("<=", 2, 2), true}, {mk(">", 3, 2), true},
		{mk(">=", 2, 3), false}, {mk("=", 2, 2), true}, {mk("!=", 2, 2), false},
	}
	for _, c := range cases {
		ok, err := EvalHaving(c.c, seq, b, nil)
		if err != nil || ok != c.want {
			t.Errorf("%s = %t, %v; want %t", c.c, ok, err, c.want)
		}
	}
	// Comma-list LHS: 1, 2 < 3.
	list := &Comparison{
		Left: []Node{NTerm(rdf.NewInteger(1)), NTerm(rdf.NewInteger(2))},
		Op:   "<", Right: NTerm(rdf.NewInteger(3)),
	}
	if ok, err := EvalHaving(list, seq, b, nil); err != nil || !ok {
		t.Errorf("comma list = %t, %v", ok, err)
	}
	if !strings.Contains(list.String(), ", ") {
		t.Errorf("String = %s", list.String())
	}
	// Incomparable values are simply false.
	mixed := &Comparison{Left: []Node{NTerm(rdf.NewLiteral("a"))}, Op: "<", Right: NTerm(rdf.NewInteger(1))}
	if ok, err := EvalHaving(mixed, seq, b, nil); err != nil || ok {
		t.Errorf("incomparable = %t, %v", ok, err)
	}
}

func TestHavingUnboundErrors(t *testing.T) {
	b := Binding{}
	seq := buildSeq("http://x/sensor/1", []float64{1}, nil)
	unboundSubj := &ExistsExpr{StateVar: "k", Cond: &GraphAtom{
		StateVar: "k",
		Pattern:  TriplePattern{S: NVar("ghost"), P: attrNode(), NoObject: true},
	}}
	if _, err := EvalHaving(unboundSubj, seq, b, nil); err == nil {
		t.Error("unbound subject accepted")
	}
	unboundCmp := &Comparison{Left: []Node{NVar("ghost")}, Op: "<", Right: NTerm(rdf.NewInteger(1))}
	if _, err := EvalHaving(unboundCmp, seq, b, nil); err == nil {
		t.Error("unbound comparison var accepted")
	}
	unknownAgg := &AggCall{Name: "NO.SUCH", Args: []Node{NVar("s")}}
	if _, err := EvalHaving(unknownAgg, seq, b, nil); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestQueryStringRendering(t *testing.T) {
	q := MustParse(figure1)
	s := q.String()
	for _, want := range []string{"CREATE STREAM S_out", "CONSTRUCT GRAPH NOW",
		"FROM STREAM S_Msmt", "SEQUENCE BY StdSeq", "HAVING MONOTONIC.HAVING"} {
		if !strings.Contains(s, want) {
			t.Errorf("Query.String missing %q:\n%s", want, s)
		}
	}
	// Aggregate bodies render too.
	def := q.Aggregates["MONOTONIC.HAVING"]
	if !strings.Contains(def.Body.String(), "EXISTS ?k IN SEQ") {
		t.Errorf("aggregate body = %s", def.Body.String())
	}
}

func TestValueToTermRoundTrip(t *testing.T) {
	cases := []struct {
		v    relation.Value
		want rdf.Term
	}{
		{relation.String_("http://a/b"), rdf.NewIRI("http://a/b")},
		{relation.String_("urn:x"), rdf.NewIRI("urn:x")},
		{relation.String_("plain"), rdf.NewLiteral("plain")},
		{relation.Int(5), rdf.NewInteger(5)},
		{relation.Float(2.5), rdf.NewDouble(2.5)},
		{relation.Bool_(true), rdf.NewBoolean(true)},
	}
	for _, c := range cases {
		if got := valueToTerm(c.v); got != c.want {
			t.Errorf("valueToTerm(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSequenceBuilderObjectProperty(t *testing.T) {
	// An object-property stream mapping renders the object IRI.
	w := newTestMappings(t)
	if err := w.set.Add(mappingForObjectProp()); err != nil {
		t.Fatal(err)
	}
	sb, err := NewSequenceBuilder(msmtStreamSchema(), w.set)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sb.Build(batchOf(row(7, 1000, 70, 0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := seq.Values(0, "http://siemens.com/data/sensor/7", sieNS+"emits")
	if len(vals) != 1 || !strings.Contains(vals[0].Str, "reading/") {
		t.Errorf("object property values = %v", vals)
	}
}
