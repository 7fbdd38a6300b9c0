package starql

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obda/mapping"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
)

// testTBox mirrors the Siemens ontology fragment used by Figure 1, with
// a subclass to exercise enrichment.
func testTBox() *ontology.TBox {
	tb := ontology.New()
	tb.AddConceptInclusion(ontology.Named(sieNS+"TemperatureSensor"), ontology.Named(sieNS+"Sensor"))
	tb.AddDomain(sieNS+"inAssembly", ontology.Named(sieNS+"Assembly"))
	tb.AddRange(sieNS+"inAssembly", ontology.Named(sieNS+"Sensor"))
	return tb
}

func TestBGPToCQ(t *testing.T) {
	q := MustParse(figure1)
	c, err := BGPToCQ(q.Where, q.WhereVars())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Body) != 3 || len(c.Head) != 2 {
		t.Fatalf("cq = %v", c)
	}
	if c.Body[0].Pred != sieNS+"Assembly" || !c.Body[0].IsClass() {
		t.Errorf("atom 0 = %v", c.Body[0])
	}
	if c.Body[2].Pred != sieNS+"inAssembly" || c.Body[2].IsClass() {
		t.Errorf("atom 2 = %v", c.Body[2])
	}
}

func TestTranslateFigure1(t *testing.T) {
	q := MustParse(figure1)
	w := newTestMappings(t)
	tr := NewTranslator(testTBox(), w.set, w.cat)
	out, err := tr.Translate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Enrichment explores TemperatureSensor and the domain/range axioms;
	// minimisation then collapses the union to its most general disjunct
	// (inAssembly alone implies Assembly and Sensor via domain/range).
	if out.RewriteStats.Generated <= 1 {
		t.Errorf("enrichment generated %d queries before minimisation", out.RewriteStats.Generated)
	}
	if len(out.Enriched) != 1 {
		t.Errorf("minimised union = %d disjuncts (domain/range should collapse it)", len(out.Enriched))
	}
	if out.RewriteStats.AtomSteps == 0 {
		t.Error("no rewrite steps recorded")
	}
	// Unfolding yields at least one static SQL query.
	if len(out.StaticFleet) == 0 {
		t.Fatal("empty static fleet")
	}
	for _, stmt := range out.StaticFleet {
		if _, err := sql.Parse(stmt.String()); err != nil {
			t.Errorf("fleet SQL does not reparse: %v\n%s", err, stmt)
		}
	}
	// Window and pulse extracted.
	if out.Window.RangeMS != 10_000 || out.Window.SlideMS != 1_000 {
		t.Errorf("window = %+v", out.Window)
	}
	if out.Pulse == nil || out.Pulse.FrequencyMS != 1000 {
		t.Errorf("pulse = %+v", out.Pulse)
	}
}

func TestEvalBindingsFigure1(t *testing.T) {
	q := MustParse(figure1)
	w := newTestMappings(t)
	tr := NewTranslator(testTBox(), w.set, w.cat)
	out, err := tr.Translate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bindings, err := tr.EvalBindings(out)
	if err != nil {
		t.Fatal(err)
	}
	// Sensors 7, 8 in assembly 1; sensor 9 in assembly 2.
	if len(bindings) != 3 {
		t.Fatalf("bindings = %v", bindings)
	}
	seen := map[string]bool{}
	for _, b := range bindings {
		c1, c2 := b["c1"], b["c2"]
		if !c1.IsIRI() || !c2.IsIRI() {
			t.Fatalf("non-IRI binding: %v", b)
		}
		seen[c1.Value+"|"+c2.Value] = true
	}
	if !seen["http://siemens.com/data/assembly/1|http://siemens.com/data/sensor/7"] {
		t.Errorf("missing expected binding; got %v", seen)
	}
}

func TestStreamFleetPerBinding(t *testing.T) {
	q := MustParse(figure1)
	w := newTestMappings(t)
	tr := NewTranslator(testTBox(), w.set, w.cat)
	out, err := tr.Translate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Translate executes nothing; the stream fleet is expanded by the
	// one pass that evaluates the bindings.
	if len(out.StreamFleet) != 0 {
		t.Fatalf("Translate expanded %d stream members before EvalBindings", len(out.StreamFleet))
	}
	if _, err := tr.EvalBindings(out); err != nil {
		t.Fatal(err)
	}
	// HAVING reads hasValue and showsFailure; 3 bindings × 2 predicates ×
	// 1 stream mapping each, inverted on the sensor variable = 6 queries.
	if len(out.StreamFleet) != 6 {
		t.Fatalf("stream fleet = %d queries:\n%v", len(out.StreamFleet), out.StreamFleet)
	}
	for _, stmt := range out.StreamFleet {
		s := stmt.String()
		if !strings.Contains(s, "STREAM S_Msmt [RANGE 10000 SLIDE 1000]") {
			t.Errorf("fleet query lacks window: %s", s)
		}
		if !strings.Contains(s, "w.sid =") {
			t.Errorf("fleet query lacks sensor selection: %s", s)
		}
		if _, err := sql.Parse(s); err != nil {
			t.Errorf("fleet SQL does not reparse: %v\n%s", err, s)
		}
	}
	// Conciseness claim (E3): the single STARQL query is much shorter
	// than its fleet.
	starqlLen := len(figure1)
	fleetLen := 0
	for _, stmt := range out.StreamFleet {
		fleetLen += len(stmt.String())
	}
	for _, stmt := range out.StaticFleet {
		fleetLen += len(stmt.String())
	}
	if fleetLen <= starqlLen/2 {
		t.Logf("fleet unexpectedly compact: starql=%d fleet=%d", starqlLen, fleetLen)
	}
}

func TestHavingStreamPredicates(t *testing.T) {
	q := MustParse(figure1)
	preds := q.HavingStreamPredicates()
	want := map[string]bool{sieNS + "hasValue": true, sieNS + "showsFailure": true}
	if len(preds) != 2 {
		t.Fatalf("preds = %v", preds)
	}
	for _, p := range preds {
		if !want[p] {
			t.Errorf("unexpected predicate %s", p)
		}
	}
}

func TestTranslateRejectsVariablePredicate(t *testing.T) {
	q := &Query{
		Name:      "s",
		Construct: []TriplePattern{{S: NVar("c"), P: NVar("p"), NoObject: true}},
		Streams:   []StreamClause{{Name: "m", RangeMS: 1000, SlideMS: 1000}},
		Where:     []TriplePattern{{S: NVar("c"), P: NVar("p"), NoObject: true}},
	}
	w := newTestMappings(t)
	tr := NewTranslator(testTBox(), w.set, w.cat)
	if _, err := tr.Translate(q, Options{}); err == nil {
		t.Error("variable predicate accepted")
	}
}

// TestTranslateStaticFleetDeterministic pins reproducible unfolding:
// twenty translations of catalog task T01 print byte-identical static
// fleets, unfolded under the declared constraints and as written (join conditions follow
// the variables' first occurrence, not map order).
func TestTranslateStaticFleetDeterministic(t *testing.T) {
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	task, ok := siemens.TaskByID("T01_mon_temperature")
	if !ok {
		t.Fatal("catalog task T01 missing")
	}
	pruned := NewTranslator(siemens.TBox(), siemens.Mappings(), cat)
	for _, tr := range []*Translator{pruned, asWrittenTranslator(pruned)} {
		var first string
		for i := 0; i < 20; i++ {
			tl, err := tr.Translate(MustParse(task.Query), Options{})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, stmt := range tl.StaticFleet {
				sb.WriteString(stmt.String())
				sb.WriteByte('\n')
			}
			if i == 0 {
				first = sb.String()
				continue
			}
			if got := sb.String(); got != first {
				t.Fatalf("pruned=%t: translation %d printed a different static fleet:\n%s\nfirst:\n%s", tr == pruned, i, got, first)
			}
		}
	}
}

// TestIRISegmentTyping checks that the three places an inverted IRI
// segment meets a key column type it alike: the stream fleet's
// constant, typed by its column's declared type, the FK probe that
// prunes fleet members, and the stream reader's subject index. The
// window holds every referenced key, so with the FK declared the fleet
// keeps a member exactly when the reader binds rows to the segment's
// IRI. With the FK stripped the fleet drops a member only when no row
// of the INTEGER key column can render its segment, and every member
// it keeps must run, by its `sid = constant`, and select exactly the
// rows the reader binds.
func TestIRISegmentTyping(t *testing.T) {
	keys := []int64{7, -5, 1234567890123456789}
	cat := relation.NewCatalog()
	sensors, err := cat.Create("sensors", relation.NewSchema(relation.Col("sid", relation.TInt)))
	if err != nil {
		t.Fatal(err)
	}
	window, err := cat.Create("w", msmtStreamSchema().Tuple)
	if err != nil {
		t.Fatal(err)
	}
	var rows []relation.Tuple
	for i, k := range keys {
		sensors.MustInsert(relation.Tuple{relation.Int(k)})
		rw := row(k, int64(i)*1000, float64(i), 0)
		window.MustInsert(rw)
		rows = append(rows, rw)
	}
	const pred = "http://x/val"
	m := mapping.Mapping{
		ID: "m", Pred: pred,
		Subject: mapping.MustParseTemplate("http://x/sensor/{sid}"),
		Object:  mapping.MustParseTemplate("{val}"), ObjectIsData: true,
		Source: mapping.SourceRef{Table: "S_Msmt", IsStream: true},
		FKs:    []mapping.ForeignKey{{Columns: []string{"sid"}, RefTable: "sensors", RefColumns: []string{"sid"}}},
	}
	set, err := mapping.NewSet(m)
	if err != nil {
		t.Fatal(err)
	}
	stripped := m
	stripped.FKs = nil
	q := MustParse(`
PREFIX x: <http://x/>
CREATE STREAM s AS
CONSTRUCT GRAPH NOW { ?s rdf:type x:Hot }
FROM STREAM S_Msmt [NOW-"PT5S", NOW]->"PT1S"
WHERE { ?s a x:Sensor }
SEQUENCE BY StdSeq AS seq
HAVING THRESHOLD.ABOVE(?s, x:val, 90)
`)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator(testTBox(), set, cat)
	tr.DeclareStream(msmtStreamSchema())
	for _, tc := range []struct {
		seg  string
		rows int // rows the reader binds
	}{
		{"7", 1}, {"007", 0}, {"+7", 0}, {"-5", 1}, {"-05", 0},
		{"1234567890123456789", 1}, {"01234567890123456789", 0},
		{"9223372036854775808", 0}, {"x7", 0},
	} {
		iri := "http://x/sensor/" + tc.seg
		r, err := sb.Reader([]string{pred}, []string{iri})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := r.Read(batchOf(rows...).Columns())
		if err != nil {
			t.Fatal(err)
		}
		read := 0
		for s := 0; s < seq.Len(); s++ {
			read += len(seq.Values(s, iri, pred))
		}
		if read != tc.rows {
			t.Errorf("segment %q: the reader binds %d rows, want %d", tc.seg, read, tc.rows)
		}
		bindings := []Binding{{"s": rdf.NewIRI(iri)}}
		fleet, _ := tr.streamFleet(&Translation{Query: q, mappings: set}, bindings)
		if kept := len(fleet) == 1; kept != (read > 0) {
			t.Errorf("segment %q: with the FK the fleet keeps %d members, the reader binds %d rows", tc.seg, len(fleet), read)
		}
		fleet, pruned := tr.streamFleet(&Translation{Query: q, mappings: mapping.MustNewSet(stripped)}, bindings)
		if pruned != 0 {
			t.Errorf("segment %q: without the FK the fleet prunes %d members", tc.seg, pruned)
		}
		if _, ok := canonicalInt(tc.seg); len(fleet) != 1 && ok {
			t.Errorf("segment %q: without the FK the fleet keeps %d members, want 1", tc.seg, len(fleet))
		}
		for _, member := range fleet {
			cond := member.Where.String()
			_, sel, err := engine.Run(engine.NewExecContext(cat), "SELECT w.sid FROM w WHERE "+cond, engine.CatalogResolver(cat))
			if err != nil {
				t.Fatalf("segment %q: the fleet's %s: %v", tc.seg, cond, err)
			}
			if len(sel) != read {
				t.Errorf("segment %q: the fleet's %s selects %d rows, the reader binds %d", tc.seg, cond, len(sel), read)
			}
		}
	}
}
