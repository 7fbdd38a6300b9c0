package mapping

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/obda/cq"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/sql"
)

func TestParseTemplate(t *testing.T) {
	tmpl, err := ParseTemplate("http://e/turbine/{tid}")
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpl.Columns) != 1 || tmpl.Columns[0] != "tid" {
		t.Errorf("columns = %v", tmpl.Columns)
	}
	if tmpl.Literals[0] != "http://e/turbine/" || tmpl.Literals[1] != "" {
		t.Errorf("literals = %v", tmpl.Literals)
	}
	multi := MustParseTemplate("urn:{a}-{b}/x")
	if len(multi.Columns) != 2 || multi.Literals[2] != "/x" {
		t.Errorf("multi = %+v", multi)
	}
	for _, bad := range []string{"no-columns", "oops{", "{}"} {
		if _, err := ParseTemplate(bad); err == nil {
			t.Errorf("ParseTemplate(%q) accepted", bad)
		}
	}
}

func TestTemplateStringRoundTrip(t *testing.T) {
	for _, s := range []string{"http://e/t/{tid}", "{v}", "urn:{a}-{b}", "x{a}y{b}z"} {
		if got := MustParseTemplate(s).String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestTemplateCompatible(t *testing.T) {
	a := MustParseTemplate("http://e/t/{x}")
	b := MustParseTemplate("http://e/t/{y}")
	c := MustParseTemplate("http://e/s/{x}")
	if !a.Compatible(b) {
		t.Error("same-skeleton templates should be compatible")
	}
	if a.Compatible(c) {
		t.Error("different-skeleton templates should not be compatible")
	}
}

func TestTemplateInvertRender(t *testing.T) {
	tmpl := MustParseTemplate("http://e/turbine/{tid}")
	segs, ok := tmpl.Invert("http://e/turbine/42")
	if !ok || len(segs) != 1 || segs[0] != "42" {
		t.Fatalf("Invert = %v, %t", segs, ok)
	}
	if _, ok := tmpl.Invert("http://e/sensor/42"); ok {
		t.Error("wrong prefix inverted")
	}
	if _, ok := tmpl.Invert("http://e/turbine/"); ok {
		t.Error("empty segment inverted")
	}
	multi := MustParseTemplate("urn:{a}-{b}")
	segs, ok = multi.Invert("urn:12-34")
	if !ok || segs[0] != "12" || segs[1] != "34" {
		t.Fatalf("multi Invert = %v, %t", segs, ok)
	}
	out, err := multi.Render([]string{"12", "34"})
	if err != nil || out != "urn:12-34" {
		t.Fatalf("Render = %q, %v", out, err)
	}
	if _, err := multi.Render([]string{"12"}); err == nil {
		t.Error("wrong segment count accepted")
	}
}

// Property: render then invert is the identity for digit segments.
func TestTemplateRenderInvertProperty(t *testing.T) {
	tmpl := MustParseTemplate("http://e/{a}/s/{b}")
	f := func(a, b uint32) bool {
		s1 := itoa(uint64(a)%100000 + 1)
		s2 := itoa(uint64(b)%100000 + 1)
		rendered, err := tmpl.Render([]string{s1, s2})
		if err != nil {
			return false
		}
		segs, ok := tmpl.Invert(rendered)
		return ok && segs[0] == s1 && segs[1] == s2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestMappingValidate(t *testing.T) {
	good := Mapping{
		Pred: "Turbine", IsClass: true,
		Subject: MustParseTemplate("http://e/t/{tid}"),
		Source:  SourceRef{Table: "turbine"},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Mapping{
		{IsClass: true, Subject: good.Subject, Source: good.Source}, // no pred
		{Pred: "T", IsClass: true, Subject: good.Subject},           // no source
		{Pred: "T", IsClass: true, Source: good.Source},             // no subject
		{Pred: "p", Subject: good.Subject, Source: good.Source},     // property without object
		{Pred: "p", Subject: good.Subject, Source: good.Source, ObjectIsData: true, Object: MustParseTemplate("x{v}")},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted: %v", i, m)
		}
	}
}

// siemensMappings builds a small two-source mapping set in the style of
// the paper's example: turbines in two schemas, sensors, measurements.
func siemensMappings(t *testing.T) *Set {
	t.Helper()
	tID := MustParseTemplate("http://e/turbine/{tid}")
	sID := MustParseTemplate("http://e/sensor/{sid}")
	set, err := NewSet(
		Mapping{
			ID: "turbineA", Pred: "Turbine", IsClass: true,
			Subject: tID, Source: SourceRef{Table: "turbines_a"},
			KeyColumns: []string{"tid"},
		},
		Mapping{
			ID: "turbineB", Pred: "Turbine", IsClass: true,
			Subject: tID, Source: SourceRef{Table: "turbines_b"},
			KeyColumns: []string{"tid"},
		},
		Mapping{
			ID: "model", Pred: "hasModel",
			Subject: tID, Object: MustParseTemplate("{model}"), ObjectIsData: true,
			Source:     SourceRef{Table: "turbines_a"},
			KeyColumns: []string{"tid"},
		},
		Mapping{
			ID: "sensor", Pred: "Sensor", IsClass: true,
			Subject: sID, Source: SourceRef{Table: "sensors"},
			KeyColumns: []string{"sid"},
		},
		Mapping{
			ID: "inAssembly", Pred: "inAssembly",
			Subject: sID, Object: tID,
			Source:     SourceRef{Table: "sensors"},
			KeyColumns: []string{"sid"},
		},
		Mapping{
			ID: "value", Pred: "hasValue",
			Subject: sID, Object: MustParseTemplate("{val}"), ObjectIsData: true,
			Source: SourceRef{Table: "msmt", IsStream: true},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestSetIndexing(t *testing.T) {
	set := siemensMappings(t)
	if set.Len() != 6 {
		t.Fatalf("Len = %d", set.Len())
	}
	if len(set.ForPred("Turbine")) != 2 {
		t.Errorf("Turbine mappings = %d", len(set.ForPred("Turbine")))
	}
	if len(set.ForPred("nope")) != 0 {
		t.Error("unknown pred returned mappings")
	}
	preds := set.Preds()
	if len(preds) != 5 {
		t.Errorf("Preds = %v", preds)
	}
}

func TestUnfoldSingleClassAtom(t *testing.T) {
	set := siemensMappings(t)
	q := cq.New([]string{"x"}, cq.ClassAtom("Turbine", cq.V("x")))
	fleet, stats, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 2 {
		t.Fatalf("fleet = %d queries", len(fleet))
	}
	if stats.FleetSize != 2 || stats.CQs != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// Each statement scans one of the two sources and renders the IRI.
	texts := fleet[0].String() + " " + fleet[1].String()
	if !strings.Contains(texts, "turbines_a") || !strings.Contains(texts, "turbines_b") {
		t.Errorf("fleet sources: %s", texts)
	}
	if !strings.Contains(fleet[0].String(), "http://e/turbine/") {
		t.Errorf("IRI template not rendered: %s", fleet[0])
	}
}

func TestUnfoldJoinAcrossAtoms(t *testing.T) {
	// Without declared keys the self-join stays.
	set := stripConstraints(siemensMappings(t))
	// q(s, t) :- Sensor(s), inAssembly(s, t).
	q := cq.New([]string{"s", "t"},
		cq.ClassAtom("Sensor", cq.V("s")),
		cq.PropAtom("inAssembly", cq.V("s"), cq.V("t")))
	fleet, stats, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 1 {
		t.Fatalf("fleet = %v", fleet)
	}
	s := fleet[0].String()
	// Shared variable s joins the two source aliases on sid.
	if !strings.Contains(s, "m0.sid = m1.sid") && !strings.Contains(s, "m1.sid = m0.sid") {
		t.Errorf("join condition missing: %s", s)
	}
	if stats.SelfJoinsRemoved != 0 {
		t.Errorf("self-joins removed without a declared key: %+v", stats)
	}
}

func TestUnfoldSelfJoinElimination(t *testing.T) {
	set := siemensMappings(t)
	q := cq.New([]string{"s", "t"},
		cq.ClassAtom("Sensor", cq.V("s")),
		cq.PropAtom("inAssembly", cq.V("s"), cq.V("t")))
	fleet, stats, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SelfJoinsRemoved != 1 {
		t.Fatalf("SelfJoinsRemoved = %d; fleet: %v", stats.SelfJoinsRemoved, fleet[0])
	}
	s := fleet[0].String()
	if strings.Contains(s, "m1.") {
		t.Errorf("alias m1 survived elimination: %s", s)
	}
	if strings.Count(s, "sensors") != 1 {
		t.Errorf("source scanned more than once: %s", s)
	}
}

func TestUnfoldConstantInversion(t *testing.T) {
	set := siemensMappings(t)
	// q(t) :- inAssembly(<sensor/7>, t): the constant inverts into sid=7.
	q := cq.New([]string{"t"},
		cq.PropAtom("inAssembly", cq.C(rdf.NewIRI("http://e/sensor/7")), cq.V("t")))
	fleet, _, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 1 {
		t.Fatalf("fleet = %v", fleet)
	}
	if !strings.Contains(fleet[0].String(), "m0.sid = 7") {
		t.Errorf("constant not inverted: %s", fleet[0])
	}
}

func TestUnfoldConstantMismatchPrunes(t *testing.T) {
	set := siemensMappings(t)
	// Constant with the wrong IRI scheme cannot come from the template.
	q := cq.New([]string{"t"},
		cq.PropAtom("inAssembly", cq.C(rdf.NewIRI("http://other/thing/7")), cq.V("t")))
	fleet, stats, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 0 || stats.Pruned == 0 {
		t.Errorf("fleet = %v, stats = %+v", fleet, stats)
	}
}

func TestUnfoldDataLiteralConstant(t *testing.T) {
	set := siemensMappings(t)
	q := cq.New([]string{"s"},
		cq.PropAtom("hasModel", cq.V("s"), cq.C(rdf.NewLiteral("SGT-400"))))
	fleet, _, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 1 || !strings.Contains(fleet[0].String(), "m0.model = 'SGT-400'") {
		t.Errorf("fleet = %v", fleet)
	}
}

func TestUnfoldIncompatibleTemplatesPrune(t *testing.T) {
	// Turbine subject vs Sensor subject: joining them yields nothing.
	set := siemensMappings(t)
	q := cq.New([]string{"x"},
		cq.ClassAtom("Turbine", cq.V("x")),
		cq.ClassAtom("Sensor", cq.V("x")))
	fleet, stats, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 0 {
		t.Errorf("incompatible templates not pruned: %v", fleet)
	}
	if stats.Pruned != 2 { // 2 turbine mappings x 1 sensor mapping
		t.Errorf("stats = %+v", stats)
	}
}

func TestUnfoldUnmappedAtomDropsCQ(t *testing.T) {
	set := siemensMappings(t)
	q := cq.New([]string{"x"}, cq.ClassAtom("UnknownClass", cq.V("x")))
	fleet, stats, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 0 || stats.UnmappedAtoms != 1 {
		t.Errorf("fleet = %v, stats = %+v", fleet, stats)
	}
}

func TestUnfoldStreamSourceMarked(t *testing.T) {
	set := siemensMappings(t)
	q := cq.New([]string{"s", "v"},
		cq.PropAtom("hasValue", cq.V("s"), cq.V("v")))
	fleet, _, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 1 || !fleet[0].From[0].IsStream {
		t.Fatalf("stream flag lost: %v", fleet[0])
	}
}

func TestUnfoldSourceWhereQualified(t *testing.T) {
	set := MustNewSet(Mapping{
		Pred: "HotSensor", IsClass: true,
		Subject: MustParseTemplate("http://e/sensor/{sid}"),
		Source: SourceRef{
			Table: "sensors",
			Where: sql.Bin(">", sql.Col("temp"), sql.Lit(relation.Int(90))),
		},
	})
	q := cq.New([]string{"x"}, cq.ClassAtom("HotSensor", cq.V("x")))
	fleet, _, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fleet[0].String(), "m0.temp > 90") {
		t.Errorf("source WHERE not qualified: %s", fleet[0])
	}
}

func TestUnfoldCombinationCap(t *testing.T) {
	var ms []Mapping
	for i := 0; i < 30; i++ {
		ms = append(ms, Mapping{
			Pred: "C", IsClass: true,
			Subject: MustParseTemplate("http://e/c/{id}"),
			Source:  SourceRef{Table: "t"},
		})
	}
	set := MustNewSet(ms...)
	q := cq.New([]string{"x"},
		cq.ClassAtom("C", cq.V("x")))
	if _, _, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{MaxCombinations: 10}); err == nil {
		t.Error("combination cap not enforced")
	}
}

func TestUnfoldFleetParsesBack(t *testing.T) {
	set := siemensMappings(t)
	q := cq.New([]string{"s", "t", "v"},
		cq.ClassAtom("Sensor", cq.V("s")),
		cq.PropAtom("inAssembly", cq.V("s"), cq.V("t")),
		cq.PropAtom("hasValue", cq.V("s"), cq.V("v")))
	fleet, _, err := Unfold(cq.UCQ{q}, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range fleet {
		if _, err := sql.Parse(stmt.String()); err != nil {
			t.Errorf("unfolded SQL does not reparse: %v\n%s", err, stmt)
		}
	}
}
