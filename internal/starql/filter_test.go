package starql

import (
	"strings"
	"testing"
)

const filteredQuery = `
PREFIX sie: <http://siemens.com/ontology#>
PREFIX out: <http://x/out#>
CREATE STREAM s AS
CONSTRUCT GRAPH NOW { ?s rdf:type out:Hot }
FROM STREAM S_Msmt [NOW-"PT5S", NOW]->"PT1S",
STATIC DATA <http://x/static>, ONTOLOGY <http://x/tbox>
WHERE { ?a a sie:Assembly . ?s a sie:Sensor . ?a sie:inAssembly ?s . FILTER(?s != <http://siemens.com/data/sensor/9>) }
SEQUENCE BY StdSeq AS seq
HAVING THRESHOLD.ABOVE(?s, sie:hasValue, 90)
`

func TestParseFilter(t *testing.T) {
	q := MustParse(filteredQuery)
	if len(q.WhereFilters) != 1 {
		t.Fatalf("filters = %v", q.WhereFilters)
	}
	f := q.WhereFilters[0]
	if f.Op != "!=" || !f.Arg.IsVar() || f.Arg.Var != "s" {
		t.Errorf("filter = %+v", f)
	}
	if !strings.Contains(f.String(), "FILTER(?s != ") {
		t.Errorf("String = %s", f.String())
	}
}

func TestParseFilterErrors(t *testing.T) {
	bad := []string{
		// FILTER outside WHERE (in CONSTRUCT).
		strings.Replace(filteredQuery,
			"{ ?s rdf:type out:Hot }",
			"{ ?s rdf:type out:Hot . FILTER(?s = 1) }", 1),
		// Unbound filter variable.
		strings.Replace(filteredQuery, "FILTER(?s !=", "FILTER(?ghost !=", 1),
		// Variable right-hand side.
		strings.Replace(filteredQuery,
			"FILTER(?s != <http://siemens.com/data/sensor/9>)", "FILTER(?s != ?a)", 1),
		// Missing operator.
		strings.Replace(filteredQuery,
			"FILTER(?s != <http://siemens.com/data/sensor/9>)", "FILTER(?s)", 1),
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBGPToCQWithFilters(t *testing.T) {
	q := MustParse(filteredQuery)
	c, err := BGPToCQ(q.Where, q.WhereVars(), q.WhereFilters...)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Filters) != 1 {
		t.Fatalf("cq filters = %v", c.Filters)
	}
	if !strings.Contains(c.String(), "FILTER(?s !=") {
		t.Errorf("cq String = %s", c)
	}
}

func TestFilterSurvivesRewritingAndUnfolding(t *testing.T) {
	q := MustParse(filteredQuery)
	w := newTestMappings(t)
	tr := NewTranslator(testTBox(), w.set, w.cat)
	out, err := tr.Translate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every enriched disjunct carries the filter.
	for _, d := range out.Enriched {
		if len(d.Filters) != 1 {
			t.Fatalf("disjunct lost filter: %v", d)
		}
	}
	// The unfolded SQL selects around sensor 9.
	foundCond := false
	for _, stmt := range out.StaticFleet {
		if strings.Contains(stmt.String(), "<> 'http://siemens.com/data/sensor/9'") {
			foundCond = true
		}
	}
	if !foundCond {
		t.Fatalf("filter condition missing from fleet:\n%v", out.StaticFleet)
	}
	// Bindings exclude sensor 9 (sensors 7 and 8 remain).
	bindings, err := tr.EvalBindings(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %v", bindings)
	}
	for _, b := range bindings {
		if b["s"].Value == "http://siemens.com/data/sensor/9" {
			t.Fatalf("filtered sensor bound: %v", b)
		}
	}
}

func TestNumericFilterOnDataProperty(t *testing.T) {
	// FILTER on a data property value: sensors in assemblies with aid > 1.
	src := `
PREFIX sie: <http://siemens.com/ontology#>
PREFIX out: <http://x/out#>
CREATE STREAM s AS
CONSTRUCT GRAPH NOW { ?s rdf:type out:X }
FROM STREAM S_Msmt [NOW-"PT5S", NOW]->"PT1S",
STATIC DATA <http://x/static>, ONTOLOGY <http://x/tbox>
WHERE { ?s a sie:Sensor . ?s sie:hasSid ?v . FILTER(?v >= 8) }
`
	q := MustParse(src)
	w := newTestMappings(t)
	// Add a data property exposing the sensor id as a value.
	if err := w.set.Add(mappingHasSid()); err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator(testTBox(), w.set, w.cat)
	out, err := tr.Translate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bindings, err := tr.EvalBindings(out)
	if err != nil {
		t.Fatal(err)
	}
	// Sensors 8 and 9 pass; 7 is filtered.
	seen := map[string]bool{}
	for _, b := range bindings {
		seen[b["s"].Value] = true
	}
	if seen["http://siemens.com/data/sensor/7"] {
		t.Errorf("sensor 7 not filtered: %v", seen)
	}
	if !seen["http://siemens.com/data/sensor/8"] || !seen["http://siemens.com/data/sensor/9"] {
		t.Errorf("sensors 8/9 missing: %v", seen)
	}
}
