package relation

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func sensorSchema() Schema {
	return NewSchema(Col("sensor_id", TInt), Col("name", TString), Col("value", TFloat))
}

func TestSchemaIndexOf(t *testing.T) {
	s := NewSchema(Col("a", TInt), Col("t.b", TString), Col("u.b", TInt), Col("c", TFloat))
	if i, err := s.IndexOf("a"); err != nil || i != 0 {
		t.Errorf("IndexOf(a) = %d, %v", i, err)
	}
	if i, err := s.IndexOf("t.b"); err != nil || i != 1 {
		t.Errorf("IndexOf(t.b) = %d, %v", i, err)
	}
	if _, err := s.IndexOf("b"); err == nil {
		t.Error("ambiguous bare lookup accepted")
	}
	if i, err := s.IndexOf("C"); err != nil || i != 3 {
		t.Errorf("case-insensitive IndexOf = %d, %v", i, err)
	}
	if _, err := s.IndexOf("zz"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := s.IndexOf("t.zz"); err == nil {
		t.Error("unknown qualified column accepted")
	}
}

func TestSchemaQualifyConcat(t *testing.T) {
	s := NewSchema(Col("a", TInt), Col("old.b", TString))
	q := s.Qualify("x")
	if q.Columns[0].Name != "x.a" || q.Columns[1].Name != "x.b" {
		t.Errorf("Qualify = %v", q.Names())
	}
	cat := s.Concat(q)
	if cat.Arity() != 4 {
		t.Errorf("Concat arity = %d", cat.Arity())
	}
}

// TestAppendKeyDistinct checks the equality key on the cases a naive
// encoding gets wrong: equal values share a key across numeric types
// and signed zeros, and no string content makes two different
// multi-column keys collide.
func TestAppendKeyDistinct(t *testing.T) {
	key := func(vals ...Value) string {
		var k []byte
		for _, v := range vals {
			k = AppendKey(k, v)
		}
		return string(k)
	}
	if key(String_("ab"), String_("c")) == key(String_("a"), String_("bc")) {
		t.Error("key collision between (ab,c) and (a,bc)")
	}
	if key(String_("a\x1f3b"), String_("c")) == key(String_("a"), String_("b\x1f3c")) {
		t.Error("key collision through a 0x1f inside a string")
	}
	if key(String_("1")) == key(Int(1)) || key(Bool_(true)) == key(Int(1)) || key(Null) == key(String_("")) {
		t.Error("key collision across incomparable types")
	}
	if key(Int(1), Float(2)) != key(Float(1), Time(2)) {
		t.Error("equal numerics of different types get different keys")
	}
	if key(Float(math.Copysign(0, -1))) != key(Int(0)) {
		t.Error("-0.0 and 0 get different keys")
	}
}

func TestTableInsertTypeChecks(t *testing.T) {
	tb := NewTable("s", sensorSchema())
	if err := tb.Insert(Tuple{Int(1), String_("a"), Float(2)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	// Int widens to float.
	if err := tb.Insert(Tuple{Int(2), String_("b"), Int(3)}); err != nil {
		t.Fatalf("widening Insert: %v", err)
	}
	rows := tb.Rows()
	if rows[1][2] != Float(3) {
		t.Errorf("widened value = %v", rows[1][2])
	}
	// NULL allowed anywhere.
	if err := tb.Insert(Tuple{Null, Null, Null}); err != nil {
		t.Fatalf("NULL Insert: %v", err)
	}
	if err := tb.Insert(Tuple{String_("x"), String_("a"), Float(1)}); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := tb.Insert(Tuple{Int(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestTableIndexLookup(t *testing.T) {
	tb := NewTable("s", sensorSchema())
	for i := 0; i < 100; i++ {
		tb.MustInsert(Tuple{Int(int64(i % 10)), String_(fmt.Sprintf("s%d", i)), Float(float64(i))})
	}
	// Scan path first.
	rows, usedIdx, err := tb.Lookup([]string{"sensor_id"}, []Value{Int(3)})
	if err != nil || usedIdx || len(rows) != 10 {
		t.Fatalf("scan Lookup = %d rows, idx=%t, %v", len(rows), usedIdx, err)
	}
	if err := tb.CreateIndex("sensor_id"); err != nil {
		t.Fatal(err)
	}
	if !tb.HasIndex("sensor_id") {
		t.Fatal("HasIndex = false")
	}
	rows, usedIdx, err = tb.Lookup([]string{"sensor_id"}, []Value{Int(3)})
	if err != nil || !usedIdx || len(rows) != 10 {
		t.Fatalf("indexed Lookup = %d rows, idx=%t, %v", len(rows), usedIdx, err)
	}
	// Index maintained on later inserts.
	tb.MustInsert(Tuple{Int(3), String_("extra"), Float(0)})
	rows, _, _ = tb.Lookup([]string{"sensor_id"}, []Value{Int(3)})
	if len(rows) != 11 {
		t.Fatalf("post-insert Lookup = %d rows", len(rows))
	}
	// Idempotent creation.
	if err := tb.CreateIndex("sensor_id"); err != nil {
		t.Fatal(err)
	}
	if err := tb.CreateIndex("nope"); err == nil {
		t.Error("index on unknown column accepted")
	}
}

func TestTableMultiColumnLookup(t *testing.T) {
	tb := NewTable("s", sensorSchema())
	tb.MustInsert(Tuple{Int(1), String_("a"), Float(1)})
	tb.MustInsert(Tuple{Int(1), String_("b"), Float(2)})
	if err := tb.CreateIndex("sensor_id", "name"); err != nil {
		t.Fatal(err)
	}
	rows, used, err := tb.Lookup([]string{"sensor_id", "name"}, []Value{Int(1), String_("b")})
	if err != nil || !used || len(rows) != 1 || rows[0][2] != Float(2) {
		t.Fatalf("multi-column Lookup = %v, used=%t, %v", rows, used, err)
	}
}

func TestTableTruncate(t *testing.T) {
	tb := NewTable("s", sensorSchema())
	tb.MustInsert(Tuple{Int(1), String_("a"), Float(1)})
	tb.CreateIndex("sensor_id")
	tb.Truncate()
	if tb.Len() != 0 {
		t.Fatal("Truncate left rows")
	}
	rows, used, _ := tb.Lookup([]string{"sensor_id"}, []Value{Int(1)})
	if len(rows) != 0 || !used {
		t.Fatalf("post-truncate Lookup = %v, used=%t", rows, used)
	}
}

func TestTableConcurrent(t *testing.T) {
	tb := NewTable("s", sensorSchema())
	tb.CreateIndex("sensor_id")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				tb.MustInsert(Tuple{Int(int64(w)), String_("x"), Float(float64(i))})
				tb.Lookup([]string{"sensor_id"}, []Value{Int(int64(w))})
			}
		}(w)
	}
	wg.Wait()
	if tb.Len() != 1000 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Create("T", sensorSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("t", sensorSchema()); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	tb, err := c.Get("T")
	if err != nil || tb.Name() != "T" {
		t.Fatalf("Get = %v, %v", tb, err)
	}
	if _, err := c.Get("missing"); err == nil {
		t.Error("missing table accepted")
	}
	if got := c.Names(); len(got) != 1 || got[0] != "T" {
		t.Errorf("Names = %v", got)
	}
	if err := c.Drop("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("t"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestSortRows(t *testing.T) {
	rows := []Tuple{
		{Int(3), String_("c")},
		{Int(1), String_("b")},
		{Int(1), String_("a")},
	}
	SortRows(rows, []int{0, 1})
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if rows[i][1].Str != w {
			t.Fatalf("SortRows order: %v", rows)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	schema := sensorSchema()
	src := "sensor_id,name,value\n1,alpha,2.5\n2,beta,\n"
	tb, err := ReadCSV("s", schema, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	rows := tb.Rows()
	if rows[0][1] != String_("alpha") || rows[0][2] != Float(2.5) {
		t.Errorf("row0 = %v", rows[0])
	}
	if !rows[1][2].IsNull() {
		t.Errorf("empty field should be NULL, got %v", rows[1][2])
	}
	var buf bytes.Buffer
	if err := WriteCSV(tb, &buf); err != nil {
		t.Fatal(err)
	}
	tb2, err := ReadCSV("s2", schema, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != tb.Len() {
		t.Fatalf("round trip row count %d vs %d", tb2.Len(), tb.Len())
	}
}

func TestCSVHeaderPermutation(t *testing.T) {
	src := "value,sensor_id,name\n2.5,1,alpha\n"
	tb, err := ReadCSV("s", sensorSchema(), strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows()[0]
	if row[0] != Int(1) || row[1] != String_("alpha") || row[2] != Float(2.5) {
		t.Errorf("permuted header row = %v", row)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("s", sensorSchema(), strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("wrong column count accepted")
	}
	if _, err := ReadCSV("s", sensorSchema(), strings.NewReader("sensor_id,name,value\nx,a,1\n")); err == nil {
		t.Error("bad int accepted")
	}
	if _, err := ReadCSV("s", sensorSchema(), strings.NewReader("sensor_id,nope,value\n1,a,1\n")); err == nil {
		t.Error("unknown header accepted")
	}
}

// TestExistsAgreesWithLookup checks the existence probe against
// len(Lookup(...)) > 0 on seeded keys, over an indexed and an
// unindexed copy of one table: NULL keys, an integer against an equal
// REAL, and values around 2^53, where a float64 rounds neighbouring
// integers together. The index and a scan find the same rows, and a
// probe allocates nothing with or without an index.
func TestExistsAgreesWithLookup(t *testing.T) {
	schema := NewSchema(Col("k", TInt), Col("x", TFloat))
	indexed, plain := NewTable("indexed", schema), NewTable("plain", schema)
	if err := indexed.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if err := indexed.CreateIndex("k", "x"); err != nil {
		t.Fatal(err)
	}
	const p53 = int64(1) << 53
	rng := rand.New(rand.NewSource(17))
	pool := []Value{Int(p53), Int(p53 + 2), Int(-p53 - 2), Int(math.MaxInt64), Int(0), Int(7), Null}
	for i := 0; i < 40; i++ {
		row := Tuple{pool[rng.Intn(len(pool))], Float(float64(rng.Intn(4)))}
		if rng.Intn(5) == 0 {
			row[0] = Int(int64(rng.Intn(100)))
		}
		indexed.MustInsert(append(Tuple(nil), row...))
		plain.MustInsert(row)
	}
	// A NULL-keyed row, which the index files under the NULL key.
	indexed.MustInsert(Tuple{Null, Float(0)})
	plain.MustInsert(Tuple{Null, Float(0)})
	probes := append([]Value{}, pool...)
	probes = append(probes, Int(p53+1), Float(float64(p53)), Float(float64(p53+2)), Float(7), Float(7.5),
		Float(math.NaN()), Float(math.Inf(1)), String_("7"))
	for i := 0; i < 100; i++ {
		probes = append(probes, Int(int64(rng.Intn(100))))
	}
	for _, k := range probes {
		for _, cols := range [][]string{{"k"}, {"k", "x"}} {
			vals := []Value{k}
			if len(cols) == 2 {
				vals = append(vals, Int(int64(rng.Intn(4))))
			}
			// Both tables hold the same rows, so the index's key rule
			// (AppendKey) and the scan's (Equal) must find as many.
			var found [2]int
			for ti, tbl := range []*Table{indexed, plain} {
				rows, _, err := tbl.Lookup(cols, vals)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tbl.Exists(cols, vals)
				if err != nil {
					t.Fatal(err)
				}
				if got != (len(rows) > 0) {
					t.Fatalf("%s %v = %v: Exists %t, Lookup found %d rows", tbl.Name(), cols, vals, got, len(rows))
				}
				found[ti] = len(rows)
			}
			if found[0] != found[1] {
				t.Fatalf("%v = %v: the index finds %d rows, a scan %d", cols, vals, found[0], found[1])
			}
			if k.IsNull() && found[0]+found[1] > 0 {
				t.Fatalf("%v = %v: a NULL key matched %d and %d rows", cols, vals, found[0], found[1])
			}
		}
	}
	if _, err := plain.Exists([]string{"k"}, nil); err == nil {
		t.Fatal("Exists accepted an arity mismatch")
	}
	if _, err := plain.Exists([]string{"nope"}, []Value{Int(1)}); err == nil {
		t.Fatal("Exists accepted an unknown column")
	}
	cols, key := []string{"k"}, []Value{Int(p53 + 2)}
	for _, tbl := range []*Table{indexed, plain} {
		if n := testing.AllocsPerRun(100, func() { _, _ = tbl.Exists(cols, key) }); n != 0 {
			t.Fatalf("%s: Exists allocates %v times per probe", tbl.Name(), n)
		}
	}
}
