package exastream

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// testRig wires an engine with a sensors static table and a msmt stream.
func testRig(t *testing.T, opts Options) *Engine {
	t.Helper()
	cat := relation.NewCatalog()
	sensors, err := cat.Create("sensors", relation.NewSchema(
		relation.Col("sid", relation.TInt),
		relation.Col("tid", relation.TInt),
		relation.Col("kind", relation.TString),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 50; i++ {
		sensors.MustInsert(relation.Tuple{relation.Int(i), relation.Int(i % 5), relation.String_("temp")})
	}
	e := NewEngine(cat, opts)
	if err := e.DeclareStream(stream.Schema{
		Name: "msmt",
		Tuple: relation.NewSchema(
			relation.Col("sid", relation.TInt),
			relation.Col("ts", relation.TTime),
			relation.Col("val", relation.TFloat),
		),
		TSCol: "ts",
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// collector is a concurrency-safe sink.
type collector struct {
	mu      sync.Mutex
	results []collected
}

type collected struct {
	qid  string
	end  int64
	rows []relation.Tuple
}

func (c *collector) sink(qid string, end int64, _ relation.Schema, cb *relation.ColBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = append(c.results, collected{qid, end, cb.Rows()})
}

func (c *collector) totalRows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.results {
		n += len(r.rows)
	}
	return n
}

func feed(t *testing.T, e *Engine, n int, stepMS int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		ts := int64(i) * stepMS
		el := stream.Timestamped{TS: ts, Row: relation.Tuple{
			relation.Int(int64(i%10 + 1)), relation.Time(ts), relation.Float(float64(50 + i%30)),
		}}
		if err := e.Ingest("msmt", el); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterValidation(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	ok := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if err := e.Register("q1", ok, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("q1", ok, nil, c.sink); err == nil {
		t.Error("duplicate id accepted")
	}
	cases := map[string]string{
		"no stream":      "SELECT sid FROM sensors",
		"unknown stream": "SELECT x.val FROM STREAM nope [RANGE 1000 SLIDE 1000] AS x",
		"no window":      "SELECT m.val FROM STREAM msmt AS m",
	}
	for name, q := range cases {
		if err := e.Register("bad-"+name, sql.MustParse(q), nil, c.sink); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Mismatched slides across two refs.
	two := sql.MustParse(`SELECT a.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS a,
		msmt [RANGE 2000 SLIDE 500] AS b WHERE a.sid = b.sid`)
	if err := e.Register("q2", two, nil, c.sink); err == nil {
		t.Error("mismatched slides accepted")
	}
	// Fresh and restored queries pass the same checks, with the same
	// errors, and a rejected query leaves no subscription behind.
	for name, q := range cases {
		regErr := e.Register("r-"+name, sql.MustParse(q), nil, c.sink)
		resErr := e.Restore(nil, nil).Query("r-"+name, sql.MustParse(q), nil, c.sink)
		if fmt.Sprint(regErr) != fmt.Sprint(resErr) {
			t.Errorf("%s: Register says %v, Restore says %v", name, regErr, resErr)
		}
	}
	if err := e.Restore(nil, nil).Query("q2", two, nil, c.sink); err == nil {
		t.Error("mismatched slides restored")
	}
	for wk, sw := range e.windows {
		for _, sub := range sw.subs {
			if sub.q.id != "q1" {
				t.Errorf("window %v kept a subscription of rejected query %s", wk, sub.q.id)
			}
		}
	}
	if err := e.DeclareStream(stream.Schema{Name: "msmt", Tuple: relation.NewSchema(relation.Col("ts", relation.TTime)), TSCol: "ts"}); err == nil {
		t.Error("duplicate stream accepted")
	}
}

func TestTumblingWindowQueryEndToEnd(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m WHERE m.val >= 50")
	if err := e.Register("q", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 100, 100) // 100 tuples, 100ms apart: 10s of data
	if c.totalRows() != 100 {
		t.Fatalf("rows out = %d, want all 100 (boundary tuples land in one window each here)", c.totalRows())
	}
	st := e.Stats()
	if st.TuplesIn != 100 || st.WindowsExecuted == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStreamStaticJoin(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse(`SELECT m.sid, s.tid, m.val
		FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m, sensors AS s
		WHERE m.sid = s.sid`)
	if err := e.Register("join", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 50, 100)
	if c.totalRows() != 50 {
		t.Fatalf("joined rows = %d, want 50", c.totalRows())
	}
	// Every output row's tid must equal sid % 5.
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, res := range c.results {
		for _, row := range res.rows {
			sid, _ := row[0].AsInt()
			tid, _ := row[1].AsInt()
			if tid != sid%5 {
				t.Fatalf("join mismatch: sid=%d tid=%d", sid, tid)
			}
		}
	}
}

func TestAggregatePerWindow(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse(`SELECT m.sid, avg(m.val) AS a
		FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m GROUP BY m.sid`)
	if err := e.Register("agg", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 100, 100)
	if c.totalRows() == 0 {
		t.Fatal("no aggregate output")
	}
}

func TestPulsePacing(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	pulse := &stream.Pulse{StartMS: 0, FrequencyMS: 2000}
	if err := e.Register("paced", q, pulse, c.sink); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 100, 100)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range c.results {
		if r.end%2000 != 0 {
			t.Fatalf("result at non-pulse time %d", r.end)
		}
	}
}

func TestSharedWindowsAcrossQueries(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	for i := 0; i < 5; i++ {
		q := sql.MustParse(fmt.Sprintf(
			"SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m WHERE m.val > %d", 40+i))
		if err := e.Register(fmt.Sprintf("q%d", i), q, nil, c.sink); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, e, 50, 100)
	e.mu.Lock()
	nw := len(e.windows)
	e.mu.Unlock()
	if nw != 1 {
		t.Fatalf("5 same-spec queries created %d shared windows, want 1", nw)
	}
	st := e.Stats()
	// One windowing pass feeds 5 queries: executions are 5x batches.
	if st.WindowsExecuted < 5*st.BatchesBuilt {
		t.Errorf("stats = %+v", st)
	}
}

// TestAdaptiveIndexingBuildsIndex checks that the stream-static join's
// lookup pattern is indexed when the plan is built: the index exists
// once Register returns, and the very first window probes it instead of
// scanning the table.
func TestAdaptiveIndexingBuildsIndex(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse(`SELECT m.sid, s.kind FROM STREAM msmt [RANGE 500 SLIDE 500] AS m, sensors AS s
		WHERE m.sid = s.sid`)
	if err := e.Register("adaptive", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	tb, _ := e.Catalog().Get("sensors")
	if !tb.HasIndex("sid") {
		t.Fatal("index on sensors.sid not built at Register")
	}
	if st := e.Stats(); st.AdaptiveIndexes != 1 {
		t.Fatalf("AdaptiveIndexes = %d, want 1", st.AdaptiveIndexes)
	}
	feedRange(t, e, 0, 6, 100) // the tuple at 500 closes the first window
	st := e.Stats()
	if st.WindowsExecuted != 1 {
		t.Fatalf("WindowsExecuted = %d, want 1", st.WindowsExecuted)
	}
	// Each window tuple is one index probe; the only rows scanned are
	// the window's own (the window source), none of the table's 50.
	if st.IndexLookups == 0 || st.RowsScanned != st.IndexLookups {
		t.Errorf("first window: IndexLookups = %d, RowsScanned = %d, want equal and nonzero", st.IndexLookups, st.RowsScanned)
	}
	if st.AdaptiveIndexes != 1 {
		t.Errorf("AdaptiveIndexes = %d after execution, want 1", st.AdaptiveIndexes)
	}
}

func TestSelfJoinOfStreamWindows(t *testing.T) {
	// Correlation-style query: two references to the same stream.
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse(`SELECT a.sid, b.sid FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS a,
		msmt [RANGE 1000 SLIDE 1000] AS b
		WHERE a.ts = b.ts AND a.sid < b.sid`)
	if err := e.Register("pairs", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	// Two tuples with the same timestamp in each window.
	for i := 0; i < 20; i++ {
		ts := int64(i) * 500
		for sid := int64(1); sid <= 2; sid++ {
			el := stream.Timestamped{TS: ts, Row: relation.Tuple{
				relation.Int(sid), relation.Time(ts), relation.Float(1),
			}}
			if err := e.Ingest("msmt", el); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.totalRows() == 0 {
		t.Fatal("stream self-join produced nothing")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.results {
		for _, row := range r.rows {
			a, _ := row[0].AsInt()
			b, _ := row[1].AsInt()
			if a >= b {
				t.Fatalf("predicate violated: %v", row)
			}
		}
	}
}

func TestUnregisterStopsDelivery(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if err := e.Register("q", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	if err := e.Unregister("q"); err != nil {
		t.Fatal(err)
	}
	if err := e.Unregister("q"); err == nil {
		t.Error("double unregister accepted")
	}
	feed(t, e, 50, 100)
	if c.totalRows() != 0 {
		t.Fatalf("unregistered query produced %d rows", c.totalRows())
	}
	if len(e.queries) != 0 {
		t.Errorf("%d queries still registered", len(e.queries))
	}
}

// TestUnregisterDropsUnreadOperator pins the operator lifetime rule:
// an operator lives while it has a reader. Once its last reader
// unregisters, the stream's later tuples build no window for nobody.
func TestUnregisterDropsUnreadOperator(t *testing.T) {
	e := testRig(t, Options{})
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 10000 SLIDE 1000] AS m")
	if err := e.Register("q", q, nil, (&collector{}).sink); err != nil {
		t.Fatal(err)
	}
	ingest := func(from, to int) { // one tuple every 250 ms
		for i := from; i < to; i++ {
			ts := int64(i) * 250
			if err := e.Ingest("msmt", stream.Timestamped{TS: ts, Row: relation.Tuple{
				relation.Int(1), relation.Time(ts), relation.Float(50),
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, 20) // 5 s
	if err := e.Unregister("q"); err != nil {
		t.Fatal(err)
	}
	built := e.Stats().BatchesBuilt
	ingest(20, 200) // 45 s more
	if len(e.windows) != 0 {
		t.Fatalf("%d operators outlived their last reader", len(e.windows))
	}
	if got := e.Stats().BatchesBuilt; got != built {
		t.Fatalf("%d windows built with no reader", got-built)
	}
}

func TestUDFInContinuousQuery(t *testing.T) {
	e := testRig(t, Options{})
	e.RegisterUDF("c2f", func(args []relation.Value) (relation.Value, error) {
		f, _ := args[0].AsFloat()
		return relation.Float(f*9/5 + 32), nil
	})
	c := &collector{}
	q := sql.MustParse("SELECT c2f(m.val) AS f FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if err := e.Register("udf", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 10, 100)
	if c.totalRows() != 10 {
		t.Fatalf("rows = %d", c.totalRows())
	}
}

func TestIngestUnknownStream(t *testing.T) {
	e := testRig(t, Options{})
	if err := e.Ingest("nope", stream.Timestamped{}); err == nil {
		t.Error("unknown stream accepted")
	}
}

// TestIngestRejectsWrongArity checks that a tuple whose arity is not
// its stream's is refused with an error before any window operator
// logs it: the operator's snapshot holds only the well-formed tuples.
func TestIngestRejectsWrongArity(t *testing.T) {
	e := testRig(t, Options{})
	if err := e.Register("q", sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m"), nil, (&collector{}).sink); err != nil {
		t.Fatal(err)
	}
	good := stream.Timestamped{TS: 10, Row: relation.Tuple{relation.Int(1), relation.Time(10), relation.Float(1)}}
	if err := e.Ingest("msmt", good); err != nil {
		t.Fatal(err)
	}
	for _, row := range []relation.Tuple{{relation.Int(1), relation.Time(20)}, {relation.Int(1), relation.Time(20), relation.Float(2), relation.Null}} {
		if err := e.Ingest("msmt", stream.Timestamped{TS: 20, Row: row}); err == nil {
			t.Errorf("a tuple of %d values was ingested into a stream of 3", len(row))
		}
	}
	st := e.ExportState()
	if len(st.Windows) != 1 || st.Windows[0].Log.Len() != 1 {
		t.Fatalf("operators log %+v, want one operator holding the one well-formed tuple", st.Windows)
	}
}

func TestConcurrentIngestManyQueries(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	for i := 0; i < 32; i++ {
		q := sql.MustParse(fmt.Sprintf(
			"SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m WHERE m.sid = %d", i%10+1))
		if err := e.Register(fmt.Sprintf("q%02d", i), q, nil, c.sink); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, e, 500, 20)
	if c.totalRows() == 0 {
		t.Fatal("no output from 32 concurrent queries")
	}
}
