package exastream

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// TestUnregisterDuringWindowDrainsWCache is the regression test for a
// window execution racing Unregister: the query's first window blocks
// in its sink while the query is unregistered, and the windows queued
// behind it still execute afterwards. The query that shares the window
// operator with it must keep receiving every window, in order, with
// nothing lost or repeated.
func TestUnregisterDuringWindowDrainsWCache(t *testing.T) {
	e := testRig(t, Options{Parallelism: 2})
	q := sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	entered := make(chan struct{})
	release := make(chan struct{})
	var blockOnce, releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // a failing test must not leave the worker blocked
	blocking := func(string, int64, relation.Schema, *relation.ColBatch) {
		blockOnce.Do(func() {
			close(entered)
			<-release
		})
	}
	if err := e.Register("churned", q, nil, blocking); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var steady []int64
	if err := e.Register("steady", q, nil, func(_ string, end int64, _ relation.Schema, _ *relation.ColBatch) {
		mu.Lock()
		steady = append(steady, end)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	tuple := func(ts int64) stream.Timestamped {
		return stream.Timestamped{TS: ts, Row: relation.Tuple{relation.Int(1), relation.Time(ts), relation.Float(50)}}
	}
	if err := e.Ingest("msmt", tuple(0)); err != nil {
		t.Fatal(err)
	}
	// One tuple 3.5 s later closes the windows ending 1000, 2000 and 3000
	// at once: "churned" blocks on the first, the other two queue behind
	// it on the same worker.
	done := make(chan error, 1)
	go func() { done <- e.Ingest("msmt", tuple(3500)) }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("sink of the churned query never ran")
	}
	if err := e.Unregister("churned"); err != nil {
		t.Fatal(err)
	}
	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	const last = 20500
	for ts := int64(4500); ts <= last; ts += 1000 {
		if err := e.Ingest("msmt", tuple(ts)); err != nil {
			t.Fatal(err)
		}
	}
	// "steady" received every window from the one holding ts 0 through
	// the one ending 20000, each once and in order.
	mu.Lock()
	defer mu.Unlock()
	var want []int64
	for end := int64(0); end <= 20000; end += 1000 {
		want = append(want, end)
	}
	if !reflect.DeepEqual(steady, want) {
		t.Fatalf("steady query received windows %v, want %v", steady, want)
	}
}

// TestVectorizedRowsOutMatchesSinks pins the engine's columnar result
// boundary to its counters: for query shapes whose root is columnar
// (filter, projection, limit, lookup join) and row-only (aggregate),
// every sink batch's Rows() agrees with its Len() and the schema arity,
// and the rows handed to sinks sum to the exastream.rows_out counter.
// Row-path parity of the results themselves is the engine's
// differential (diffColumns in internal/engine).
func TestVectorizedRowsOutMatchesSinks(t *testing.T) {
	queries := []string{
		"SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m WHERE m.val >= 60",
		"SELECT m.sid, m.ts FROM STREAM msmt [RANGE 2000 SLIDE 1000] AS m WHERE m.sid < 4 OR m.val > 75",
		"SELECT m.val * 2 FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m WHERE 1 = 2",
		"SELECT * FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m LIMIT 3",
		"SELECT m.sid, s.tid FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m, sensors AS s WHERE m.sid = s.sid AND m.val < 70",
		"SELECT m.sid, avg(m.val) FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m GROUP BY m.sid",
	}
	e := testRig(t, Options{})
	var sunk atomic.Int64
	sink := func(id string, end int64, schema relation.Schema, cb *relation.ColBatch) {
		rows := cb.Rows()
		if len(rows) != cb.Len() {
			t.Errorf("%s@%d: Rows() = %d rows, Len() = %d", id, end, len(rows), cb.Len())
		}
		for _, r := range rows {
			if len(r) != schema.Arity() {
				t.Errorf("%s@%d: row arity %d, schema arity %d", id, end, len(r), schema.Arity())
			}
		}
		sunk.Add(int64(cb.Len()))
	}
	for i, q := range queries {
		if err := e.Register(fmt.Sprintf("q%d", i), sql.MustParse(q), nil, sink); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, e, 200, 70)
	st := e.Stats()
	if st.RowsOut == 0 {
		t.Fatal("no rows produced: the check is vacuous")
	}
	if sunk.Load() != st.RowsOut {
		t.Fatalf("rows handed to sinks (%d) disagree with exastream.rows_out (%d)", sunk.Load(), st.RowsOut)
	}
}
