package exastream

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// feedRange ingests n tuples starting at tuple index start (timestamps
// keep advancing across calls, unlike feed), without flushing.
func feedRange(t *testing.T, e *Engine, start, n int, stepMS int64) {
	t.Helper()
	for i := start; i < start+n; i++ {
		ts := int64(i) * stepMS
		el := stream.Timestamped{TS: ts, Row: relation.Tuple{
			relation.Int(int64(i%10 + 1)), relation.Time(ts), relation.Float(float64(50 + i%30)),
		}}
		if err := e.Ingest("msmt", el); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlanCacheHitSteadyState(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse(`SELECT m.sid, s.tid, m.val
		FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m, sensors AS s
		WHERE m.sid = s.sid`)
	if err := e.Register("q", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 100, 100)
	st := e.Stats()
	if st.WindowsExecuted == 0 {
		t.Fatal("no windows executed")
	}
	// One eager build at Register; every window after that is a cache hit.
	if st.PlanBuilds != 1 {
		t.Errorf("PlanBuilds = %d, want 1 (eager build only)", st.PlanBuilds)
	}
	if st.PlanCacheHits != st.WindowsExecuted {
		t.Errorf("PlanCacheHits = %d, want %d (one per window)", st.PlanCacheHits, st.WindowsExecuted)
	}
}

func TestCatalogGenerationInvalidatesCachedPlan(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if err := e.Register("q", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	feedRange(t, e, 0, 20, 100)
	before := e.Stats()
	if before.WindowsExecuted == 0 {
		t.Fatal("no windows executed before the catalog change")
	}
	if _, err := e.Catalog().Create("newtable", relation.NewSchema(relation.Col("x", relation.TInt))); err != nil {
		t.Fatal(err)
	}
	feedRange(t, e, 20, 20, 100)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.PlanBuilds != before.PlanBuilds+1 {
		t.Errorf("PlanBuilds %d -> %d, want one rebuild after catalog change",
			before.PlanBuilds, after.PlanBuilds)
	}
}

// TestPlanTimeIndexConcurrentRebuilds rebuilds the plans of many
// queries with one lookup pattern at once (a catalog change under a
// parallel pool, plus concurrent EXPLAINs, which build plans too): the
// pattern is indexed exactly once.
func TestPlanTimeIndexConcurrentRebuilds(t *testing.T) {
	e := testRig(t, Options{Parallelism: 8})
	c := &collector{}
	for i := 0; i < 8; i++ {
		q := sql.MustParse(fmt.Sprintf(`SELECT m.sid, s.tid FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m, sensors AS s
			WHERE m.sid = s.sid AND m.val > %d`, 40+i))
		if err := e.Register(fmt.Sprintf("q%d", i), q, nil, c.sink); err != nil {
			t.Fatal(err)
		}
	}
	feedRange(t, e, 0, 20, 100)
	if _, err := e.Catalog().Create("newtable", relation.NewSchema(relation.Col("x", relation.TInt))); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.ExplainQuery(fmt.Sprintf("q%d", i), false); err != nil {
				t.Error(err)
			}
		}(i)
	}
	feedRange(t, e, 20, 20, 100)
	wg.Wait()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PlanBuilds < 16 {
		t.Errorf("PlanBuilds = %d, want every query rebuilt after the catalog change", st.PlanBuilds)
	}
	if st.AdaptiveIndexes != 1 {
		t.Errorf("AdaptiveIndexes = %d, want 1", st.AdaptiveIndexes)
	}
}

func TestResumeDropsCachedPlan(t *testing.T) {
	e := testRig(t, Options{QuarantineAfter: 1})
	c := &collector{}
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if err := e.Register("q", q, nil, c.sink); err != nil {
		t.Fatal(err)
	}
	feedRange(t, e, 0, 20, 100)
	e.mu.Lock()
	cq := e.queries["q"]
	e.mu.Unlock()
	cq.execMu.Lock()
	hadPlan := cq.plan != nil
	cq.execMu.Unlock()
	if !hadPlan {
		t.Fatal("no cached plan after execution")
	}
	if err := e.Resume("q"); err != nil {
		t.Fatal(err)
	}
	cq.execMu.Lock()
	stillCached := cq.plan != nil
	cq.execMu.Unlock()
	if stillCached {
		t.Fatal("Resume did not drop the cached plan")
	}
	before := e.Stats().PlanBuilds
	feedRange(t, e, 20, 20, 100)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PlanBuilds; got != before+1 {
		t.Errorf("PlanBuilds after Resume = %d, want %d", got, before+1)
	}
}

// TestPulsePendingLeakRegression covers the offer-ordering fix: with a
// pulse whose frequency is a multiple of the window slide, batches for
// non-pulse ticks must never enter the pending map. The query joins two
// windows of different ranges, so the shorter window emits ends the
// longer one never will — under the old ordering those accumulated as
// partial pending entries forever.
func TestPulsePendingLeakRegression(t *testing.T) {
	e := testRig(t, Options{})
	c := &collector{}
	q := sql.MustParse(`SELECT a.sid, b.sid FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS a,
		msmt [RANGE 2000 SLIDE 1000] AS b
		WHERE a.sid = b.sid`)
	pulse := &stream.Pulse{StartMS: 0, FrequencyMS: 2000} // 2x the slide
	if err := e.Register("paced", q, pulse, c.sink); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 100, 100)
	e.mu.Lock()
	cq := e.queries["paced"]
	e.mu.Unlock()
	cq.mu.Lock()
	leaked := len(cq.pending)
	cq.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d partial pending entries leaked across ticks", leaked)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.results) == 0 {
		t.Fatal("no results on pulse ticks")
	}
	for _, r := range c.results {
		if r.end%2000 != 0 {
			t.Fatalf("result at non-pulse time %d", r.end)
		}
	}
}

// TestParallelFleetMatchesSequential executes the same multi-query
// fleet with a parallel pool and sequentially, and requires identical
// per-query, per-window results.
func TestParallelFleetMatchesSequential(t *testing.T) {
	run := func(parallelism int) map[string][]collected {
		e := testRig(t, Options{Parallelism: parallelism})
		c := &collector{}
		for i := 0; i < 8; i++ {
			q := sql.MustParse(fmt.Sprintf(`SELECT m.sid, s.tid, avg(m.val) AS a
				FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m, sensors AS s
				WHERE m.sid = s.sid AND m.val > %d GROUP BY m.sid, s.tid`, 40+i))
			if err := e.Register(fmt.Sprintf("q%d", i), q, nil, c.sink); err != nil {
				t.Fatal(err)
			}
		}
		feed(t, e, 200, 50)
		c.mu.Lock()
		defer c.mu.Unlock()
		byQuery := make(map[string][]collected)
		for _, r := range c.results {
			byQuery[r.qid] = append(byQuery[r.qid], r)
		}
		return byQuery
	}
	seq := run(1)
	par := run(8)
	if len(seq) != len(par) {
		t.Fatalf("query sets differ: %d vs %d", len(seq), len(par))
	}
	for qid, sres := range seq {
		pres := par[qid]
		if !reflect.DeepEqual(sres, pres) {
			t.Fatalf("query %s: parallel results differ from sequential\nseq: %v\npar: %v", qid, sres, pres)
		}
		// Sink ordering per query must be monotone in window end.
		if !sort.SliceIsSorted(pres, func(i, j int) bool { return pres[i].end < pres[j].end }) {
			t.Fatalf("query %s: sink calls out of window order", qid)
		}
	}
}
