package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exastream"
	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", msg)
}

func TestSupervisorRestartsCrashedWorker(t *testing.T) {
	inj := faults.New(1).PanicAt(0, 5)
	c := newCluster(t, 2, Options{Placement: PlaceRoundRobin, Faults: inj})
	var rows int64
	for i := 0; i < 2; i++ {
		q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
		if _, err := c.Register(fmt.Sprintf("q%d", i), q, nil, countSink(&rows)); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, c, 200, 100) // node 0 panics on its 5th delivery mid-stream
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats[0].Restarts != 1 {
		t.Errorf("node 0 restarts = %d, want 1", stats[0].Restarts)
	}
	if stats[0].State != NodeLive {
		t.Errorf("node 0 state = %s, want live", stats[0].State)
	}
	// The in-flight tuple is retried after the restart: every delivery
	// is eventually processed.
	if stats[0].Tuples != 200 {
		t.Errorf("node 0 processed %d tuples, want 200 (crash tuple retried)", stats[0].Tuples)
	}
	if rows == 0 {
		t.Error("no rows after restart")
	}
	if inj.Injected(faults.KindPanic) != 1 {
		t.Errorf("injected panics = %d, want 1", inj.Injected(faults.KindPanic))
	}
	h := c.Health()
	if h.Live != 2 || h.Degraded() {
		t.Errorf("health after recovery = %+v, want 2 live and not degraded", h)
	}
	// The panic is recorded, not lost.
	if stats[0].ErrTotal == 0 {
		t.Error("worker panic left no trace in the error ring")
	}
}

func TestWorkerDeathFailsOverQueries(t *testing.T) {
	inj := faults.New(1).PanicAt(1, 1)
	c := newCluster(t, 2, Options{Placement: PlaceRoundRobin, MaxRestarts: -1, Faults: inj})
	var rows0, rows1 int64
	q0 := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if _, err := c.Register("q0", q0, nil, countSink(&rows0)); err != nil {
		t.Fatal(err)
	}
	q1 := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if node, err := c.Register("q1", q1, nil, countSink(&rows1)); err != nil || node != 1 {
		t.Fatalf("q1 on node %d (err %v), want 1", node, err)
	}
	// First tuple kills node 1; wait for the failover to land before
	// streaming the rest, so the rehosted q1 deterministically sees data.
	el0 := stream.Timestamped{TS: 0, Row: relation.Tuple{relation.Int(1), relation.Time(0), relation.Float(0)}}
	if err := c.Ingest("msmt", el0); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return c.Health().Dead == 1 }, "node 1 death")
	h := c.Health()
	if h.Dead != 1 || h.Live != 1 {
		t.Fatalf("health = %+v, want 1 dead / 1 live", h)
	}
	if h.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", h.Failovers)
	}
	if node, ok := c.QueryNode("q1"); !ok || node != 0 {
		t.Errorf("q1 hosted on node %d after failover, want 0", node)
	}
	// The rehosted query produces rows on the survivor.
	pump(t, c, 100, 100)
	if atomic.LoadInt64(&rows1) == 0 {
		t.Error("failed-over query produced no rows")
	}
	// Registration after the death lands on the survivor.
	q2 := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	node, err := c.Register("q2", q2, nil, countSink(&rows0))
	if err != nil {
		t.Fatal(err)
	}
	if node != 0 {
		t.Errorf("post-death registration on node %d, want 0 (node 1 is a corpse)", node)
	}
}

func TestRegisterWithNoLiveNodes(t *testing.T) {
	inj := faults.New(1).PanicAt(0, 1)
	c := newCluster(t, 1, Options{MaxRestarts: -1, Faults: inj})
	var rows int64
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if _, err := c.Register("q", q, nil, countSink(&rows)); err != nil {
		t.Fatal(err)
	}
	el := stream.Timestamped{TS: 1, Row: relation.Tuple{relation.Int(1), relation.Time(1), relation.Float(1)}}
	if err := c.Ingest("msmt", el); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return c.Health().Dead == 1 }, "node death")
	if _, err := c.Register("late", q, nil, countSink(&rows)); !errors.Is(err, ErrNoLiveNodes) {
		t.Errorf("Register with all nodes dead returned %v, want ErrNoLiveNodes", err)
	}
	// The orphaned query's loss is recorded.
	found := false
	for _, e := range c.Errors() {
		if e.QueryID == "q" && errors.Is(e.Err, ErrNoLiveNodes) {
			found = true
		}
	}
	if !found {
		t.Errorf("lost query not recorded in errors: %v", c.Errors())
	}
	// Ingest into the dead cluster is a counted drop, not a hang.
	if err := c.Ingest("msmt", el); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestBackpressureBlockHonoursContext(t *testing.T) {
	inj := faults.New(1).DelayEvery(0, 1, 50*time.Millisecond)
	c := newCluster(t, 1, Options{QueueSize: 1, Faults: inj})
	var rows int64
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if _, err := c.Register("q", q, nil, countSink(&rows)); err != nil {
		t.Fatal(err)
	}
	el := func(i int) stream.Timestamped {
		ts := int64(i) * 100
		return stream.Timestamped{TS: ts, Row: relation.Tuple{relation.Int(1), relation.Time(ts), relation.Float(1)}}
	}
	// First tuple occupies the worker, second fills the queue.
	if err := c.Ingest("msmt", el(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest("msmt", el(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.IngestContext(ctx, "msmt", el(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blocked ingest returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("ingest blocked far past its deadline")
	}
}

func TestClosedClusterReturnsTypedError(t *testing.T) {
	cat := sharedCatalog(t)
	c, err := New(Options{Nodes: 2}, func(int) *relation.Catalog { return cat })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareStream(msmtSchema()); err != nil {
		t.Fatal(err)
	}
	c.Gateway().Close()
	c.Close()
	c.Close() // idempotent
	el := stream.Timestamped{TS: 1, Row: relation.Tuple{relation.Int(1), relation.Time(1), relation.Float(1)}}
	if err := c.Ingest("msmt", el); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("Ingest after close returned %v, want ErrClusterClosed", err)
	}
	if err := c.Flush(); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("Flush after close returned %v, want ErrClusterClosed", err)
	}
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if _, err := c.Register("q", q, nil, nil); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("Register after close returned %v, want ErrClusterClosed", err)
	}
	if err := c.DeclareStream(stream.Schema{}); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("DeclareStream after close returned %v, want ErrClusterClosed", err)
	}
}

// TestCloseRacesIngest drives concurrent Ingest/Flush against Close:
// the old channel-based inbox panicked on send-to-closed-channel here.
func TestCloseRacesIngest(t *testing.T) {
	cat := sharedCatalog(t)
	c, err := New(Options{Nodes: 4}, func(int) *relation.Catalog { return cat })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareStream(msmtSchema()); err != nil {
		t.Fatal(err)
	}
	var rows int64
	for i := 0; i < 4; i++ {
		q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
		if _, err := c.Register(fmt.Sprintf("q%d", i), q, nil, countSink(&rows)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				ts := int64(i) * 10
				el := stream.Timestamped{TS: ts, Row: relation.Tuple{
					relation.Int(int64(g + 1)), relation.Time(ts), relation.Float(1)}}
				if err := c.Ingest("msmt", el); err != nil {
					if !errors.Is(err, ErrClusterClosed) {
						t.Errorf("ingest failed with %v, want ErrClusterClosed", err)
					}
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if err := c.Flush(); err != nil {
				if !errors.Is(err, ErrClusterClosed) {
					t.Errorf("flush failed with %v, want ErrClusterClosed", err)
				}
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	c.Gateway().Close()
	c.Close()
	wg.Wait()
}

func TestGatewaySubmitBusyInsteadOfDeadlock(t *testing.T) {
	c := newCluster(t, 1, Options{})
	// A gateway whose worker never drains: with capacity 1 the second
	// submission must fail fast instead of blocking under the lock.
	g := &Gateway{cluster: c, tickets: make(map[int]*Ticket), queue: make(chan *submission, 1)}
	if _, err := g.Submit("a", "SELECT 1", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit("b", "SELECT 1", nil, nil); !errors.Is(err, ErrGatewayBusy) {
		t.Errorf("full gateway returned %v, want ErrGatewayBusy", err)
	}
	// The rejected ticket is not leaked.
	g.mu.Lock()
	n := len(g.tickets)
	g.mu.Unlock()
	if n != 1 {
		t.Errorf("ticket map holds %d entries, want 1", n)
	}
}

func TestQuarantineIsolatesPoisonQueryInCluster(t *testing.T) {
	c := newCluster(t, 1, Options{Engine: exastream.Options{QuarantineAfter: 2}})
	c.RegisterUDF("boom", func(args []relation.Value) (relation.Value, error) {
		return relation.Null, errors.New("boom")
	})
	var rows int64
	if _, err := c.Register("poison",
		sql.MustParse("SELECT boom(m.val) FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m"),
		nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("healthy",
		sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m"),
		nil, countSink(&rows)); err != nil {
		t.Fatal(err)
	}
	pump(t, c, 80, 100)
	st := c.Stats()[0]
	if st.Suspended != 1 {
		t.Errorf("suspended queries = %d, want 1", st.Suspended)
	}
	if rows == 0 {
		t.Error("healthy query starved by poison query")
	}
	if st.ErrTotal == 0 {
		t.Error("query failures not recorded in the error ring")
	}
	h := c.Health()
	if !h.Degraded() || h.Suspended != 1 {
		t.Errorf("health = %+v, want degraded with 1 suspended", h)
	}
	if h.Quarantines != 1 {
		t.Errorf("quarantine events = %d, want 1", h.Quarantines)
	}
	if err := c.Resume("poison"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats()[0].Suspended; got != 0 {
		t.Errorf("suspended after Resume = %d, want 0", got)
	}
	// The event counter is monotonic: Resume clears the suspension but
	// not the history.
	if got := c.Health().Quarantines; got != 1 {
		t.Errorf("quarantine events after Resume = %d, want 1", got)
	}
	if err := c.Resume("nope"); err == nil {
		t.Error("Resume of unknown query accepted")
	}
}

func TestInjectedIngestErrorsAreCountedNotFatal(t *testing.T) {
	inj := faults.New(1).ErrorEvery(0, 10)
	c := newCluster(t, 1, Options{Faults: inj})
	var rows int64
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	if _, err := c.Register("q", q, nil, countSink(&rows)); err != nil {
		t.Fatal(err)
	}
	pump(t, c, 100, 100)
	st := c.Stats()[0]
	if st.ErrTotal != 10 {
		t.Errorf("error ring total = %d, want 10", st.ErrTotal)
	}
	if st.Tuples != 90 {
		t.Errorf("processed %d tuples, want 90 (10 failed ingests)", st.Tuples)
	}
	if rows == 0 {
		t.Error("no output despite 90% of ingest succeeding")
	}
}

// TestWrongArityTupleIsAnIngestError checks that a tuple whose arity
// is not its stream's is counted as the node's ingest error and never
// reaches a window: the query reads the same rows as without it.
func TestWrongArityTupleIsAnIngestError(t *testing.T) {
	run := func(bad bool) (rows, errs int64) {
		c := newCluster(t, 1, Options{})
		q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
		if _, err := c.Register("q", q, nil, countSink(&rows)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			ts := int64(i) * 100
			el := stream.Timestamped{TS: ts, Row: relation.Tuple{relation.Int(int64(i%10 + 1)), relation.Time(ts), relation.Float(float64(i))}}
			if err := c.Ingest("msmt", el); err != nil {
				t.Fatal(err)
			}
			if bad && i == 50 {
				if err := c.Ingest("msmt", stream.Timestamped{TS: ts, Row: el.Row[:2]}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return atomic.LoadInt64(&rows), c.Stats()[0].ErrTotal
	}
	want, _ := run(false)
	got, errs := run(true)
	if errs != 1 {
		t.Errorf("ingest errors = %d, want 1", errs)
	}
	if got != want {
		t.Errorf("query read %d rows, %d without the malformed tuple", got, want)
	}
}

func TestErrorRingKeepsCountsPastCapacity(t *testing.T) {
	var r errorRing
	for i := 0; i < errRingSize+40; i++ {
		r.add(NodeError{Node: 0, Err: fmt.Errorf("e%d", i)})
	}
	total, evicted := r.counts()
	if total != errRingSize+40 {
		t.Errorf("total = %d, want %d", total, errRingSize+40)
	}
	if evicted != 40 {
		t.Errorf("evicted = %d, want 40", evicted)
	}
	recent := r.recent()
	if len(recent) != errRingSize {
		t.Fatalf("retained %d, want %d", len(recent), errRingSize)
	}
	// Oldest retained is the first not evicted.
	if got := recent[0].Err.Error(); got != "e40" {
		t.Errorf("oldest retained = %s, want e40", got)
	}
}
