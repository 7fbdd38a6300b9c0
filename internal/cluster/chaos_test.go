package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/exastream"
	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// resultLog records every window a query emits as a canonical
// (order-insensitive) snapshot, so two cluster runs can be compared for
// exact result equality.
type resultLog struct {
	mu      sync.Mutex
	byQuery map[string]map[int64][]string
}

func newResultLog() *resultLog {
	return &resultLog{byQuery: make(map[string]map[int64][]string)}
}

func (r *resultLog) sink() exastream.Sink {
	return func(queryID string, windowEnd int64, _ relation.Schema, cb *relation.ColBatch) {
		rows := cb.Rows()
		canon := make([]string, len(rows))
		for i, row := range rows {
			canon[i] = fmt.Sprintf("%v", row)
		}
		sort.Strings(canon)
		r.mu.Lock()
		defer r.mu.Unlock()
		windows, ok := r.byQuery[queryID]
		if !ok {
			windows = make(map[int64][]string)
			r.byQuery[queryID] = windows
		}
		windows[windowEnd] = append(windows[windowEnd], canon...)
	}
}

func (r *resultLog) snapshot() map[string]map[int64][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]map[int64][]string, len(r.byQuery))
	for q, windows := range r.byQuery {
		cp := make(map[int64][]string, len(windows))
		for w, rows := range windows {
			cp[w] = append([]string(nil), rows...)
		}
		out[q] = cp
	}
	return out
}

// diagnosticQueries are Siemens-style diagnostic tasks (DESIGN.md §2):
// per-sensor aggregation, threshold monitoring, and raw signal export,
// one per event stream so each lands on its own node under round-robin.
func diagnosticQueries() []struct{ id, text string } {
	return []struct{ id, text string }{
		{"avg-temp", "SELECT m.sid, AVG(m.val) FROM STREAM s0 [RANGE 1000 SLIDE 1000] AS m GROUP BY m.sid"},
		{"overheat", "SELECT m.sid, m.val FROM STREAM s1 [RANGE 1000 SLIDE 1000] AS m WHERE m.val > 50"},
		{"vibration-max", "SELECT MAX(m.val) FROM STREAM s2 [RANGE 1000 SLIDE 1000] AS m"},
		{"raw-export", "SELECT m.sid, m.val FROM STREAM s3 [RANGE 1000 SLIDE 1000] AS m"},
	}
}

func eventSchema(name string) stream.Schema {
	return stream.Schema{
		Name: name,
		Tuple: relation.NewSchema(
			relation.Col("sid", relation.TInt),
			relation.Col("ts", relation.TTime),
			relation.Col("val", relation.TFloat),
		),
		TSCol: "ts",
	}
}

// runDiagnostics drives the 4-node / 4-query chaos scenario. With inj
// nil it is the fault-free baseline; with a PanicAt(3, 1) injector node
// 3 dies on its first tuple and afterFirstRound waits for the failover
// to settle before the remaining rounds stream in.
func runDiagnostics(t *testing.T, inj FaultInjector, afterFirstRound func(*Cluster)) (map[string]map[int64][]string, *Cluster) {
	t.Helper()
	cat := sharedCatalog(t)
	c, err := New(Options{
		Nodes: 4, Placement: PlaceRoundRobin, MaxRestarts: -1, Faults: inj,
	}, func(int) *relation.Catalog { return cat })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Gateway().Close()
		c.Close()
	})
	for i := 0; i < 4; i++ {
		if err := c.DeclareStream(eventSchema(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	log := newResultLog()
	for i, q := range diagnosticQueries() {
		node, err := c.Register(q.id, sql.MustParse(q.text), nil, log.sink())
		if err != nil {
			t.Fatal(err)
		}
		if node != i {
			t.Fatalf("query %s placed on node %d, want %d", q.id, node, i)
		}
	}
	const rounds = 50
	for i := 0; i < rounds; i++ {
		ts := int64(i) * 100
		for s := 0; s < 4; s++ {
			el := stream.Timestamped{TS: ts, Row: relation.Tuple{
				relation.Int(int64(i%5 + 1)), relation.Time(ts), relation.Float(float64((i*7 + s*13) % 100)),
			}}
			if err := c.Ingest(fmt.Sprintf("s%d", s), el); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 && afterFirstRound != nil {
			afterFirstRound(c)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return log.snapshot(), c
}

// TestChaosPanicMidStreamPreservesResults is the acceptance scenario:
// a worker panic is injected mid-stream on a 4-node cluster running the
// Siemens diagnostic queries; the dead node's query is rehosted, its
// salvaged tuple redelivered, and the flushed results of every query
// are identical to a fault-free run.
func TestChaosPanicMidStreamPreservesResults(t *testing.T) {
	baseline, _ := runDiagnostics(t, nil, nil)
	if len(baseline) != 4 {
		t.Fatalf("baseline produced results for %d queries, want 4", len(baseline))
	}

	inj := faults.New(1).PanicAt(3, 1)
	faulted, c := runDiagnostics(t, inj, func(c *Cluster) {
		// Node 3 panics on its first s3 tuple. Wait until the failover has
		// both declared it dead and salvaged the in-flight tuple to the new
		// host, so the rest of the stream arrives in order behind it.
		waitFor(t, 5*time.Second, func() bool {
			h := c.Health()
			return h.Dead == 1 && h.Requeued == 1
		}, "failover of node 3")
		if err := c.WaitSettled(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if inj.Injected(faults.KindPanic) != 1 {
		t.Fatalf("injected %d panics, want 1", inj.Injected(faults.KindPanic))
	}
	h := c.Health()
	if h.Dead != 1 || h.Live != 3 {
		t.Fatalf("health = %+v, want 1 dead / 3 live", h)
	}
	if h.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", h.Failovers)
	}
	if h.Requeued != 1 {
		t.Errorf("requeued = %d, want 1 (the salvaged in-flight tuple)", h.Requeued)
	}
	for _, q := range diagnosticQueries() {
		node, ok := c.QueryNode(q.id)
		if !ok {
			t.Fatalf("query %s lost", q.id)
		}
		if node == 3 {
			t.Errorf("query %s still hosted on the dead node", q.id)
		}
	}
	if !reflect.DeepEqual(baseline, faulted) {
		for q, want := range baseline {
			if got := faulted[q]; !reflect.DeepEqual(want, got) {
				t.Errorf("query %s diverged:\n  baseline: %v\n  faulted:  %v", q, want, got)
			}
		}
	}
}

// TestChaosParallelFleetMatchesSequential is the acceptance scenario
// for the parallel execution pool: a two-node cluster where each node
// hosts four diagnostic queries, executed on a Parallelism-8 pool with
// a worker panic injected mid-stream, must flush exactly the results of
// a sequential (Parallelism 1) fault-free run.
func TestChaosParallelFleetMatchesSequential(t *testing.T) {
	run := func(parallelism int, inj FaultInjector, afterFirstRound func(*Cluster)) map[string]map[int64][]string {
		t.Helper()
		cat := sharedCatalog(t)
		c, err := New(Options{
			Nodes: 2, Placement: PlaceRoundRobin, MaxRestarts: -1, Faults: inj,
			Engine: exastream.Options{Parallelism: parallelism},
		}, func(int) *relation.Catalog { return cat })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Gateway().Close()
			c.Close()
		})
		for i := 0; i < 4; i++ {
			if err := c.DeclareStream(eventSchema(fmt.Sprintf("s%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		log := newResultLog()
		for rep := 0; rep < 2; rep++ {
			for _, q := range diagnosticQueries() {
				id := fmt.Sprintf("%s-%d", q.id, rep)
				if _, err := c.Register(id, sql.MustParse(q.text), nil, log.sink()); err != nil {
					t.Fatal(err)
				}
			}
		}
		const rounds = 50
		for i := 0; i < rounds; i++ {
			ts := int64(i) * 100
			for s := 0; s < 4; s++ {
				el := stream.Timestamped{TS: ts, Row: relation.Tuple{
					relation.Int(int64(i%5 + 1)), relation.Time(ts), relation.Float(float64((i*7 + s*13) % 100)),
				}}
				if err := c.Ingest(fmt.Sprintf("s%d", s), el); err != nil {
					t.Fatal(err)
				}
			}
			if i == 0 && afterFirstRound != nil {
				afterFirstRound(c)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return log.snapshot()
	}

	baseline := run(1, nil, nil)
	if len(baseline) != 8 {
		t.Fatalf("baseline produced results for %d queries, want 8", len(baseline))
	}

	inj := faults.New(1).PanicAt(1, 1)
	faulted := run(8, inj, func(c *Cluster) {
		// Node 1 hosts four queries across all streams, so besides the
		// in-flight tuple its queue may hold more salvageable tuples; wait
		// for the death plus at least one salvage, then quiescence.
		waitFor(t, 5*time.Second, func() bool {
			h := c.Health()
			return h.Dead == 1 && h.Requeued >= 1
		}, "failover of node 1")
		if err := c.WaitSettled(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if inj.Injected(faults.KindPanic) != 1 {
		t.Fatalf("injected %d panics, want 1", inj.Injected(faults.KindPanic))
	}
	if !reflect.DeepEqual(baseline, faulted) {
		for q, want := range baseline {
			if got := faulted[q]; !reflect.DeepEqual(want, got) {
				t.Errorf("query %s diverged:\n  baseline: %v\n  parallel+fault: %v", q, want, got)
			}
		}
		if len(faulted) != len(baseline) {
			t.Errorf("query sets differ: %d vs %d", len(baseline), len(faulted))
		}
	}
}

// TestChaosPartitionReroutingAfterNodeDeath kills the partition owner
// of a sensor id and verifies the deterministic remap: every subsequent
// tuple of that sensor hashes onto the same survivor, the in-flight
// tuple is salvaged there, nothing is dropped, and the migrated query
// produces exactly the same windows as the survivor's native copy.
func TestChaosPartitionReroutingAfterNodeDeath(t *testing.T) {
	inj := faults.New(1).PanicAt(3, 1)
	c := newCluster(t, 4, Options{
		Placement: PlaceRoundRobin, PartitionColumn: "sid", MaxRestarts: -1, Faults: inj,
	})
	log := newResultLog()
	for i := 0; i < 4; i++ {
		q := sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
		if node, err := c.Register(fmt.Sprintf("q%d", i), q, nil, log.sink()); err != nil || node != i {
			t.Fatalf("q%d on node %d (err %v)", i, node, err)
		}
	}
	// A sensor id owned by node 3 under the 4-host ring that remaps to
	// node 1 under the 3-survivor ring. Node 1 is also where round-robin
	// deterministically rehosts q3 (rrNext is 4 after four registrations,
	// and 4 mod 3 live nodes picks survivor index 1), so the migrated
	// query co-hosts the rerouted data.
	var sid int64
	for s := int64(1); ; s++ {
		if h := valueHash(relation.Int(s)); h%4 == 3 && h%3 == 1 {
			sid = s
			break
		}
	}
	survivors := []int{0, 1, 2}
	expected := survivors[valueHash(relation.Int(sid))%3]

	ingest := func(i int) {
		ts := int64(i) * 100
		el := stream.Timestamped{TS: ts, Row: relation.Tuple{
			relation.Int(sid), relation.Time(ts), relation.Float(float64(i))}}
		if err := c.Ingest("msmt", el); err != nil {
			t.Fatal(err)
		}
	}
	const n = 40
	ingest(0) // routed to node 3, which panics before processing it
	waitFor(t, 5*time.Second, func() bool {
		h := c.Health()
		return h.Dead == 1 && h.Requeued == 1
	}, "failover of partition owner")
	migrated, ok := c.QueryNode("q3")
	if !ok || migrated == 3 {
		t.Fatalf("q3 hosted on node %d after owner death", migrated)
	}
	for i := 1; i < n; i++ {
		ingest(i)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	stats := c.Stats()
	var processed, dropped int64
	for _, s := range stats {
		processed += s.Tuples
		dropped += s.Dropped
	}
	if processed != n {
		t.Errorf("processed %d tuples, want %d (salvage must redeliver the in-flight tuple)", processed, n)
	}
	if dropped != 0 {
		t.Errorf("dropped %d tuples, want 0", dropped)
	}
	// Deterministic remap: all tuples landed on the expected survivor.
	for _, s := range stats {
		want := int64(0)
		if s.Node == expected {
			want = n
		}
		if s.Tuples != want {
			t.Errorf("node %d processed %d tuples, want %d (sid %d remaps to survivor %d)",
				s.Node, s.Tuples, want, sid, expected)
		}
	}
	if migrated != expected {
		t.Fatalf("q3 rehosted on node %d, but the sid remaps to node %d", migrated, expected)
	}
	// The migrated query and the survivor's native copy of the same query
	// saw an identical stream, so their windows must match exactly.
	results := log.snapshot()
	native := fmt.Sprintf("q%d", expected)
	if len(results[native]) == 0 {
		t.Fatalf("native query %s produced no windows", native)
	}
	if !reflect.DeepEqual(results["q3"], results[native]) {
		t.Errorf("migrated query diverged from co-hosted native copy:\n  q3: %v\n  %s: %v",
			results["q3"], native, results[native])
	}
}
