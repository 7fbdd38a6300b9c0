package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/exastream"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

func sharedCatalog(t *testing.T) *relation.Catalog {
	t.Helper()
	cat := relation.NewCatalog()
	sensors, err := cat.Create("sensors", relation.NewSchema(
		relation.Col("sid", relation.TInt),
		relation.Col("tid", relation.TInt),
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 100; i++ {
		sensors.MustInsert(relation.Tuple{relation.Int(i), relation.Int(i % 10)})
	}
	return cat
}

func msmtSchema() stream.Schema {
	return stream.Schema{
		Name: "msmt",
		Tuple: relation.NewSchema(
			relation.Col("sid", relation.TInt),
			relation.Col("ts", relation.TTime),
			relation.Col("val", relation.TFloat),
		),
		TSCol: "ts",
	}
}

func newCluster(t *testing.T, nodes int, opts Options) *Cluster {
	t.Helper()
	opts.Nodes = nodes
	cat := sharedCatalog(t)
	c, err := New(opts, func(int) *relation.Catalog { return cat })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Gateway().Close()
		c.Close()
	})
	if err := c.DeclareStream(msmtSchema()); err != nil {
		t.Fatal(err)
	}
	return c
}

func countSink(counter *int64) exastream.Sink {
	return func(_ string, _ int64, _ relation.Schema, cb *relation.ColBatch) {
		atomic.AddInt64(counter, int64(cb.Len()))
	}
}

func pump(t *testing.T, c *Cluster, n int, stepMS int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		ts := int64(i) * stepMS
		el := stream.Timestamped{TS: ts, Row: relation.Tuple{
			relation.Int(int64(i%10 + 1)), relation.Time(ts), relation.Float(float64(i)),
		}}
		if err := c.Ingest("msmt", el); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Options{Nodes: 0}, func(int) *relation.Catalog { return relation.NewCatalog() }); err == nil {
		t.Error("zero nodes accepted")
	}
	c := newCluster(t, 2, Options{})
	if err := c.DeclareStream(msmtSchema()); err == nil {
		t.Error("duplicate stream accepted")
	}
	if err := c.Ingest("nope", stream.Timestamped{}); err == nil {
		t.Error("unknown stream accepted")
	}
	q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	var n int64
	if _, err := c.Register("q", q, nil, countSink(&n)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("q", q, nil, countSink(&n)); err == nil {
		t.Error("duplicate query accepted")
	}
	if err := c.Unregister("missing"); err == nil {
		t.Error("unknown unregister accepted")
	}
}

func TestClusterArchitecture(t *testing.T) {
	// Figure 2 end-to-end: register through the async gateway, scheduler
	// places on workers, stream engines execute, results flow to sinks.
	c := newCluster(t, 4, Options{Placement: PlaceLeastLoaded})
	var rows int64
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		text := fmt.Sprintf("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m WHERE m.sid = %d", i+1)
		tk, err := c.Gateway().Submit(fmt.Sprintf("diag-%d", i), text, nil, countSink(&rows))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	placed := map[int]int{}
	for _, tk := range tickets {
		node, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		placed[node]++
		if !tk.Done() {
			t.Error("Done false after Wait")
		}
	}
	// Load-based placement over 4 idle nodes spreads 8 queries 2 each.
	for node, n := range placed {
		if n != 2 {
			t.Errorf("node %d got %d queries: %v", node, n, placed)
		}
	}
	pump(t, c, 200, 100)
	if rows == 0 {
		t.Fatal("no rows delivered")
	}
	// Each node's engine saw work.
	stats := c.Stats()
	busy := 0
	for _, s := range stats {
		if s.Engine.TuplesIn > 0 {
			busy++
		}
	}
	if busy != 4 {
		t.Errorf("busy nodes = %d, want 4: %+v", busy, stats)
	}
}

func TestGatewayParseError(t *testing.T) {
	c := newCluster(t, 1, Options{})
	tk, err := c.Gateway().Submit("bad", "SELEKT broken", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil {
		t.Error("parse error not surfaced")
	}
	c.Gateway().Close()
	if _, err := c.Gateway().Submit("late", "SELECT 1", nil, nil); err == nil {
		t.Error("submit after close accepted")
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	c := newCluster(t, 3, Options{Placement: PlaceRoundRobin})
	var n int64
	for i := 0; i < 6; i++ {
		q := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
		node, err := c.Register(fmt.Sprintf("q%d", i), q, nil, countSink(&n))
		if err != nil {
			t.Fatal(err)
		}
		if node != i%3 {
			t.Errorf("query %d placed on node %d, want %d", i, node, i%3)
		}
	}
}

func TestPartitionedIngestRoutesToOneNode(t *testing.T) {
	c := newCluster(t, 4, Options{PartitionColumn: "sid"})
	var rows int64
	// One query per node so every node hosts the stream.
	for i := 0; i < 4; i++ {
		q := sql.MustParse("SELECT m.sid FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
		if _, err := c.Register(fmt.Sprintf("q%d", i), q, nil, countSink(&rows)); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, c, 400, 25)
	// Partitioned routing: total tuples processed across nodes equals the
	// input count (each tuple goes to exactly one node).
	var total int64
	for _, s := range c.Stats() {
		total += s.Tuples
	}
	if total != 400 {
		t.Fatalf("partitioned ingest processed %d tuples, want 400", total)
	}
	// Same sid always lands on the same node: per-sensor windows stay
	// complete, so every tuple surfaces exactly once overall.
	if rows == 0 {
		t.Fatal("no output rows")
	}
}

// TestValueHashFollowsEquality checks that partition routing hashes the
// equality key: values that compare equal reach the same node.
func TestValueHashFollowsEquality(t *testing.T) {
	for _, pair := range [][2]relation.Value{
		{relation.Int(7), relation.Float(7)},
		{relation.Int(7), relation.Time(7)},
		{relation.Float(0), relation.Float(math.Copysign(0, -1))},
	} {
		if valueHash(pair[0]) != valueHash(pair[1]) {
			t.Errorf("%s and %s hash apart", pair[0], pair[1])
		}
	}
	if valueHash(relation.Int(7)) == valueHash(relation.String_("7")) {
		t.Error("7 and '7' hash together")
	}
}

func TestBroadcastIngest(t *testing.T) {
	c := newCluster(t, 3, Options{})
	var rows int64
	for i := 0; i < 3; i++ {
		q := sql.MustParse("SELECT m.sid FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
		if _, err := c.Register(fmt.Sprintf("q%d", i), q, nil, countSink(&rows)); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, c, 90, 100)
	var total int64
	for _, s := range c.Stats() {
		total += s.Tuples
	}
	if total != 90*3 {
		t.Fatalf("broadcast processed %d tuple deliveries, want %d", total, 90*3)
	}
}

func TestIngestWithNoListenersIsNoop(t *testing.T) {
	c := newCluster(t, 2, Options{})
	if err := c.Ingest("msmt", stream.Timestamped{TS: 1, Row: relation.Tuple{
		relation.Int(1), relation.Time(1), relation.Float(1),
	}}); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Stats() {
		if s.Tuples != 0 {
			t.Errorf("tuple delivered with no listeners: %+v", s)
		}
	}
}

func TestUnregisterRebalancesLoadCounters(t *testing.T) {
	c := newCluster(t, 2, Options{Placement: PlaceLeastLoaded})
	var n int64
	q1 := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	node1, _ := c.Register("a", q1, nil, countSink(&n))
	q2 := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	node2, _ := c.Register("b", q2, nil, countSink(&n))
	if node1 == node2 {
		t.Fatalf("least-loaded placed both on node %d", node1)
	}
	if err := c.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.QueryNode("a"); ok {
		t.Error("query still tracked after unregister")
	}
	stats := c.Stats()
	if stats[node1].Queries != 0 {
		t.Errorf("node %d query count = %d", node1, stats[node1].Queries)
	}
}

func TestManyConcurrentRegistrationsAndIngest(t *testing.T) {
	c := newCluster(t, 8, Options{Placement: PlaceLeastLoaded})
	var rows int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			text := fmt.Sprintf("SELECT m.val FROM STREAM msmt [RANGE 500 SLIDE 500] AS m WHERE m.sid = %d", i%10+1)
			tk, err := c.Gateway().Submit(fmt.Sprintf("q%03d", i), text, nil, countSink(&rows))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := tk.Wait(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	pump(t, c, 1000, 10)
	if rows == 0 {
		t.Fatal("no output")
	}
	// All 64 queries placed 8 per node.
	for _, s := range c.Stats() {
		if s.Queries != 8 {
			t.Errorf("node %d has %d queries", s.Node, s.Queries)
		}
	}
}

// TestLeastLoadedConsidersTupleLoad is the scheduler ablation of
// DESIGN.md §5: with equal query counts, load-based placement steers new
// queries away from the node that has processed more tuples, while
// round-robin ignores load.
func TestLeastLoadedConsidersTupleLoad(t *testing.T) {
	c := newCluster(t, 2, Options{Placement: PlaceLeastLoaded, PartitionColumn: "sid"})
	var n int64
	// One query per node; partitioned ingest sends sid=1 to exactly one
	// of them, loading that node only.
	q1 := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	node1, err := c.Register("a", q1, nil, countSink(&n))
	if err != nil {
		t.Fatal(err)
	}
	q2 := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	node2, err := c.Register("b", q2, nil, countSink(&n))
	if err != nil {
		t.Fatal(err)
	}
	if node1 == node2 {
		t.Fatalf("both on node %d", node1)
	}
	// Load one node with many tuples of a single sensor.
	for i := 0; i < 500; i++ {
		el := stream.Timestamped{TS: int64(i) * 10, Row: relation.Tuple{
			relation.Int(1), relation.Time(int64(i) * 10), relation.Float(1)}}
		if err := c.Ingest("msmt", el); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	loaded := 0
	if stats[1].Tuples > stats[0].Tuples {
		loaded = 1
	}
	if stats[loaded].Tuples == stats[1-loaded].Tuples {
		t.Skip("partitioning balanced the load; nothing to distinguish")
	}
	// Unregister one query from each node so counts stay equal, then the
	// next registration must avoid the tuple-loaded node.
	q3 := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	node3, err := c.Register("c", q3, nil, countSink(&n))
	if err != nil {
		t.Fatal(err)
	}
	if node3 == loaded {
		t.Errorf("least-loaded placed on the tuple-heavy node %d (loads %d vs %d)",
			node3, stats[loaded].Tuples, stats[1-loaded].Tuples)
	}
}
