package cluster

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// heldCrash panics a node's worker on its n-th tuple, once release is
// closed (nil: at once): every tuple ingested meanwhile is still queued
// on the node when it dies.
type heldCrash struct {
	node, n int
	release chan struct{}
}

// heldCrashes is a FaultInjector made of heldCrash entries.
type heldCrashes struct {
	mu      sync.Mutex
	crashes []heldCrash
	seen    map[int]int
}

func newHeldCrashes(crashes ...heldCrash) *heldCrashes {
	return &heldCrashes{crashes: crashes, seen: map[int]int{}}
}

func (h *heldCrashes) BeforeProcess(node int, _ string) error {
	h.mu.Lock()
	h.seen[node]++
	seen := h.seen[node]
	h.mu.Unlock()
	for _, c := range h.crashes {
		if c.node == node && c.n == seen {
			if c.release != nil {
				<-c.release
			}
			panic(fmt.Sprintf("injected crash of node %d at tuple %d", node, seen))
		}
	}
	return nil
}

// msmtTuple is one msmt tuple at ts for sensor sid with value val.
func msmtTuple(ts, sid int64, val float64) stream.Timestamped {
	return stream.Timestamped{TS: ts, Row: relation.Tuple{relation.Int(sid), relation.Time(ts), relation.Float(val)}}
}

// runQueueOnce runs "keep" on node 0 and "moved" on node 1 of a
// two-node cluster without checkpoints, over two windows of one
// broadcast stream. It ingests 20 tuples, calls mid, waits until the
// cluster settles, ingests 20 more and flushes.
func runQueueOnce(t *testing.T, inj FaultInjector, mid func(*Cluster)) (map[string]map[int64][]string, *Cluster) {
	t.Helper()
	c := newCluster(t, 2, Options{Placement: PlaceRoundRobin, MaxRestarts: -1, Faults: inj})
	log := newResultLog()
	for i, q := range []struct{ id, text string }{
		{"keep", "SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m"},
		{"moved", "SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m"},
	} {
		if node, err := c.Register(q.id, sql.MustParse(q.text), nil, log.sink()); err != nil || node != i {
			t.Fatalf("%s on node %d (err %v), want %d", q.id, node, err, i)
		}
	}
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			if err := c.Ingest("msmt", msmtTuple(int64(i)*100, int64(i%10+1), float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, 20)
	if mid != nil {
		mid(c)
	}
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingest(20, 40)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return log.snapshot(), c
}

// TestFailoverWithoutCheckpointReplaysQueueOnce kills a node, without
// checkpoints, while 20 broadcast tuples wait in its queue. Its query
// migrates to the other node, which already hosts the stream under
// another window: the migrated query's replay feed is the dead node's
// queue, so its windows hold each of those tuples exactly once, as in
// a fault-free run, and none is dropped.
func TestFailoverWithoutCheckpointReplaysQueueOnce(t *testing.T) {
	baseline, _ := runQueueOnce(t, nil, nil)
	release := make(chan struct{})
	faulted, c := runQueueOnce(t, newHeldCrashes(heldCrash{node: 1, n: 1, release: release}), func(c *Cluster) {
		close(release)
		waitFor(t, 5*time.Second, func() bool { return c.Health().Dead == 1 }, "death of node 1")
	})
	if node, ok := c.QueryNode("moved"); !ok || node != 0 {
		t.Fatalf("moved hosted on node %d after the failover, want 0", node)
	}
	if h := c.Health(); h.Requeued != 20 || h.Dropped != 0 {
		t.Errorf("health = %+v, want the 20 queued tuples salvaged and none dropped", h)
	}
	if len(baseline["moved"]) == 0 {
		t.Fatal("the fault-free run emitted nothing: the check is vacuous")
	}
	if !reflect.DeepEqual(baseline, faulted) {
		for q, want := range baseline {
			if got := faulted[q]; !reflect.DeepEqual(want, got) {
				t.Errorf("query %s diverged:\n  baseline: %v\n  faulted:  %v", q, want, got)
			}
		}
	}
}

// TestRestartWithoutCheckpointKeepsSharing crashes, without
// checkpoints, a node whose three queries read one window operator.
// The restart brings them back on one operator, and a query registered
// before any further tuple arrives reads that operator too.
func TestRestartWithoutCheckpointKeepsSharing(t *testing.T) {
	c := newCluster(t, 1, Options{Faults: faults.New(1).PanicAt(0, 5)})
	log := newResultLog()
	for _, id := range []string{"a", "b", "c"} {
		if _, err := c.Register(id, sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m"), nil, log.sink()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := c.Ingest("msmt", msmtTuple(int64(i)*100, 1, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		st := c.Stats()[0]
		return st.Restarts == 1 && st.Tuples == 5
	}, "restart of node 0")
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("d", sql.MustParse("SELECT MAX(m.val) FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m"), nil, log.sink()); err != nil {
		t.Fatal(err)
	}
	st := engineOf(c, 0).ExportState()
	if len(st.Windows) != 1 || len(st.Queries) != 4 {
		t.Fatalf("after the restart %d queries read %d operators, want 4 reading one", len(st.Queries), len(st.Windows))
	}
}

// TestSecondFailoverResendReachesMigratedQuery kills two partition
// owners in turn, without checkpoints. The first death moves q3 to node
// 1, restored from a feed holding the dead node's in-flight tuple. Live
// traffic then passes the restored operator's cursor. The second dead
// node's in-flight tuple, ingested before that traffic, re-hashes to
// node 1: q3 must see it.
func TestSecondFailoverResendReachesMigratedQuery(t *testing.T) {
	// owner finds a sensor id that a ring of hosts routes to the host
	// at want[hosts].
	owner := func(want map[uint64]uint64) int64 {
		for s := int64(1); ; s++ {
			h, ok := valueHash(relation.Int(s)), true
			for hosts, w := range want {
				ok = ok && h%hosts == w
			}
			if ok {
				return s
			}
		}
	}
	sidD := owner(map[uint64]uint64{4: 3})       // node 3 of four
	sidA := owner(map[uint64]uint64{3: 2, 2: 1}) // node 2 of 0..2, node 1 of 0..1
	sidB := owner(map[uint64]uint64{3: 1})       // node 1 of 0..2
	release := make(chan struct{})
	inj := newHeldCrashes(heldCrash{node: 3, n: 1}, heldCrash{node: 2, n: 1, release: release})
	c := newCluster(t, 4, Options{Placement: PlaceRoundRobin, PartitionColumn: "sid", MaxRestarts: -1, Faults: inj})
	log := newResultLog()
	for i := 0; i < 4; i++ {
		q := sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
		if node, err := c.Register(fmt.Sprintf("q%d", i), q, nil, log.sink()); err != nil || node != i {
			t.Fatalf("q%d on node %d (err %v)", i, node, err)
		}
	}
	ingest := func(ts, sid int64, val float64) {
		if err := c.Ingest("msmt", msmtTuple(ts, sid, val)); err != nil {
			t.Fatal(err)
		}
	}
	ingest(0, sidD, 1)
	waitFor(t, 5*time.Second, func() bool { return c.Health().Dead == 1 }, "death of node 3")
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	if node, _ := c.QueryNode("q3"); node != 1 {
		t.Fatalf("q3 moved to node %d, want 1", node)
	}
	// The held tuple is the later one in time, so that node 1 does not
	// take it for late when it arrives there after the live one.
	ingest(300, sidA, 777) // held on node 2
	before := c.Stats()[1].Tuples
	ingest(200, sidB, 2) // passes q3's cursor on node 1
	waitFor(t, 5*time.Second, func() bool { return c.Stats()[1].Tuples > before }, "node 1 to process live traffic")
	close(release)
	waitFor(t, 5*time.Second, func() bool { return c.Health().Dead == 2 }, "death of node 2")
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); h.Dropped != 0 {
		t.Errorf("dropped %d tuples, want 0", h.Dropped)
	}
	found := false
	for _, rows := range log.snapshot()["q3"] {
		for _, row := range rows {
			found = found || strings.Contains(row, "777")
		}
	}
	if !found {
		t.Fatalf("q3 on node 1 never saw node 2's salvaged tuple: %v", log.snapshot()["q3"])
	}
}
