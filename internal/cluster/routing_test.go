package cluster

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sql"
	"repro/internal/stream"
)

// checkRouting requires the routing table to equal the hosts of each
// stream recomputed from the query records, ascending.
func checkRouting(t *testing.T, c *Cluster, after string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	want := map[string][]int{}
	for _, rec := range c.queries {
		for _, s := range streamNamesOf(rec.stmt) {
			if !slices.Contains(want[s], rec.node) {
				want[s] = append(want[s], rec.node)
			}
		}
	}
	for _, h := range want {
		slices.Sort(h)
	}
	if !reflect.DeepEqual(c.streamHosts, want) {
		t.Fatalf("after %s: routing %v, query records give %v", after, c.streamHosts, want)
	}
}

// TestRoutingFollowsQueryRecords checks the per-stream routing slices
// against the query records after registrations, an unregistration, a
// restart that drops a query it cannot restore, and a failover.
func TestRoutingFollowsQueryRecords(t *testing.T) {
	crashes := newHeldCrashes(heldCrash{node: 1, n: 1}, heldCrash{node: 2, n: 1}, heldCrash{node: 2, n: 2})
	c := newCluster(t, 3, Options{Placement: PlaceRoundRobin, MaxRestarts: 1, Faults: crashes})
	s2 := msmtSchema()
	s2.Name = "msmt2"
	if err := c.DeclareStream(s2); err != nil {
		t.Fatal(err)
	}
	checkRouting(t, c, "no registration")
	for i, text := range []string{
		"SELECT m.sid FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m",
		"SELECT m.sid FROM STREAM msmt2 [RANGE 1000 SLIDE 1000] AS m",
		`SELECT a.sid FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS a,
			msmt2 [RANGE 1000 SLIDE 1000] AS b WHERE a.sid = b.sid`,
		"SELECT m.sid FROM STREAM msmt2 [RANGE 1000 SLIDE 1000] AS m",
		"SELECT m.sid FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m",
		"SELECT m.sid FROM STREAM msmt2 [RANGE 1000 SLIDE 500] AS m",
	} {
		id := "q" + string(rune('0'+i))
		if node, err := c.Register(id, sql.MustParse(text), nil, nil); err != nil || node != i%3 {
			t.Fatalf("%s on node %d (err %v), want %d", id, node, err, i%3)
		}
		checkRouting(t, c, "registering "+id)
	}
	if err := c.Unregister("q3"); err != nil {
		t.Fatal(err)
	}
	checkRouting(t, c, "unregistering q3")

	// q4 is node 1's only msmt query; an invalid pulse makes its restore
	// fail, so node 1's restart drops it. Node 2 crashes past its restart
	// budget and fails over.
	c.mu.Lock()
	c.queries["q4"].pulse = &stream.Pulse{}
	c.mu.Unlock()
	for _, name := range []string{"msmt", "msmt2"} {
		if err := c.Ingest(name, msmtTuple(100, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Flush waits for the queued tuples, and so for the crashes.
	_ = c.Flush()
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	_, kept := c.queries["q4"]
	dead := c.nodes[2].State() == NodeDead
	moved := c.queries["q5"].node != 2
	c.mu.Unlock()
	if kept || !dead || !moved {
		t.Fatalf("q4 kept %v, node 2 dead %v, q5 moved %v: want the restore dropped and node 2 failed over", kept, dead, moved)
	}
	checkRouting(t, c, "a dropped restore and a failover")
}
