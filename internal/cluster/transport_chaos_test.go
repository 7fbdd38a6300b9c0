package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
	"repro/internal/transport"
)

// chaosTransportTuning shrinks the TCP heartbeat and reconnect clocks
// so injected faults recover within test time. Suspicion is disabled —
// partition scenarios that should NOT fail over set it here; the
// failover scenario overrides it.
func chaosTransportTuning() transport.Tuning {
	return transport.Tuning{
		HeartbeatEvery:   5 * time.Millisecond,
		SuspectAfter:     -1,
		DialTimeout:      50 * time.Millisecond,
		ReconnectBackoff: time.Millisecond,
	}
}

// runDiagnosticsOver drives the 4-node / 4-query diagnostic scenario
// with recovery enabled over a configurable transport. afterRound, when
// set, runs after each ingest round (the chaos scenarios use it to heal
// partitions or await a failover before the final flush).
func runDiagnosticsOver(t *testing.T, mutate func(*Options), inj FaultInjector, afterRound func(round int, c *Cluster)) (map[string]map[int64][]string, *Cluster) {
	t.Helper()
	cat := sharedCatalog(t)
	opts := Options{
		Nodes: 4, Placement: PlaceRoundRobin, MaxRestarts: -1, Faults: inj,
		CheckpointEvery: 5, FlightRecorder: 256,
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts, func(int) *relation.Catalog { return cat })
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
		if afterRound != nil {
			afterRound(i, c)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return log.snapshot(), c
}

func requireSameResults(t *testing.T, baseline, got map[string]map[int64][]string, scenario string) {
	t.Helper()
	if reflect.DeepEqual(baseline, got) {
		return
	}
	for q, want := range baseline {
		if g := got[q]; !reflect.DeepEqual(want, g) {
			t.Errorf("%s: query %s diverged:\n  baseline: %v\n  got:      %v", scenario, q, want, g)
		}
	}
	for q := range got {
		if _, ok := baseline[q]; !ok {
			t.Errorf("%s: query %s emitted windows the baseline never had", scenario, q)
		}
	}
}

// TestTransportChaosTCPMatchesChannel is the partition-tolerance
// acceptance scenario: the diagnostic workload over the TCP transport —
// clean, and under a deterministic schedule of frame delays, connection
// resets and link cuts that heal — must produce window sets
// byte-identical to the fault-free channel run, with zero duplicate
// deliveries.
func TestTransportChaosTCPMatchesChannel(t *testing.T) {
	baseline, _ := runDiagnosticsOver(t, nil, nil, nil)
	if len(baseline) != 4 {
		t.Fatalf("baseline produced results for %d queries, want 4", len(baseline))
	}

	useTCP := func(o *Options) {
		o.Transport = TransportTCP
		o.TransportTuning = chaosTransportTuning()
	}

	clean, _ := runDiagnosticsOver(t, useTCP, nil, nil)
	requireSameResults(t, baseline, clean, "tcp-clean")

	chaos := faults.New(1).
		ResetLinkAtFrame(faults.AnyNode, 3).
		ResetLinkAtFrame(faults.AnyNode, 17).
		ResetLinkAtFrame(0, 40).
		DelayFrameEvery(faults.AnyNode, 19, time.Millisecond).
		CutLinkAtFrame(1, 5). // cut mid-stream, healed at round 49
		CutLinkAtFrame(2, 30)
	healed := false
	chaotic, _ := runDiagnosticsOver(t, useTCP, chaos, func(round int, _ *Cluster) {
		if round != 49 || healed {
			return
		}
		healed = true
		// The triggers arm on the links' 5th/30th written frame; the
		// writer goroutines may lag the ingest loop, so wait until both
		// cuts have actually bitten before healing them — then the
		// stalled links drain and the flush barrier can complete.
		waitFor(t, 10*time.Second, func() bool {
			return chaos.LinkCut(1) && chaos.LinkCut(2)
		}, "both cut triggers firing")
		chaos.HealLink(1).HealLink(2)
	})
	requireSameResults(t, baseline, chaotic, "tcp-chaos")
	for _, k := range []faults.Kind{faults.KindNetReset, faults.KindNetDelay, faults.KindNetPartition} {
		if chaos.Injected(k) == 0 {
			t.Errorf("the schedule never injected %v", k)
		}
	}
}

// TestTransportChaosSuspicionFailover cuts one node's link permanently:
// the failure detector must suspect it, the cluster must fail it over
// through the checkpoint+salvage path (the cut link's undelivered
// frames ride along), and the surviving topology must still produce the
// fault-free window sets.
func TestTransportChaosSuspicionFailover(t *testing.T) {
	baseline, _ := runDiagnosticsOver(t, nil, nil, nil)

	inj := faults.New(1).CutLink(3)
	faulted, c := runDiagnosticsOver(t, func(o *Options) {
		o.Transport = TransportTCP
		tun := chaosTransportTuning()
		tun.SuspectAfter = 60 * time.Millisecond
		o.TransportTuning = tun
	}, inj, func(round int, c *Cluster) {
		if round != 49 {
			return
		}
		// All of s3's tuples sit undelivered on the cut link. Wait for
		// the detector to declare node 3 dead and the migration (restore
		// job + salvage replay) to settle before the final flush.
		waitFor(t, 10*time.Second, func() bool {
			return c.Health().Dead == 1
		}, "suspicion-triggered failover of node 3")
		if err := c.WaitSettled(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	requireSameResults(t, baseline, faulted, "tcp-suspicion-failover")

	h := c.Health()
	if h.Dead != 1 || h.Live != 3 {
		t.Fatalf("health = %+v, want 1 dead / 3 live", h)
	}
	if h.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", h.Failovers)
	}
	if node, ok := c.QueryNode("raw-export"); !ok || node == 3 {
		t.Errorf("raw-export on node %d (ok=%v), want migrated off node 3", node, ok)
	}
	kinds := make(map[string]int)
	for _, ev := range c.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []string{"link_up", "link_suspect", "link_down", "transport_failover", "failover"} {
		if kinds[want] == 0 {
			t.Errorf("flight recorder has no %s event (got %v)", want, kinds)
		}
	}
}

// TestRetryBusyRetriesTransportErrors sits alongside the gateway and
// governance RetryBusy coverage: the typed transport errors are
// transient (links reconnect, sessions resume) and must be retried;
// the first non-retryable error still returns immediately.
func TestRetryBusyRetriesTransportErrors(t *testing.T) {
	for _, transient := range []error{ErrLinkDown, ErrSessionReset} {
		calls := 0
		err := RetryBusy(context.Background(), 5, time.Microsecond, func() error {
			calls++
			if calls < 3 {
				return transient
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: RetryBusy = %v, want nil", transient, err)
		}
		if calls != 3 {
			t.Fatalf("%v: fn ran %d times, want 3", transient, calls)
		}
	}

	fatal := errors.New("torn state")
	calls := 0
	err := RetryBusy(context.Background(), 5, time.Microsecond, func() error {
		calls++
		if calls == 1 {
			return ErrLinkDown
		}
		return fatal
	})
	if !errors.Is(err, fatal) {
		t.Fatalf("RetryBusy = %v, want the non-retryable error", err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (one retry, then stop)", calls)
	}
}
