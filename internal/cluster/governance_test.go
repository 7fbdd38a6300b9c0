package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/exastream"
	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func TestTenantOf(t *testing.T) {
	cases := map[string]string{
		"acme/overheat": "acme",
		"acme/sub/x":    "acme",
		"overheat":      "default",
		"/weird":        "default",
		"":              "default",
	}
	for id, want := range cases {
		if got := TenantOf(id); got != want {
			t.Errorf("TenantOf(%q) = %q, want %q", id, got, want)
		}
	}
}

// The governor's token buckets run on an injectable clock, so quota
// behaviour is fully deterministic: a tenant at its registration rate
// is rejected until simulated time refills the bucket, and MaxQueries
// slots free on release.
func TestGovernorDeterministicQuota(t *testing.T) {
	now := int64(0)
	g := newGovernor(TenantQuota{MaxQueries: 2, RegRate: 1, RegBurst: 1}, telemetry.NewRegistry(), nil)
	g.nowFn = func() int64 { return now }

	if err := g.admitRegister("acme"); err != nil {
		t.Fatalf("first registration rejected: %v", err)
	}
	// Bucket empty (burst 1): immediate second registration is rejected.
	if err := g.admitRegister("acme"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("rate-limited registration = %v, want ErrTenantQuota", err)
	}
	// One simulated second refills one token.
	now += 1e9
	if err := g.admitRegister("acme"); err != nil {
		t.Fatalf("registration after refill rejected: %v", err)
	}
	// MaxQueries=2 now binds regardless of the bucket.
	now += 10e9
	if err := g.admitRegister("acme"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-MaxQueries registration = %v, want ErrTenantQuota", err)
	}
	// Other tenants are unaffected.
	if err := g.admitRegister("globex"); err != nil {
		t.Fatalf("co-tenant punished for acme's quota: %v", err)
	}
	g.releaseQuery("acme")
	if err := g.admitRegister("acme"); err != nil {
		t.Fatalf("registration after release rejected: %v", err)
	}

	// Ingest quota is independent and charged per tuple.
	gi := newGovernor(TenantQuota{IngestRate: 2, IngestBurst: 2}, telemetry.NewRegistry(), nil)
	gi.nowFn = func() int64 { return now }
	if err := gi.admitIngest("acme"); err != nil {
		t.Fatal(err)
	}
	if err := gi.admitIngest("acme"); err != nil {
		t.Fatal(err)
	}
	if err := gi.admitIngest("acme"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("ingest beyond burst = %v, want ErrTenantQuota", err)
	}
	now += 1e9 // refills 2 tokens at rate 2/s
	if err := gi.admitIngest("acme"); err != nil {
		t.Fatalf("ingest after refill rejected: %v", err)
	}
}

// Both governance rejections are transient conditions (quotas refill,
// queries unregister), so RetryBusy must treat them like ErrGatewayBusy.
func TestRetryBusyRetriesGovernanceErrors(t *testing.T) {
	for _, typed := range []error{ErrTenantQuota, ErrOverBudget} {
		calls := 0
		err := RetryBusy(context.Background(), 5, time.Microsecond, func() error {
			calls++
			if calls < 3 {
				return fmt.Errorf("register: %w", typed)
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Errorf("%v: err=%v calls=%d, want nil after 3", typed, err, calls)
		}
	}
}

// NodeMemBudget bounds the admitted budget per node: once every live
// node is at capacity, registration fails with the typed retryable
// ErrOverBudget, and unregistering restores headroom. Budgets ride the
// query record, so placement sees them after failover too.
func TestNodeMemBudgetPlacement(t *testing.T) {
	c := newCluster(t, 2, Options{NodeMemBudget: 1 << 20})
	const query = "SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m"
	var n int64
	for i := 0; i < 2; i++ {
		if _, err := c.RegisterWith(fmt.Sprintf("big%d", i), sql.MustParse(query), nil, countSink(&n),
			RegisterOptions{Budget: 1 << 20}); err != nil {
			t.Fatalf("register big%d: %v", i, err)
		}
	}
	_, err := c.RegisterWith("big2", sql.MustParse(query), nil, countSink(&n), RegisterOptions{Budget: 1})
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("register beyond node budgets = %v, want ErrOverBudget", err)
	}
	if snap := c.TelemetrySnapshot(); snap.Counters["governance.rejected_budget"] != 1 {
		t.Errorf("governance.rejected_budget = %d, want 1", snap.Counters["governance.rejected_budget"])
	}
	// Unbudgeted queries are exempt from placement budgeting.
	if _, err := c.Register("small", sql.MustParse(query), nil, countSink(&n)); err != nil {
		t.Fatalf("unbudgeted register: %v", err)
	}
	if err := c.Unregister("big0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterWith("big2", sql.MustParse(query), nil, countSink(&n),
		RegisterOptions{Budget: 1 << 20}); err != nil {
		t.Fatalf("register after headroom freed: %v", err)
	}
}

// IngestTenant charges the named tenant's ingest bucket and rejects
// with the typed error once it is dry; plain Ingest stays uncharged.
func TestIngestTenantQuota(t *testing.T) {
	c := newCluster(t, 1, Options{TenantQuota: TenantQuota{IngestRate: 0.001, IngestBurst: 2}})
	var n int64
	if _, err := c.Register("acme/q", sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m"), nil, countSink(&n)); err != nil {
		t.Fatal(err)
	}
	el := func(i int64) stream.Timestamped {
		return stream.Timestamped{TS: i * 100, Row: relation.Tuple{
			relation.Int(1), relation.Time(i * 100), relation.Float(1),
		}}
	}
	ctx := context.Background()
	if err := c.IngestTenant(ctx, "acme", "msmt", el(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestTenant(ctx, "acme", "msmt", el(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestTenant(ctx, "acme", "msmt", el(2)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("ingest beyond burst = %v, want ErrTenantQuota", err)
	}
	if err := c.Ingest("msmt", el(3)); err != nil {
		t.Fatalf("uncharged Ingest rejected: %v", err)
	}
	if snap := c.TelemetrySnapshot(); snap.Counters["governance.ingest_rejected"] != 1 {
		t.Errorf("governance.ingest_rejected = %d, want 1", snap.Counters["governance.ingest_rejected"])
	}
}

// A producer blocked on a full inbox must unblock promptly when its
// context is cancelled, and a push with an already-dead context must
// not enqueue even when there is space (the regression: the old loop
// only noticed cancellation while parked on the space channel).
func TestInboxPushHonorsContextCancel(t *testing.T) {
	q := newInbox(1)
	if err := q.push(context.Background(), work{stream: "s"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- q.push(ctx, work{stream: "s"})
	}()
	select {
	case err := <-done:
		t.Fatalf("push on a full inbox returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled push = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled push still blocked after 2s")
	}
	if q.length() != 1 {
		t.Fatalf("inbox length = %d after cancelled push, want 1", q.length())
	}

	// Already-cancelled context, space available: refuse without enqueueing.
	q.pop()
	dead, dcancel := context.WithCancel(context.Background())
	dcancel()
	if err := q.push(dead, work{stream: "s"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("push with dead context = %v, want context.Canceled", err)
	}
	if q.length() != 0 {
		t.Fatalf("dead-context push enqueued (length %d)", q.length())
	}
}

// Cold-start restore with BOTH retained checkpoint blobs torn: the
// store has nothing decodable, so the rebuild must fall back to an
// empty cut and re-feed the entire replay log — the delivered window
// sets still match a fault-free run exactly.
func TestRecoveryChaosColdStartBothTorn(t *testing.T) {
	baseline, _, _ := runRecoveryDiagnostics(t, 8, nil, nil, exastream.Options{})

	inj := faults.New(11).
		TearCheckpointAt(0, 1).
		TearCheckpointAt(0, 2).
		PanicAt(0, 30)
	faulted, deliveries, c := runRecoveryDiagnostics(t, 8, inj, nil, exastream.Options{})

	if got := inj.Injected(faults.KindTornCheckpoint); got != 2 {
		t.Fatalf("injected %d torn checkpoints, want 2", got)
	}
	if got := inj.Injected(faults.KindPanic); got != 1 {
		t.Fatalf("injected %d panics, want 1", got)
	}
	snap := c.TelemetrySnapshot()
	// Two torn saves plus the fallback read at restore time: the count
	// of 3 is what proves the restore found nothing decodable (a good
	// checkpoint would have kept it at 2).
	if got := snap.Counters["recovery.torn"]; got != 3 {
		t.Errorf("recovery.torn = %d, want 3 (2 torn saves + 1 cold-start fallback)", got)
	}
	if got := snap.Counters["recovery.replayed"]; got < 1 {
		t.Errorf("recovery.replayed = %d, want >= 1 (full-log replay)", got)
	}
	for q, ends := range deliveries {
		for end, n := range ends {
			if n > 1 {
				t.Errorf("query %s window %d delivered %d times", q, end, n)
			}
		}
	}
	if !reflect.DeepEqual(baseline, faulted) {
		for q, want := range baseline {
			if got := faulted[q]; !reflect.DeepEqual(want, got) {
				t.Errorf("query %s diverged after both-torn cold start:\n  baseline: %v\n  faulted:  %v", q, want, got)
			}
		}
	}
}

// TestGovernanceChaos is the acceptance scenario for resource
// governance: with injected memory pressure driving one tenant's query
// permanently over its budget and another tenant's quota exhausted at
// the gateway, the over-budget query degrades per policy (never
// panics, never OOMs), every rejection surfaces as a typed retryable
// error, and the fault-free tenant's delivered window set is
// byte-identical to a fault-free run. Runs under -race in CI.
func TestGovernanceChaos(t *testing.T) {
	queries := []struct{ id, text string }{
		{"a/export", "SELECT m.sid, m.val FROM STREAM s0 [RANGE 1000 SLIDE 500] AS m"},
		{"a/avg", "SELECT m.sid, AVG(m.val) FROM STREAM s0 [RANGE 1000 SLIDE 1000] AS m GROUP BY m.sid"},
		{"b/hog", "SELECT m.sid, m.val FROM STREAM s1 [RANGE 10000 SLIDE 500] AS m"},
	}
	run := func(inj FaultInjector) (map[string]map[int64][]string, *Cluster) {
		t.Helper()
		cat := sharedCatalog(t)
		c, err := New(Options{
			Nodes: 2, Placement: PlaceRoundRobin, Faults: inj,
			TenantQuota: TenantQuota{MaxQueries: 8},
		}, func(int) *relation.Catalog { return cat })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Gateway().Close()
			c.Close()
		})
		for _, s := range []string{"s0", "s1"} {
			if err := c.DeclareStream(eventSchema(s)); err != nil {
				t.Fatal(err)
			}
		}
		log := newResultLog()
		for _, q := range queries {
			budget := int64(0)
			if q.id == "b/hog" {
				budget = 4096
			}
			if _, err := c.RegisterWith(q.id, sql.MustParse(q.text), nil, log.sink(),
				RegisterOptions{Budget: budget}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < 80; i++ {
					ts := int64(i) * 100
					el := stream.Timestamped{TS: ts, Row: relation.Tuple{
						relation.Int(int64(i%5 + 1)), relation.Time(ts), relation.Float(float64((i*7 + s*13) % 100)),
					}}
					if err := c.Ingest(fmt.Sprintf("s%d", s), el); err != nil {
						t.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return log.snapshot(), c
	}

	baseline, _ := run(nil)
	for _, tenant := range []string{"a/export", "a/avg"} {
		if len(baseline[tenant]) == 0 {
			t.Fatalf("baseline delivered no windows for %s", tenant)
		}
	}

	inj := faults.New(5).
		PressureOn("b/hog", 1<<30).
		ExhaustTenant("c")
	faulted, c := run(inj)

	// The over-budget query degraded — batches shed, residual overage
	// counted — and the engine kept running: no panic, no node death.
	snap := c.TelemetrySnapshot()
	if snap.Counters["governance.shed_batches"] == 0 {
		t.Error("no batches shed from the over-budget query")
	}
	if snap.Counters["governance.overbudget"] == 0 {
		t.Error("residual (injected) overage not counted")
	}
	if h := c.Health(); h.Dead != 0 || h.Restarting != 0 {
		t.Fatalf("governance degraded into node failure: %+v", h)
	}
	// The degradation surfaced as the typed error in the error ring.
	foundTyped := false
	for _, ne := range c.Errors() {
		if errors.Is(ne.Err, exastream.ErrQueryOverBudget) {
			foundTyped = true
			if ne.QueryID != "b/hog" {
				t.Errorf("over-budget error attributed to %q, want b/hog", ne.QueryID)
			}
		}
	}
	if !foundTyped {
		t.Error("no ErrQueryOverBudget surfaced through the error ring")
	}

	// The exhausted tenant's registration fails through the gateway with
	// the typed retryable error; RetryBusy keeps retrying it, and after
	// the quota recovers the same submission is admitted.
	var n int64
	tk, err := c.Gateway().Submit("c/task", "SELECT m.val FROM STREAM s0 [RANGE 1000 SLIDE 1000] AS m", nil, countSink(&n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("exhausted tenant ticket = %v, want ErrTenantQuota", err)
	}
	attempts := 0
	err = RetryBusy(context.Background(), 3, time.Microsecond, func() error {
		attempts++
		if attempts == 2 {
			inj.RestoreTenant("c")
		}
		tk, serr := c.Gateway().Submit(fmt.Sprintf("c/task%d", attempts), "SELECT m.val FROM STREAM s0 [RANGE 1000 SLIDE 1000] AS m", nil, countSink(&n))
		if serr != nil {
			return serr
		}
		_, werr := tk.Wait()
		return werr
	})
	if err != nil || attempts != 2 {
		t.Fatalf("RetryBusy over quota exhaustion: err=%v attempts=%d, want admitted on attempt 2", err, attempts)
	}

	// Co-tenant isolation: tenant a's window sets are byte-identical to
	// the fault-free run despite tenant b degrading on the same cluster.
	for _, id := range []string{"a/export", "a/avg"} {
		if !reflect.DeepEqual(baseline[id], faulted[id]) {
			t.Errorf("fault-free tenant query %s diverged under co-tenant governance:\n  baseline: %v\n  faulted:  %v",
				id, baseline[id], faulted[id])
		}
	}
	// The governed tenant is strictly degraded: unbounded injected
	// pressure means every open window is shed before it can complete,
	// so it delivers less than the fault-free run (here: nothing) —
	// the overload is absorbed by shedding, never by crashing.
	if len(faulted["b/hog"]) >= len(baseline["b/hog"]) {
		t.Errorf("over-budget query delivered %d windows vs %d fault-free; shed policy did not degrade it",
			len(faulted["b/hog"]), len(baseline["b/hog"]))
	}
}
