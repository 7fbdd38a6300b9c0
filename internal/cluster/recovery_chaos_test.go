package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/exastream"
	"repro/internal/faults"
	"repro/internal/recovery"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// recoveryQueries mixes tumbling and overlapping (SLIDE < RANGE)
// windows so replay after a crash regenerates window ends at two
// different cadences — the emit gate must deduplicate both.
func recoveryQueries() []struct{ id, text string } {
	return []struct{ id, text string }{
		{"avg-temp", "SELECT m.sid, AVG(m.val) FROM STREAM s0 [RANGE 1000 SLIDE 1000] AS m GROUP BY m.sid"},
		{"overheat", "SELECT m.sid, m.val FROM STREAM s1 [RANGE 1000 SLIDE 500] AS m WHERE m.val > 30"},
		{"vibration-max", "SELECT MAX(m.val) FROM STREAM s2 [RANGE 1000 SLIDE 1000] AS m"},
		{"raw-export", "SELECT m.sid, m.val FROM STREAM s3 [RANGE 1000 SLIDE 500] AS m"},
	}
}

// runRecoveryDiagnostics drives the 4-node diagnostic scenario with
// recovery configured (checkpointEvery 0 = recovery off). It returns
// the canonical results, a per-(query, windowEnd) delivery count for
// duplicate detection, and the cluster for post-mortem assertions.
func runRecoveryDiagnostics(t *testing.T, checkpointEvery int, inj FaultInjector, beforeFlush func(*Cluster), eng exastream.Options) (map[string]map[int64][]string, map[string]map[int64]int, *Cluster) {
	t.Helper()
	cat := sharedCatalog(t)
	c, err := New(Options{
		Nodes: 4, Placement: PlaceRoundRobin, MaxRestarts: 1, Faults: inj,
		CheckpointEvery: checkpointEvery,
		Engine:          eng,
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
	var dmu sync.Mutex
	deliveries := make(map[string]map[int64]int)
	counted := func(inner exastream.Sink) exastream.Sink {
		return func(q string, end int64, sch relation.Schema, cb *relation.ColBatch) {
			dmu.Lock()
			m := deliveries[q]
			if m == nil {
				m = make(map[int64]int)
				deliveries[q] = m
			}
			m[end]++
			dmu.Unlock()
			inner(q, end, sch, cb)
		}
	}
	for i, q := range recoveryQueries() {
		node, err := c.Register(q.id, sql.MustParse(q.text), nil, counted(log.sink()))
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
	}
	if beforeFlush != nil {
		beforeFlush(c)
	}
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return log.snapshot(), deliveries, c
}

// TestRecoveryChaosExactlyOnceAcrossFailover is the acceptance scenario
// for pulse-aligned checkpoint/restore: with crash-during-checkpoint,
// torn-checkpoint, crash-after-emit-before-ack, and two worker panics
// (the second exhausting the restart budget and forcing a failover) all
// injected into one run, the flushed window set of every query must be
// identical to a fault-free run — no window lost, none delivered twice.
func TestRecoveryChaosExactlyOnceAcrossFailover(t *testing.T) {
	plain, _, _ := runRecoveryDiagnostics(t, 0, nil, nil, exastream.Options{})
	if len(plain) != 4 {
		t.Fatalf("recovery-off baseline produced results for %d queries, want 4", len(plain))
	}

	// Fault-free with recovery on: checkpoints and the emit gate must be
	// invisible when nothing crashes.
	baseline, _, _ := runRecoveryDiagnostics(t, 8, nil, nil, exastream.Options{})
	if !reflect.DeepEqual(plain, baseline) {
		for q, want := range plain {
			if got := baseline[q]; !reflect.DeepEqual(want, got) {
				t.Errorf("query %s diverged with recovery enabled (fault-free):\n  off: %v\n  on:  %v", q, want, got)
			}
		}
	}

	// The chaos run. Round-robin hosting: avg-temp on 0, overheat on 1,
	// vibration-max on 2, raw-export on 3.
	//  - node 3 panics twice: the first crash restarts (restore + replay,
	//    no checkpoint exists yet), the second exhausts MaxRestarts=1 and
	//    fails raw-export over to a survivor with checkpoint + feed.
	//  - node 2 crashes during its first checkpoint attempt: the state
	//    was exported but never committed, so the rebuild replays the
	//    whole retained log.
	//  - node 1's first checkpoint is torn mid-write (commit fails
	//    verification, log kept), and it crashes right after delivering
	//    overheat's third window — the duplicate the replay regenerates
	//    must be suppressed by the gate's high-water mark.
	inj := faults.New(7).
		PanicAt(3, 5).PanicAt(3, 20).
		CrashAtCheckpoint(2, 1).
		TearCheckpointAt(1, 1).
		CrashAfterEmit("overheat", 3)
	faulted, deliveries, c := runRecoveryDiagnostics(t, 8, inj, func(c *Cluster) {
		waitFor(t, 10*time.Second, func() bool {
			return c.Health().Dead == 1
		}, "failover of node 3")
	}, exastream.Options{})

	if got := inj.Injected(faults.KindPanic); got != 2 {
		t.Errorf("injected %d worker panics, want 2", got)
	}
	if got := inj.Injected(faults.KindCrashCheckpoint); got != 1 {
		t.Errorf("injected %d checkpoint crashes, want 1", got)
	}
	if got := inj.Injected(faults.KindTornCheckpoint); got != 1 {
		t.Errorf("injected %d torn checkpoints, want 1", got)
	}
	if got := inj.Injected(faults.KindCrashEmit); got != 1 {
		t.Errorf("injected %d post-emit crashes, want 1", got)
	}

	h := c.Health()
	if h.Dead != 1 || h.Live != 3 {
		t.Fatalf("health = %+v, want 1 dead / 3 live", h)
	}
	if h.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", h.Failovers)
	}
	if h.Dropped != 0 {
		t.Errorf("dropped %d tuples, want 0 (salvage + replay must cover every crash)", h.Dropped)
	}
	for _, q := range recoveryQueries() {
		node, ok := c.QueryNode(q.id)
		if !ok {
			t.Fatalf("query %s lost", q.id)
		}
		if node == 3 {
			t.Errorf("query %s still hosted on the dead node", q.id)
		}
	}

	// Exactly-once: no (query, windowEnd) delivered more than once, and
	// the full result sets match the fault-free run.
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
				t.Errorf("query %s diverged under chaos:\n  baseline: %v\n  faulted:  %v", q, want, got)
			}
		}
	}

	snap := c.TelemetrySnapshot()
	if got := snap.Counters["recovery.checkpoints"]; got < 1 {
		t.Errorf("recovery.checkpoints = %d, want >= 1", got)
	}
	if got := snap.Counters["recovery.torn"]; got != 1 {
		t.Errorf("recovery.torn = %d, want 1", got)
	}
	if got := snap.Counters["recovery.restores"]; got < 2 {
		t.Errorf("recovery.restores = %d, want >= 2 (two rebuilds and one failover)", got)
	}
	if got := snap.Counters["recovery.replayed"]; got < 1 {
		t.Errorf("recovery.replayed = %d, want >= 1", got)
	}
	if got := snap.Counters["recovery.deduped_windows"]; got < 1 {
		t.Errorf("recovery.deduped_windows = %d, want >= 1 (the re-emitted windows must be suppressed)", got)
	}
}

// recoveryChaosInjector builds a fresh copy of the acceptance
// scenario's fault schedule (injectors are stateful, so runs that
// should see identical faults each need their own instance).
func recoveryChaosInjector() FaultInjector {
	return faults.New(7).
		PanicAt(3, 5).PanicAt(3, 20).
		CrashAtCheckpoint(2, 1).
		TearCheckpointAt(1, 1).
		CrashAfterEmit("overheat", 3)
}

// TestRecoveryChaosVectorizedSnapshotParity extends the failover
// acceptance scenario to columnar windows: the chaos schedule must
// deliver the fault-free run's window sets, and a checkpoint's
// window-operator batches (the open windows a restore resumes) must
// survive an encode/decode round trip with identical rows and
// serialized form — the columnar transpose a window materializes is
// runtime-only state (an unexported cell gob skips, pinned by
// TestBatchGobSkipsColumnarCell in internal/stream) and must never
// change what a restore rebuilds.
func TestRecoveryChaosVectorizedSnapshotParity(t *testing.T) {
	waitDead := func(c *Cluster) {
		waitFor(t, 10*time.Second, func() bool {
			return c.Health().Dead == 1
		}, "failover of node 3")
	}
	baseline, _, _ := runRecoveryDiagnostics(t, 8, nil, nil, exastream.Options{})
	chaos, _, c := runRecoveryDiagnostics(t, 8, recoveryChaosInjector(), waitDead, exastream.Options{})

	// Content identity across the crash.
	if !reflect.DeepEqual(baseline, chaos) {
		t.Error("chaos run diverged from the fault-free run")
	}

	// Restore identity: an encode/decode round trip of a node's
	// checkpoint must rebuild every open window batch with identical
	// rows and bounds, and the decoded checkpoint must re-encode to the
	// same bytes.
	roundTripped := 0
	for node := 0; node < 4; node++ {
		ck := c.rec.Latest(node)
		if ck == nil {
			continue
		}
		blob, err := recovery.Encode(ck)
		if err != nil {
			t.Fatal(err)
		}
		back, err := recovery.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := recovery.Encode(back); !bytes.Equal(again, blob) {
			t.Errorf("node %d: decoded checkpoint re-encodes differently", node)
		}
		for wi, ws := range ck.Engine.Windows {
			got := back.Engine.Windows[wi]
			if !reflect.DeepEqual(ws.Rows, got.Rows) {
				t.Errorf("node %d operator %d: restored rows differ", node, wi)
			}
			if !reflect.DeepEqual(ws.Open, got.Open) {
				t.Errorf("node %d operator %d: restored open windows differ: %+v, want %+v", node, wi, got.Open, ws.Open)
			}
			for _, o := range ws.Open {
				if o.Offset < len(ws.Rows) {
					roundTripped++
				}
			}
		}
	}
	if roundTripped == 0 {
		t.Fatal("no checkpoint carried an open window with rows; the round trip exercised nothing")
	}
}

// TestCheckpointCadenceYieldsToNearCapLog pins the near-capacity cut:
// with a checkpoint cadence (100 tuples) longer than the replay log
// (64 entries), the log must still force a checkpoint before it sheds
// a tuple no checkpoint covers. A crash after the log would have
// overflowed then restores with full coverage and exactly the fault-free
// window set.
func TestCheckpointCadenceYieldsToNearCapLog(t *testing.T) {
	const tuples = 150
	run := func(inj FaultInjector) (map[string]map[int64][]string, *Cluster) {
		c := newCluster(t, 1, Options{
			CheckpointEvery: 100, ReplayLogCap: 64, MaxRestarts: 1, Faults: inj,
		})
		log := newResultLog()
		q := sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
		if _, err := c.Register("export", q, nil, log.sink()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tuples; i++ {
			ts := int64(i) * 100
			el := stream.Timestamped{TS: ts, Row: relation.Tuple{
				relation.Int(int64(i%5 + 1)), relation.Time(ts), relation.Float(float64(i % 100)),
			}}
			if err := c.Ingest("msmt", el); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitSettled(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return log.snapshot(), c
	}
	want, _ := run(nil)
	// The 90th tuple crashes the worker: 89 tuples in, more than the log
	// holds, and fewer than one checkpoint period.
	inj := faults.New(1).PanicAt(0, 90)
	got, c := run(inj)
	if n := inj.Injected(faults.KindPanic); n != 1 {
		t.Fatalf("injected %d worker panics, want 1", n)
	}
	snap := c.TelemetrySnapshot()
	if n := snap.Counters["recovery.restores"]; n < 1 {
		t.Fatalf("recovery.restores = %d, want >= 1 (the crash was never restored)", n)
	}
	if n := snap.Counters["recovery.lost_coverage"]; n != 0 {
		t.Errorf("recovery.lost_coverage = %d, want 0 (the log shed tuples no checkpoint covered)", n)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("windows after the crash diverged from the fault-free run:\n  want %v\n  got  %v", want, got)
	}
}

// TestDelayedParallelPoolPreservesWindowOrder is the satellite ordering
// regression: with DelayEvery skewing worker timing and the engine's
// parallel ready-window pool enabled, every query's sink must still see
// its window ends in strictly increasing order, with results identical
// to a sequential fault-free run.
func TestDelayedParallelPoolPreservesWindowOrder(t *testing.T) {
	queries := []struct{ id, text string }{
		{"export-a", "SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m"},
		{"max-a", "SELECT MAX(m.val) FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m"},
		{"export-b", "SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m WHERE m.sid < 5"},
		{"avg-b", "SELECT m.sid, AVG(m.val) FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m GROUP BY m.sid"},
	}
	run := func(parallelism int, inj FaultInjector) (map[string][]int64, map[string]map[int64][]string) {
		t.Helper()
		c := newCluster(t, 2, Options{
			Placement: PlaceRoundRobin, Faults: inj,
			Engine: exastream.Options{Parallelism: parallelism},
		})
		log := newResultLog()
		var mu sync.Mutex
		order := make(map[string][]int64)
		ordered := func(inner exastream.Sink) exastream.Sink {
			return func(q string, end int64, sch relation.Schema, cb *relation.ColBatch) {
				mu.Lock()
				order[q] = append(order[q], end)
				mu.Unlock()
				inner(q, end, sch, cb)
			}
		}
		for _, q := range queries {
			if _, err := c.Register(q.id, sql.MustParse(q.text), nil, ordered(log.sink())); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 120; i++ {
			ts := int64(i) * 50
			el := stream.Timestamped{TS: ts, Row: relation.Tuple{
				relation.Int(int64(i%10 + 1)), relation.Time(ts), relation.Float(float64(i % 37)),
			}}
			if err := c.Ingest("msmt", el); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return order, log.snapshot()
	}

	_, baseline := run(-1, nil) // negative parallelism = sequential execution
	inj := faults.New(3).
		DelayEvery(0, 3, 500*time.Microsecond).
		DelayEvery(1, 4, 300*time.Microsecond)
	order, results := run(8, inj)

	if inj.Injected(faults.KindDelay) == 0 {
		t.Fatal("no delays injected; the test exercised nothing")
	}
	for _, q := range queries {
		ends := order[q.id]
		if len(ends) == 0 {
			t.Fatalf("query %s emitted no windows", q.id)
		}
		for i := 1; i < len(ends); i++ {
			if ends[i] <= ends[i-1] {
				t.Errorf("query %s window ends out of order at %d: %v", q.id, i, ends)
				break
			}
		}
	}
	if !reflect.DeepEqual(baseline, results) {
		for q, want := range baseline {
			if got := results[q]; !reflect.DeepEqual(want, got) {
				t.Errorf("query %s diverged under delays+parallelism:\n  sequential: %v\n  parallel:   %v", q, want, got)
			}
		}
	}
}

// TestGatewaySubmitContextAndWaitContext pins the bounded-wait
// semantics: a wedged gateway worker makes the queue observable as
// full, Submit fails fast with ErrGatewayBusy, SubmitContext and
// WaitContext give up with ctx.Err(), and a ticket abandoned by
// WaitContext can still be waited on later.
func TestGatewaySubmitContextAndWaitContext(t *testing.T) {
	c := newCluster(t, 1, Options{GatewayQueue: 1})
	g := c.Gateway()
	started := make(chan struct{})
	release := make(chan struct{})
	wedged := errors.New("wedged registration")
	tkWedge, err := g.SubmitFunc("wedge", func() (int, error) {
		close(started)
		<-release
		return -1, wedged
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now parked inside the wedge; the queue is empty

	var n int64
	const query = "SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m"
	tk2, err := g.Submit("q2", query, nil, countSink(&n))
	if err != nil {
		t.Fatal(err) // queue had capacity 1
	}
	if _, err := g.Submit("q3", query, nil, countSink(&n)); !errors.Is(err, ErrGatewayBusy) {
		t.Fatalf("Submit on a full queue = %v, want ErrGatewayBusy", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer scancel()
	if _, err := g.SubmitContext(sctx, "q4", query, nil, countSink(&n)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitContext on a full queue = %v, want deadline exceeded", err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer wcancel()
	if _, err := tkWedge.WaitContext(wctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitContext on a pending ticket = %v, want deadline exceeded", err)
	}
	if tkWedge.Done() {
		t.Fatal("ticket done while its registration is still wedged")
	}

	close(release)
	if _, err := tkWedge.Wait(); !errors.Is(err, wedged) {
		t.Fatalf("Wait after abandoned WaitContext = %v, want the registration error", err)
	}
	if node, err := tk2.Wait(); err != nil || node != 0 {
		t.Fatalf("queued submission Wait = %d, %v; want node 0", node, err)
	}
	lctx, lcancel := context.WithTimeout(context.Background(), time.Second)
	defer lcancel()
	tk5, err := g.SubmitContext(lctx, "q5", query, nil, countSink(&n))
	if err != nil {
		t.Fatal(err)
	}
	if node, err := tk5.Wait(); err != nil || node != 0 {
		t.Fatalf("SubmitContext after drain Wait = %d, %v; want node 0", node, err)
	}
}

func TestRetryBusyBacksOffOnlyOnBusy(t *testing.T) {
	ctx := context.Background()
	calls := 0
	err := RetryBusy(ctx, 5, time.Microsecond, func() error {
		calls++
		if calls < 3 {
			return ErrGatewayBusy
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("transient busy: err=%v calls=%d, want nil after 3", err, calls)
	}

	calls = 0
	err = RetryBusy(ctx, 3, time.Microsecond, func() error {
		calls++
		return fmt.Errorf("submit: %w", ErrGatewayBusy)
	})
	if !errors.Is(err, ErrGatewayBusy) || calls != 3 {
		t.Fatalf("persistent busy: err=%v calls=%d, want wrapped busy after 3", err, calls)
	}

	boom := errors.New("boom")
	calls = 0
	if err := RetryBusy(ctx, 5, time.Microsecond, func() error { calls++; return boom }); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("non-busy error: err=%v calls=%d, want immediate return", err, calls)
	}

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	err = RetryBusy(cctx, 5, maxRetryBackoff, func() error { calls++; return ErrGatewayBusy })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("cancelled ctx: err=%v calls=%d, want ctx.Err after first attempt", err, calls)
	}
}

// runFailoverDurability drives a 2-node scenario where node 1's only
// query fails over to node 0 (the sole survivor — a deterministic
// target) and extra post-failover traffic then crashes node 0 once.
// mid runs between the main feed and the extra traffic.
func runFailoverDurability(t *testing.T, inj FaultInjector, mid func(*Cluster)) (map[string]map[int64][]string, *Cluster) {
	t.Helper()
	cat := sharedCatalog(t)
	c, err := New(Options{
		Nodes: 2, Placement: PlaceRoundRobin, MaxRestarts: 1, Faults: inj,
		CheckpointEvery: 8,
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
	for i, q := range []struct{ id, text string }{
		{"q0", "SELECT m.sid, m.val FROM STREAM s0 [RANGE 1000 SLIDE 500] AS m"},
		{"q1", "SELECT m.sid, m.val FROM STREAM s1 [RANGE 1000 SLIDE 500] AS m"},
	} {
		node, err := c.Register(q.id, sql.MustParse(q.text), nil, log.sink())
		if err != nil {
			t.Fatal(err)
		}
		if node != i {
			t.Fatalf("query %s placed on node %d, want %d", q.id, node, i)
		}
	}
	feed := func(s string, from, to int) {
		for i := from; i < to; i++ {
			ts := int64(i) * 100
			el := stream.Timestamped{TS: ts, Row: relation.Tuple{
				relation.Int(int64(i%5 + 1)), relation.Time(ts), relation.Float(float64((i * 7) % 100)),
			}}
			if err := c.Ingest(s, el); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed("s0", 0, 50)
	feed("s1", 0, 50)
	if mid != nil {
		mid(c)
	}
	// Extra s0-only traffic: in the faulted run it drives node 0 past
	// its injected crash AFTER it absorbed the migration.
	feed("s0", 50, 60)
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return log.snapshot(), c
}

// TestRecoveryChaosFailoverMigrationDurableOnTarget is the regression
// for a durability hole in the failover protocol: the migrated replay
// feed (victim log + salvaged queue) exists nowhere the target can
// reach once consumed, so until the target commits a checkpoint, a
// crash there rebuilt from a pre-migration cut and silently lost the
// restored queries' open-window state (their flush-only windows
// vanished). runRestore now cuts a checkpoint the moment the migration
// is absorbed, making a post-failover target crash lossless.
func TestRecoveryChaosFailoverMigrationDurableOnTarget(t *testing.T) {
	baseline, _ := runFailoverDurability(t, nil, nil)
	if len(baseline["q1"]) == 0 {
		t.Fatal("baseline delivered no q1 windows")
	}

	// Node 1 panics twice (second exhausts MaxRestarts=1 → q1 fails over
	// to node 0); node 0 then panics on its 55th tuple — the extra s0
	// traffic — after the migration landed.
	inj := faults.New(3).PanicAt(1, 3).PanicAt(1, 6).PanicAt(0, 55)
	faulted, c := runFailoverDurability(t, inj, func(c *Cluster) {
		waitFor(t, 10*time.Second, func() bool {
			return c.Health().Dead == 1
		}, "failover of node 1")
		if err := c.WaitSettled(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The migration must already be durable on the target: node 0's
		// latest checkpoint carries q1's window state and an s1 cursor —
		// neither can come from node 0's own traffic (s1 never routed
		// through its queue).
		ck := c.rec.Latest(0)
		if ck == nil {
			t.Fatal("no checkpoint on the failover target after the migration settled")
		}
		if ck.State().Query("q1") == nil {
			t.Fatal("target checkpoint does not carry the migrated query's state")
		}
		if ck.Cursors["s1"] == 0 {
			t.Fatal("target checkpoint cursors do not cover the migrated feed's stream")
		}
	})

	if got := inj.Injected(faults.KindPanic); got != 3 {
		t.Errorf("injected %d panics, want 3", got)
	}
	if h := c.Health(); h.Dead != 1 || h.Failovers != 1 {
		t.Fatalf("health = %+v, want exactly one dead node and one failover", h)
	}
	if !reflect.DeepEqual(baseline, faulted) {
		for q, want := range baseline {
			if got := faulted[q]; !reflect.DeepEqual(want, got) {
				t.Errorf("query %s diverged after post-failover target crash:\n  baseline: %v\n  faulted:  %v", q, want, got)
			}
		}
	}
}

// sharedWindowQueries read one (stream, window): s0 over 1 s sliding by
// 500 ms.
var sharedWindowQueries = []struct{ id, text string }{
	{"all", "SELECT m.sid, m.val FROM STREAM s0 [RANGE 1000 SLIDE 500] AS m"},
	{"hot", "SELECT m.val FROM STREAM s0 [RANGE 1000 SLIDE 500] AS m WHERE m.val > 50"},
	{"avg", "SELECT m.sid, AVG(m.val) FROM STREAM s0 [RANGE 1000 SLIDE 500] AS m GROUP BY m.sid"},
	{"max", "SELECT MAX(m.val) FROM STREAM s0 [RANGE 1000 SLIDE 500] AS m"},
}

// runSharedOperators registers queries round-robin over nodes with
// checkpoint+log recovery, query i on node i mod nodes, and feeds s0
// and s1 for 60 rounds. settled, when set, is waited for before the
// flush (the crash the run injects has been handled). It returns the
// flushed windows and the cluster.
func runSharedOperators(t *testing.T, nodes int, queries []struct{ id, text string }, inj FaultInjector, settled func(Health) bool) (map[string]map[int64][]string, *Cluster) {
	t.Helper()
	cat := sharedCatalog(t)
	c, err := New(Options{
		Nodes: nodes, Placement: PlaceRoundRobin, MaxRestarts: 1, Faults: inj,
		CheckpointEvery: 8,
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
	for i, q := range queries {
		node, err := c.Register(q.id, sql.MustParse(q.text), nil, log.sink())
		if err != nil {
			t.Fatal(err)
		}
		if node != i%nodes {
			t.Fatalf("query %s placed on node %d, want %d", q.id, node, i%nodes)
		}
	}
	for i := 0; i < 60; i++ {
		ts := int64(i) * 100
		for _, s := range []string{"s0", "s1"} {
			el := stream.Timestamped{TS: ts, Row: relation.Tuple{
				relation.Int(int64(i%5 + 1)), relation.Time(ts), relation.Float(float64((i * 7) % 100)),
			}}
			if err := c.Ingest(s, el); err != nil {
				t.Fatal(err)
			}
		}
	}
	if settled != nil {
		waitFor(t, 10*time.Second, func() bool { return settled(c.Health()) }, "crash handled")
	}
	if err := c.WaitSettled(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return log.snapshot(), c
}

// engineOf returns a node's current engine, quiescent once the cluster
// has flushed.
func engineOf(c *Cluster, node int) *exastream.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[node].engine
}

// TestRestoreSharesOperatorsAfterRestart crashes a node whose four
// queries read one window operator. The restart restores that operator
// once, for all four: the node runs as many operators after the crash
// as before it, and replay builds exactly the windows it builds for a
// single query under the same crash — each logged tuple is pushed into
// the restored operator once, not once per query. The windows equal
// the fault-free run's.
func TestRestoreSharesOperatorsAfterRestart(t *testing.T) {
	crash := func() FaultInjector { return faults.New(5).PanicAt(0, 30) }
	restarted := func(h Health) bool { return h.Restarts == 1 }
	baseline, c := runSharedOperators(t, 1, sharedWindowQueries, nil, nil)
	before := len(engineOf(c, 0).ExportState().Windows)
	if before != 1 {
		t.Fatalf("fault-free node runs %d operators for one (stream, window)", before)
	}
	inj := crash()
	faulted, c := runSharedOperators(t, 1, sharedWindowQueries, inj, restarted)
	if got := inj.(*faults.Injector).Injected(faults.KindPanic); got != 1 {
		t.Fatalf("injected %d panics, want 1", got)
	}
	if c.rec.Latest(0) == nil {
		t.Fatal("no checkpoint: the restore had nothing to share")
	}
	eng := engineOf(c, 0)
	if after := len(eng.ExportState().Windows); after != before {
		t.Fatalf("after the restart the node runs %d operators, before it %d", after, before)
	}
	_, single := runSharedOperators(t, 1, sharedWindowQueries[:1], crash(), restarted)
	if got, want := eng.Stats().BatchesBuilt, engineOf(single, 0).Stats().BatchesBuilt; got != want {
		t.Fatalf("four readers built %d windows across the crash, one reader %d", got, want)
	}
	requireSameResults(t, baseline, faulted, "restart of a node with a shared operator")
}

// TestRestoreSharesOperatorsAfterFailover fails over a node whose two
// queries shared one window operator: on the survivor they share one
// restored operator again, and their windows equal the fault-free
// run's.
func TestRestoreSharesOperatorsAfterFailover(t *testing.T) {
	queries := []struct{ id, text string }{
		{"keep", "SELECT m.sid, m.val FROM STREAM s1 [RANGE 1000 SLIDE 500] AS m"},
		sharedWindowQueries[0],
		{"keep-max", "SELECT MAX(m.val) FROM STREAM s1 [RANGE 1000 SLIDE 500] AS m"},
		sharedWindowQueries[1],
	}
	baseline, _ := runSharedOperators(t, 2, queries, nil, nil)
	// Node 1 reads only s0: it restarts at its 10th tuple and dies at
	// its 25th, failing "all" and "hot" over to node 0.
	inj := faults.New(9).PanicAt(1, 10).PanicAt(1, 25)
	faulted, c := runSharedOperators(t, 2, queries, inj, func(h Health) bool { return h.Dead == 1 })
	if h := c.Health(); h.Failovers != 1 || h.Dead != 1 {
		t.Fatalf("health = %+v, want one failover", h)
	}
	st := engineOf(c, 0).ExportState()
	all, hot := st.Query("all"), st.Query("hot")
	if all == nil || hot == nil {
		t.Fatal("the failed-over queries are not on the survivor")
	}
	if all.Windows[0] != hot.Windows[0] {
		t.Fatalf("the failed-over readers of one operator read operators %d and %d", all.Windows[0], hot.Windows[0])
	}
	if len(st.Windows) != 2 {
		t.Fatalf("the survivor runs %d operators, want its own s1 operator and the restored s0 one", len(st.Windows))
	}
	requireSameResults(t, baseline, faulted, "failover of a shared operator")
}
