package exastream

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

const overlapQuery = "SELECT m.sid, m.val FROM STREAM msmt [RANGE 10000 SLIDE 1000] AS m"

// With a tiny budget and the default shed policy, an over-budget query
// loses its oldest open windows — and nothing else: no error escapes,
// no panic, the engine keeps executing.
func TestGovernanceShedPolicy(t *testing.T) {
	baseline := func() int {
		e := testRig(t, Options{})
		var c collector
		if err := e.Register("big", sql.MustParse(overlapQuery), nil, c.sink); err != nil {
			t.Fatal(err)
		}
		feed(t, e, 60, 100)
		return len(c.results)
	}()

	e := testRig(t, Options{})
	var c collector
	if err := e.Register("big", sql.MustParse(overlapQuery), nil, c.sink); err != nil {
		t.Fatal(err)
	}
	if err := e.SetQueryBudget("big", 2048); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 60, 100)

	snap := e.Telemetry().Snapshot()
	if snap.Counters["governance.shed_batches"] == 0 {
		t.Error("no batches shed despite a 2 KiB budget on a 10-window overlap")
	}
	if snap.Counters["governance.shed_bytes"] == 0 {
		t.Error("shed_bytes not counted")
	}
	if got := len(c.results); got == 0 || got >= baseline {
		t.Errorf("shed run delivered %d windows, want 0 < n < baseline %d", got, baseline)
	}
	if len(e.SuspendedQueries()) != 0 {
		t.Error("shed policy suspended the query")
	}
}

// Injected pressure (Options.Pressure) stands in for real growth, as
// the chaos test does: it counts toward the query's usage, so the
// query sheds everything it owns, the overage shedding cannot reclaim
// is counted, and the episode reaches OnQueryError once as
// ErrQueryOverBudget, while an unbudgeted query on the same engine
// keeps its full output. Governance never suspends: shedding is the
// only degrade policy, so the query stays registered and running.
func TestGovernanceSuspendPolicyAndPressure(t *testing.T) {
	var mu sync.Mutex
	hookErrs := map[string][]error{}
	e := testRig(t, Options{
		Pressure: func(id string) int64 {
			if id == "big" {
				return 1 << 30
			}
			return 0
		},
		OnQueryError: func(id string, err error) {
			mu.Lock()
			hookErrs[id] = append(hookErrs[id], err)
			mu.Unlock()
		},
	})
	var big, small collector
	if err := e.Register("big", sql.MustParse(overlapQuery), nil, big.sink); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("small", sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m"), nil, small.sink); err != nil {
		t.Fatal(err)
	}
	if err := e.SetQueryBudget("big", 1<<20); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 60, 100)
	if len(big.results) != 0 {
		t.Errorf("pressured query delivered %d windows, want every window shed", len(big.results))
	}
	if small.totalRows() == 0 {
		t.Error("unbudgeted query starved by co-tenant shedding")
	}
	snap := e.Telemetry().Snapshot()
	if snap.Counters["governance.overbudget"] == 0 {
		t.Error("pressure the shed pass cannot reclaim was not counted")
	}
	mu.Lock()
	errs := hookErrs["big"]
	mu.Unlock()
	if len(errs) != 1 || !errors.Is(errs[0], ErrQueryOverBudget) {
		t.Errorf("hook errors = %v, want one ErrQueryOverBudget", errs)
	}
	if len(e.SuspendedQueries()) != 0 {
		t.Error("pressure suspended the query")
	}
}

// Shared window operators are never shed: a budgeted query that only
// co-tenants shared state cannot reclaim anything, so the overage is
// counted instead — and the co-tenant's output stays intact.
func TestGovernanceSharedWindowsNotShed(t *testing.T) {
	e := testRig(t, Options{Pressure: func(id string) int64 {
		if id == "greedy" {
			return 1 << 30
		}
		return 0
	}})
	var greedy, tenant collector
	// Same stream, same spec: one shared windowing pass for both.
	if err := e.Register("greedy", sql.MustParse(overlapQuery), nil, greedy.sink); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("tenant", sql.MustParse(overlapQuery), nil, tenant.sink); err != nil {
		t.Fatal(err)
	}
	if err := e.SetQueryBudget("greedy", 1); err != nil {
		t.Fatal(err)
	}
	feed(t, e, 60, 100)
	snap := e.Telemetry().Snapshot()
	if snap.Counters["governance.overbudget"] == 0 {
		t.Error("residual overage not counted")
	}
	if snap.Counters["governance.shed_batches"] != 0 {
		t.Error("shared window state was shed")
	}
	if len(tenant.results) == 0 || len(tenant.results) != len(greedy.results) {
		t.Errorf("co-tenant delivered %d windows vs greedy %d; shared pass must serve both fully",
			len(tenant.results), len(greedy.results))
	}
}

// Options.MemBudget is the default budget for every registration.
func TestGovernanceDefaultBudget(t *testing.T) {
	e := testRig(t, Options{MemBudget: 4096})
	if err := e.Register("q", sql.MustParse(overlapQuery), nil, nil); err != nil {
		t.Fatal(err)
	}
	budget, err := e.QueryBudget("q")
	if err != nil || budget != 4096 {
		t.Errorf("QueryBudget = %d (%v), want 4096", budget, err)
	}
}

// TestStagedBytesReleaseWhatWasCharged pins the staging charge: a
// multi-ref query's staged bytes equal the Bytes of the batches it has
// staged after every window, and return to exactly zero once its
// windows complete, even when another query read a staged shared
// batch's columns in between. An estimate that moved between charge
// and release would drift the total, hiding real usage from the budget.
func TestStagedBytesReleaseWhatWasCharged(t *testing.T) {
	e := testRig(t, Options{})
	if err := e.DeclareStream(stream.Schema{
		Name: "msmt2",
		Tuple: relation.NewSchema(
			relation.Col("sid", relation.TInt),
			relation.Col("ts", relation.TTime),
			relation.Col("val", relation.TFloat),
		),
		TSCol: "ts",
	}); err != nil {
		t.Fatal(err)
	}
	var c collector
	// p reads msmt alone and takes each shared msmt batch's columns the
	// tick it is emitted; q stages that same batch until msmt2's window
	// closes.
	if err := e.Register("p", sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m"), nil, c.sink); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("q", sql.MustParse(`SELECT a.sid, b.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS a,
		msmt2 [RANGE 1000 SLIDE 1000] AS b WHERE a.sid = b.sid`), nil, c.sink); err != nil {
		t.Fatal(err)
	}
	row := func(ts int64) stream.Timestamped {
		return stream.Timestamped{TS: ts, Row: relation.Tuple{relation.Int(ts%3 + 1), relation.Time(ts), relation.Float(float64(ts % 70))}}
	}
	cq := e.queries["q"]
	staging := 0 // checks that saw a staged window
	check := func(after string) {
		t.Helper()
		cq.mu.Lock()
		staged, pending := cq.stagedBytes, len(cq.pending)
		var want int64
		for _, m := range cq.pending {
			for _, b := range m {
				want += b.Bytes()
			}
		}
		cq.mu.Unlock()
		if staged != want {
			t.Fatalf("after %s: stagedBytes = %d, want %d for %d staged windows", after, staged, want, pending)
		}
		if pending > 0 {
			staging++
		}
	}
	for win := int64(0); win < 4; win++ {
		for _, name := range []string{"msmt", "msmt2"} {
			for ts := win * 1000; ts < (win+1)*1000; ts += 100 {
				if err := e.Ingest(name, row(ts)); err != nil {
					t.Fatal(err)
				}
			}
			check(fmt.Sprintf("window %d of %s", win, name))
		}
	}
	if staging == 0 {
		t.Fatal("q never held a staged window: the check is vacuous")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	qWindows := 0
	for _, r := range c.results {
		if r.qid == "q" {
			qWindows++
		}
	}
	if qWindows == 0 {
		t.Fatal("q never completed a window: the check is vacuous")
	}
}
