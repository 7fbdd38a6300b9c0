// EXPLAIN ANALYZE over a replayed fleet: the per-operator counters the
// introspection plane accumulates must reach the rendered output.
package optique_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exastream"
	"repro/internal/siemens"
	"repro/internal/starql"
)

// figure1Replay registers the Figure 1 task's unfolded stream fleet on
// one ExaStream engine and replays a deterministic 30 s of sensor data.
func figure1Replay(t *testing.T, opts exastream.Options) (*exastream.Engine, []string) {
	t.Helper()
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	tr := starql.NewTranslator(siemens.TBox(), siemens.Mappings(), cat)
	task, _ := siemens.TaskByID("T01_mon_temperature")
	q, err := starql.Parse(task.Query)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tr.Translate(q, starql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.EvalBindings(tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.StreamFleet) == 0 {
		t.Fatal("empty stream fleet")
	}
	e := exastream.NewEngine(cat, opts)
	for _, sc := range siemens.StreamSchemas() {
		if err := e.DeclareStream(sc); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for i, stmt := range tl.StreamFleet {
		id := fmt.Sprintf("f%04d", i)
		if err := e.Register(id, stmt, tl.Pulse, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	events := gen.PlantDefaultEvents(0, 30_000)
	tuples, routes, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: 30_000, StepMS: 500,
		Sensors: gen.SensorsOfTurbine(0), Events: events, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, el := range tuples {
		if err := e.Ingest(siemens.RouteName(routes[i]), el); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e, ids
}

// TestExplainAnalyzeRendersCounts replays Figure 1 and requires EXPLAIN
// ANALYZE to render the per-operator Calls/RowsOut the introspection
// plane accumulated, each next to the planner's estimate, and to mark
// the columnar subtrees. Row-path parity
// of those counters is the engine's differential (diffColumns in
// internal/engine).
func TestExplainAnalyzeRendersCounts(t *testing.T) {
	eng, ids := figure1Replay(t, exastream.Options{})

	// The rendered EXPLAIN ANALYZE must carry the observed counts, not
	// just hold them internally.
	var anyWindows bool
	for _, id := range ids {
		stats, windows, err := eng.QueryStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if windows == 0 {
			continue
		}
		anyWindows = true
		text, err := eng.ExplainQuery(id, true)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, fmt.Sprintf("windows=%d", windows)) {
			t.Errorf("%s: EXPLAIN ANALYZE missing windows=%d:\n%s", id, windows, text)
		}
		for k := engine.OpKind(0); k < engine.NumOpKinds; k++ {
			if stats.Ops[k].Calls == 0 {
				continue
			}
			want := regexp.MustCompile(fmt.Sprintf(`calls=%d est_rows=\d+ obs_rows=%d\b`, stats.Ops[k].Calls, stats.Ops[k].RowsOut))
			if !want.MatchString(text) {
				t.Errorf("%s: EXPLAIN ANALYZE missing %q for op %s:\n%s", id, want, k, text)
			}
		}
		if !strings.Contains(text, "[vectorized") {
			t.Errorf("%s: EXPLAIN lacks the [vectorized] marker:\n%s", id, text)
		}
	}
	if !anyWindows {
		t.Fatal("replay executed no windows; the check is vacuous")
	}

	// Plain EXPLAIN carries no stats.
	plain, err := eng.ExplainQuery(ids[0], false)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "calls=") {
		t.Errorf("plain EXPLAIN leaked analyze stats:\n%s", plain)
	}
	if !strings.Contains(plain, "-- sql:") {
		t.Errorf("plain EXPLAIN missing sql header:\n%s", plain)
	}
}
