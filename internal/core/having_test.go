package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/siemens"
)

// deployWith is deploy with an explicit Config (streams declared, small
// fleet).
func deployWith(t *testing.T, cfg Config) (*System, *siemens.Generator) {
	t.Helper()
	gen, err := siemens.New(siemens.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, siemens.TBox(), siemens.Mappings(), cat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	for _, sc := range siemens.StreamSchemas() {
		if err := sys.DeclareStream(sc); err != nil {
			t.Fatal(err)
		}
	}
	return sys, gen
}

func sortedAlerts(log *answerLog) []string {
	log.mu.Lock()
	defer log.mu.Unlock()
	out := make([]string, 0, len(log.triples))
	for _, tr := range log.triples {
		out = append(out, tr.S.Value+" "+tr.P.Value+" "+tr.O.Value)
	}
	sort.Strings(out)
	return out
}

// TestCompiledHavingAlertParity replays the Figure 1 workload through
// two registrations of the monotonic-increase task that reach the
// compiled matcher by different routes: one calls the MONOTONIC.HAVING
// aggregate macro, the other spells the macro body out inline. Both must
// compile once and raise the identical, non-empty alert set. Parity of
// the compiled matcher with the reference interpreter is the starql
// differential (TestCompiledHavingMatchesInterpreter).
func TestCompiledHavingAlertParity(t *testing.T) {
	const (
		macroCall = "MONOTONIC.HAVING(?s, sie:hasValue)"
		inlined   = "EXISTS ?k IN SEQ: GRAPH ?k { ?s sie:showsFailure } AND " +
			"FORALL ?i < ?j IN seq, ?x, ?y: " +
			"IF ( ?i, ?j < ?k AND GRAPH ?i {?s sie:hasValue ?x} AND GRAPH ?j {?s sie:hasValue ?y}) THEN ?x<=?y"
	)
	spec, ok := siemens.TaskByID("T01_mon_temperature")
	if !ok {
		t.Fatal("catalog task missing")
	}
	if !strings.Contains(spec.Query, "HAVING "+macroCall) {
		t.Fatalf("catalog query no longer calls %s:\n%s", macroCall, spec.Query)
	}
	sys, gen := deployWith(t, Config{Nodes: 1})
	macroLog, inlineLog := &answerLog{}, &answerLog{}
	if _, err := sys.RegisterTask(spec.ID, spec.Query, macroLog.sink); err != nil {
		t.Fatal(err)
	}
	inlineQuery := strings.Replace(spec.Query, "HAVING "+macroCall, "HAVING "+inlined, 1)
	if _, err := sys.RegisterTask(spec.ID+"_inline", inlineQuery, inlineLog.sink); err != nil {
		t.Fatal(err)
	}
	feedDefaultEvents(t, sys, gen, 0, 60_000, 500, gen.SensorsOfTurbine(0))

	if n := sys.TelemetrySnapshot().Counters["starql.having.compiled"]; n != 2 {
		t.Errorf("having.compiled = %d, want 2 (one program per registration)", n)
	}
	macro, inline := sortedAlerts(macroLog), sortedAlerts(inlineLog)
	if len(macro) == 0 {
		t.Fatal("no alerts raised — the parity check is vacuous")
	}
	if len(macro) != len(inline) {
		t.Fatalf("alert sets differ: %d via macro vs %d inline", len(macro), len(inline))
	}
	for i := range macro {
		if macro[i] != inline[i] {
			t.Fatalf("alert %d differs: macro %q vs inline %q", i, macro[i], inline[i])
		}
	}
}

// TestHavingTelemetry: registration compiles the HAVING matcher once
// (EXPLAIN says so), and the HAVING stage reports matcher evaluations,
// matches, compiled-program count, and per-window latency.
func TestHavingTelemetry(t *testing.T) {
	sys, gen := deployWith(t, Config{Nodes: 1})
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	log := &answerLog{}
	if _, err := sys.RegisterTask(spec.ID, spec.Query, log.sink); err != nil {
		t.Fatal(err)
	}
	text, err := sys.Explain(spec.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "having: compiled matcher") {
		t.Errorf("EXPLAIN does not report the compiled HAVING matcher:\n%s", text)
	}
	feedDefaultEvents(t, sys, gen, 0, 30_000, 500, gen.SensorsOfTurbine(0))

	snap := sys.TelemetrySnapshot()
	if snap.Counters["starql.having.compiled"] != 1 {
		t.Errorf("having.compiled = %d, want 1", snap.Counters["starql.having.compiled"])
	}
	evals := snap.Counters["starql.having.evals"]
	matches := snap.Counters["starql.having.matches"]
	if evals == 0 {
		t.Error("no matcher evaluations counted")
	}
	if matches == 0 || matches > evals {
		t.Errorf("having.matches = %d (evals = %d)", matches, evals)
	}
	h, ok := snap.Histograms["starql.having.window_ns"]
	if !ok || h.Count == 0 {
		t.Errorf("window_ns histogram missing or empty: %+v", h)
	}
	var alerts int
	log.mu.Lock()
	alerts = len(log.triples)
	log.mu.Unlock()
	if alerts == 0 {
		t.Error("no alerts — counters not exercised meaningfully")
	}
}
