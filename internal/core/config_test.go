package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/starql"
	"repro/internal/telemetry"
)

// asWrittenMappings is the oracle of constraint pruning: set with every
// key and FK declaration stripped.
func asWrittenMappings(set *mapping.Set) *mapping.Set {
	var ms []mapping.Mapping
	for _, m := range set.All() {
		m.KeyColumns, m.FKs = nil, nil
		ms = append(ms, m)
	}
	return mapping.MustNewSet(ms...)
}

// translateT01 translates T01 standalone over the system's assets and
// the given mappings, returning the translation's constraint-pruned
// count before EvalBindings' stream fleet expansion and the translation
// after it.
func translateT01(t *testing.T, sys *System, set *mapping.Set) (staticPruned int, tl *starql.Translation) {
	t.Helper()
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	q, err := starql.Parse(spec.Query)
	if err != nil {
		t.Fatal(err)
	}
	tr := starql.NewTranslator(sys.TBox(), set, sys.Catalog())
	tl, err = tr.Translate(q, starql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	staticPruned = tl.UnfoldStats.ConstraintPruned
	if _, err := tr.EvalBindings(tl); err != nil {
		t.Fatal(err)
	}
	return staticPruned, tl
}

// TestRegisterPrunesUnfolding: registration unfolds every task under
// the declared constraints. T01's registered fleet must be the pruned
// one, smaller than the as-written one.
func TestRegisterPrunesUnfolding(t *testing.T) {
	sys, _ := deployWith(t, Config{Nodes: 1})
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	task, err := sys.RegisterTask(spec.ID, spec.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if task.Translation.UnfoldStats.ConstraintPruned == 0 {
		t.Fatal("T01 registered unpruned (constraint_pruned=0)")
	}
	_, pruned := translateT01(t, sys, sys.Mappings())
	_, plain := translateT01(t, sys, asWrittenMappings(sys.Mappings()))
	want := len(pruned.StaticFleet) + len(pruned.StreamFleet)
	if got := task.FleetSize(); got != want {
		t.Errorf("FleetSize = %d, want the constraint-pruned fleet's %d", got, want)
	}
	if asWritten := len(plain.StaticFleet) + len(plain.StreamFleet); want >= asWritten {
		t.Errorf("pruned fleet %d not smaller than as-written %d", want, asWritten)
	}
}

// TestRegisterEvaluatesBindingsOnce: one registration executes the
// task's static fleet exactly once, and the stream fleet that pass
// expands still carries its constraint pruning into EXPLAIN and the
// starql.unfold.constraint_pruned counter.
func TestRegisterEvaluatesBindingsOnce(t *testing.T) {
	sys, _ := deployWith(t, Config{Nodes: 1})
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	task, err := sys.RegisterTask(spec.ID, spec.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.TelemetrySnapshot()
	if n := snap.Counters["starql.bindings.evals"]; n != 1 {
		t.Errorf("static fleet executed %d times for one registration, want 1", n)
	}
	staticPruned, want := translateT01(t, sys, sys.Mappings())
	if staticPruned >= want.UnfoldStats.ConstraintPruned {
		t.Fatalf("T01 prunes no stream members (%d static of %d); the check below is vacuous",
			staticPruned, want.UnfoldStats.ConstraintPruned)
	}
	if got := task.Translation.UnfoldStats.ConstraintPruned; got != want.UnfoldStats.ConstraintPruned {
		t.Errorf("task constraint_pruned = %d, want %d", got, want.UnfoldStats.ConstraintPruned)
	}
	if got := snap.Counters["starql.unfold.constraint_pruned"]; got != int64(want.UnfoldStats.ConstraintPruned) {
		t.Errorf("starql.unfold.constraint_pruned = %d, want %d", got, want.UnfoldStats.ConstraintPruned)
	}
	if len(task.Translation.StreamFleet) != len(want.StreamFleet) {
		t.Errorf("stream fleet = %d members, want %d", len(task.Translation.StreamFleet), len(want.StreamFleet))
	}
}

// TestViolatedConstraintIsNotUsed plants a temperature sensor whose
// assembly does not exist, breaking the declared key
// a_sensors(aid) -> a_assemblies(aid). A task over that assembly must
// still bind the sensor, as the as-written oracle does: the key would
// prove its branch empty. The check counts the violation once, however
// many tasks register, and records it in the flight recorder.
func TestViolatedConstraintIsNotUsed(t *testing.T) {
	sys, _ := deployWith(t, Config{Nodes: 1, FlightRecorder: 64})
	sensors, err := sys.Catalog().Get("a_sensors")
	if err != nil {
		t.Fatal(err)
	}
	sensors.MustInsert(relation.Tuple{relation.Int(999_001), relation.Int(999_000), relation.String_("temperature")})

	spec, _ := siemens.TaskByID("T02_thr_temperature")
	where := "?s a sie:TemperatureSensor."
	if !strings.Contains(spec.Query, where) {
		t.Fatalf("T02 no longer has the WHERE clause %q", where)
	}
	query := strings.Replace(spec.Query, where,
		where+" <"+siemens.DataNS+"assembly/999000> sie:inAssembly ?s.", 1)
	task, err := sys.RegisterTask("orphan", query, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := starql.NewTranslator(sys.TBox(), asWrittenMappings(sys.Mappings()), sys.Catalog())
	oracle, err := tr.Translate(starql.MustParse(query), starql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.EvalBindings(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || len(task.Bindings) != 1 || task.Bindings[0]["s"] != want[0]["s"] {
		t.Fatalf("bindings %v, as-written oracle %v: want the one planted sensor in both", task.Bindings, want)
	}
	if _, err := sys.RegisterTask(spec.ID, spec.Query, nil); err != nil {
		t.Fatal(err)
	}
	if n := sys.TelemetrySnapshot().Counters["mapping.constraint_violations"]; n != 1 {
		t.Errorf("mapping.constraint_violations = %d, want 1", n)
	}
	var events []telemetry.Event
	for _, ev := range sys.Events() {
		if ev.Kind == telemetry.EvConstraintViolation.String() {
			events = append(events, ev)
		}
	}
	if len(events) != 1 || events[0].Query != "a_sensors(aid) -> a_assemblies(aid)" || events[0].Value != 1 {
		t.Errorf("constraint_violation events = %+v, want one naming a_sensors(aid) -> a_assemblies(aid) with 1 row", events)
	}
}

// TestViolatedKeyIsNotUsed plants an a_sensors row that repeats a
// temperature sensor's sid under another assembly and kind, breaking
// the declared key a_sensors(sid). T01 must still bind the sensor to
// both assemblies, as the as-written oracle does: the key would merge
// the kind-filtered alias with the inAssembly one and lose the second
// assembly. The check counts the violation once and records it in the
// flight recorder.
func TestViolatedKeyIsNotUsed(t *testing.T) {
	sys, _ := deployWith(t, Config{Nodes: 1, FlightRecorder: 64})
	sensors, err := sys.Catalog().Get("a_sensors")
	if err != nil {
		t.Fatal(err)
	}
	rows := sensors.Rows()
	var twin relation.Tuple
	for _, row := range rows {
		if row[2].Str == "temperature" {
			twin = row
			break
		}
	}
	if twin == nil {
		t.Fatal("no temperature sensor on source A")
	}
	var other relation.Value
	for _, row := range rows {
		if row[1].Int != twin[1].Int {
			other = row[1]
			break
		}
	}
	sensors.MustInsert(relation.Tuple{twin[0], other, relation.String_("pressure")})

	spec, _ := siemens.TaskByID("T01_mon_temperature")
	task, err := sys.RegisterTask(spec.ID, spec.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := starql.NewTranslator(sys.TBox(), asWrittenMappings(sys.Mappings()), sys.Catalog())
	oracle, err := tr.Translate(starql.MustParse(spec.Query), starql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.EvalBindings(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(task.Bindings) != fmt.Sprint(want) {
		t.Fatalf("bindings differ from the as-written oracle\ngot  %v\nwant %v", task.Bindings, want)
	}
	twinIRI := siemens.DataNS + "sensor/" + twin[0].String()
	n := 0
	for _, b := range want {
		if b["s"].Value == twinIRI {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("the as-written oracle binds %s to %d assemblies, want 2: the check above is vacuous", twinIRI, n)
	}
	if n := sys.TelemetrySnapshot().Counters["mapping.constraint_violations"]; n != 1 {
		t.Errorf("mapping.constraint_violations = %d, want 1", n)
	}
	var events []telemetry.Event
	for _, ev := range sys.Events() {
		if ev.Kind == telemetry.EvConstraintViolation.String() {
			events = append(events, ev)
		}
	}
	if len(events) != 1 || events[0].Query != "key a_sensors(sid)" || events[0].Value != 1 {
		t.Errorf("constraint_violation events = %+v, want one naming key a_sensors(sid) with 1 row", events)
	}
}
