package core

import (
	"testing"

	"repro/internal/exastream"
	"repro/internal/obda/mapping"
	"repro/internal/siemens"
	"repro/internal/starql"
)

// translateT01 translates T01 standalone over the system's assets,
// returning the translation before and after EvalBindings' stream
// fleet expansion.
func translateT01(t *testing.T, sys *System, prune bool) (staticPruned int, tl *starql.Translation) {
	t.Helper()
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	q, err := starql.Parse(spec.Query)
	if err != nil {
		t.Fatal(err)
	}
	tr := starql.NewTranslator(sys.TBox(), sys.Mappings(), sys.Catalog())
	tl, err = tr.Translate(q, starql.Options{Unfold: mapping.UnfoldOptions{Prune: prune}})
	if err != nil {
		t.Fatal(err)
	}
	staticPruned = tl.UnfoldStats.ConstraintPruned
	if _, err := tr.EvalBindings(tl); err != nil {
		t.Fatal(err)
	}
	return staticPruned, tl
}

// TestEngineOptimizePrunesUnfolding: Engine.Optimize is the planner's
// only switch, so on its own it also unfolds every task under the
// declared constraints. T01's registered fleet must be the pruned one,
// not the as-written one.
func TestEngineOptimizePrunesUnfolding(t *testing.T) {
	sys, _ := deployWith(t, Config{Nodes: 1, Engine: exastream.Options{Optimize: true}})
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	task, err := sys.RegisterTask(spec.ID, spec.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if task.Translation.UnfoldStats.ConstraintPruned == 0 {
		t.Fatal("Engine.Optimize registered T01 unpruned (constraint_pruned=0)")
	}
	_, pruned := translateT01(t, sys, true)
	_, plain := translateT01(t, sys, false)
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
	sys, _ := deployWith(t, Config{Nodes: 1, Engine: exastream.Options{Optimize: true}})
	spec, _ := siemens.TaskByID("T01_mon_temperature")
	task, err := sys.RegisterTask(spec.ID, spec.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.TelemetrySnapshot()
	if n := snap.Counters["starql.bindings.evals"]; n != 1 {
		t.Errorf("static fleet executed %d times for one registration, want 1", n)
	}
	staticPruned, want := translateT01(t, sys, true)
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
