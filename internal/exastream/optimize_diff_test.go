package exastream

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/starql"
	"repro/internal/stream"
)

// diffAssets bundles one deployment's translation inputs.
type diffAssets struct {
	gen    *siemens.Generator
	cat    *relation.Catalog
	tr     *starql.Translator
	tuples []stream.Timestamped
	routes []bool
}

func diffSetup(t *testing.T) *diffAssets {
	t.Helper()
	gen, err := siemens.New(siemens.Config{
		Turbines: 3, SensorsPerTurbine: 4, AssembliesPerTurbine: 2,
		SourceASplit: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	tuples, routes, err := gen.Generate(siemens.StreamConfig{
		FromMS: 0, ToMS: 30_000, StepMS: 1_000, Seed: 9,
		Events: gen.PlantDefaultEvents(0, 30_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &diffAssets{
		gen: gen, cat: cat,
		tr:     starql.NewTranslator(siemens.TBox(), siemens.Mappings(), cat),
		tuples: tuples, routes: routes,
	}
}

func (a *diffAssets) translate(t *testing.T, prune bool) *starql.Translation {
	t.Helper()
	spec, ok := siemens.TaskByID("T01_mon_temperature")
	if !ok {
		t.Fatal("task T01 missing")
	}
	q, err := starql.Parse(spec.Query)
	if err != nil {
		t.Fatal(err)
	}
	opts := starql.Options{}
	if prune {
		opts.Unfold = mapping.UnfoldOptions{Prune: true, Catalog: a.cat}
	}
	tl, err := a.tr.Translate(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// runFleet registers every stream-fleet member on a fresh engine,
// replays the seeded tuple log, and returns the distinct rows the fleet
// produced per window end (set semantics: the fleet's answer is the
// union of its members).
func runFleet(t *testing.T, a *diffAssets, opts Options, tl *starql.Translation) map[int64]map[string]struct{} {
	t.Helper()
	e := NewEngine(a.cat, opts)
	for _, sc := range siemens.StreamSchemas() {
		if err := e.DeclareStream(sc); err != nil {
			t.Fatal(err)
		}
	}
	windows := map[int64]map[string]struct{}{}
	var mu sync.Mutex
	sink := func(_ string, end int64, _ relation.Schema, cb *relation.ColBatch) {
		mu.Lock()
		defer mu.Unlock()
		set := windows[end]
		if set == nil {
			set = map[string]struct{}{}
			windows[end] = set
		}
		for _, r := range cb.Rows() {
			set[fmt.Sprint(r)] = struct{}{}
		}
	}
	for i, stmt := range tl.StreamFleet {
		if err := e.Register(fmt.Sprintf("f%03d", i), stmt, tl.Pulse, sink); err != nil {
			t.Fatalf("register member %d (%s): %v", i, stmt.String(), err)
		}
	}
	for i, el := range a.tuples {
		if err := e.Ingest(siemens.RouteName(a.routes[i]), el); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return windows
}

// renderWindows serialises the per-window answer sets deterministically
// so two fleets can be compared byte for byte.
func renderWindows(windows map[int64]map[string]struct{}) string {
	ends := make([]int64, 0, len(windows))
	for end := range windows {
		ends = append(ends, end)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	var sb []byte
	for _, end := range ends {
		rows := make([]string, 0, len(windows[end]))
		for r := range windows[end] {
			rows = append(rows, r)
		}
		sort.Strings(rows)
		sb = append(sb, fmt.Sprintf("end=%d\n", end)...)
		for _, r := range rows {
			sb = append(sb, "  "+r+"\n"...)
		}
	}
	return string(sb)
}

// TestOptimizedFleetDifferential is the end-to-end differential oracle
// for the optimizer: the constraint-pruned fleet running on an
// Optimize-enabled engine must produce byte-identical window answer
// sets to the as-written fleet on a stock engine.
func TestOptimizedFleetDifferential(t *testing.T) {
	a := diffSetup(t)
	plain := a.translate(t, false)
	pruned := a.translate(t, true)

	nPlain := len(plain.StaticFleet) + len(plain.StreamFleet)
	nPruned := len(pruned.StaticFleet) + len(pruned.StreamFleet)
	if nPruned >= nPlain {
		t.Fatalf("constraint pruning did not shrink the fleet: %d -> %d", nPlain, nPruned)
	}
	t.Logf("fleet %d -> %d members (constraint_pruned=%d fk_joins_removed=%d)",
		nPlain, nPruned, pruned.UnfoldStats.ConstraintPruned, pruned.UnfoldStats.FKJoinsRemoved)

	want := renderWindows(runFleet(t, a, Options{}, plain))
	got := renderWindows(runFleet(t, a, Options{Optimize: true}, pruned))
	if want == "" {
		t.Fatal("as-written fleet produced no windows — differential is vacuous")
	}
	if got != want {
		t.Fatalf("optimized fleet diverges from as-written fleet\n--- as-written ---\n%s\n--- optimized ---\n%s", want, got)
	}
}

// TestOptimizedFleetDifferentialChaos repeats the differential with a
// wide worker pool and the plan cache disabled so window executions of
// many fleet members run concurrently — under -race this exercises the
// StatsStore's concurrent ObserveSource/Feedback/estimate paths.
func TestOptimizedFleetDifferentialChaos(t *testing.T) {
	a := diffSetup(t)
	plain := a.translate(t, false)
	pruned := a.translate(t, true)

	want := renderWindows(runFleet(t, a, Options{Parallelism: 8}, plain))
	got := renderWindows(runFleet(t, a, Options{
		Optimize: true, Parallelism: 8, DisablePlanCache: true, ShareWindows: true,
	}, pruned))
	if want == "" {
		t.Fatal("as-written fleet produced no windows — differential is vacuous")
	}
	if got != want {
		t.Fatalf("optimized fleet diverges under parallel execution\n--- as-written ---\n%s\n--- optimized ---\n%s", want, got)
	}
}
