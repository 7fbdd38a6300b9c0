package exastream

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
	"repro/internal/starql"
	"repro/internal/stream"
)

// diffAssets bundles one deployment's translation inputs: the default
// translator, which unfolds under the declared constraints, and the
// as-written oracle's, over the same mappings with every constraint
// stripped.
type diffAssets struct {
	gen       *siemens.Generator
	cat       *relation.Catalog
	tr        *starql.Translator
	asWritten *starql.Translator
	tuples    []stream.Timestamped
	routes    []bool
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
	var stripped []mapping.Mapping
	for _, m := range siemens.Mappings().All() {
		m.KeyColumns, m.FKs = nil, nil
		stripped = append(stripped, m)
	}
	return &diffAssets{
		gen: gen, cat: cat,
		tr:        starql.NewTranslator(siemens.TBox(), siemens.Mappings(), cat),
		asWritten: starql.NewTranslator(siemens.TBox(), mapping.MustNewSet(stripped...), cat),
		tuples:    tuples, routes: routes,
	}
}

// translate translates and binds T01 with tr.
func (a *diffAssets) translate(t *testing.T, tr *starql.Translator) *starql.Translation {
	t.Helper()
	spec, ok := siemens.TaskByID("T01_mon_temperature")
	if !ok {
		t.Fatal("task T01 missing")
	}
	q, err := starql.Parse(spec.Query)
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
	return tl
}

// runFleet registers every stream-fleet member on e, replays the seeded
// tuple log, and returns the distinct rows the fleet produced per
// window end (set semantics: the fleet's answer is the union of its
// members).
func runFleet(t *testing.T, a *diffAssets, e *Engine, tl *starql.Translation) map[int64]map[string]struct{} {
	t.Helper()
	windows, sink := collectWindows()
	for i, stmt := range tl.StreamFleet {
		if err := e.Register(fmt.Sprintf("f%03d", i), stmt, tl.Pulse, sink); err != nil {
			t.Fatalf("register member %d (%s): %v", i, stmt.String(), err)
		}
	}
	a.replay(t, e)
	return windows
}

// newDiffEngine returns an engine over the deployment catalog with the
// Siemens streams declared.
func newDiffEngine(t *testing.T, a *diffAssets, opts Options) *Engine {
	t.Helper()
	e := NewEngine(a.cat, opts)
	for _, sc := range siemens.StreamSchemas() {
		if err := e.DeclareStream(sc); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// asWrittenEngine is newDiffEngine without the cost-based planner: with
// no statistics store, Adapt applies the lookup-join adaptation alone,
// so every plan runs as written.
func asWrittenEngine(t *testing.T, a *diffAssets, opts Options) *Engine {
	t.Helper()
	e := newDiffEngine(t, a, opts)
	e.stats = nil
	return e
}

// collectWindows returns a per-window-end row set and the sink that
// fills it; the sink is safe for concurrent windows.
func collectWindows() (map[int64]map[string]struct{}, Sink) {
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
	return windows, sink
}

// replay ingests the seeded tuple log and flushes the open windows.
func (a *diffAssets) replay(t *testing.T, e *Engine) {
	t.Helper()
	for i, el := range a.tuples {
		if err := e.Ingest(siemens.RouteName(a.routes[i]), el); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
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
// for the planner: the constraint-pruned fleet running on a default
// engine must produce byte-identical window answer sets to the
// as-written fleet on an engine that runs its plans as written.
func TestOptimizedFleetDifferential(t *testing.T) {
	a := diffSetup(t)
	plain := a.translate(t, a.asWritten)
	pruned := a.translate(t, a.tr)

	nPlain := len(plain.StaticFleet) + len(plain.StreamFleet)
	nPruned := len(pruned.StaticFleet) + len(pruned.StreamFleet)
	if nPruned >= nPlain {
		t.Fatalf("constraint pruning did not shrink the fleet: %d -> %d", nPlain, nPruned)
	}
	t.Logf("fleet %d -> %d members (constraint_pruned=%d self_joins_removed=%d)",
		nPlain, nPruned, pruned.UnfoldStats.ConstraintPruned, pruned.UnfoldStats.SelfJoinsRemoved)

	want := renderWindows(runFleet(t, a, asWrittenEngine(t, a, Options{}), plain))
	got := renderWindows(runFleet(t, a, newDiffEngine(t, a, Options{}), pruned))
	if want == "" {
		t.Fatal("as-written fleet produced no windows — differential is vacuous")
	}
	if got != want {
		t.Fatalf("optimized fleet diverges from as-written fleet\n--- as-written ---\n%s\n--- optimized ---\n%s", want, got)
	}
}

// TestOptimizedFleetDifferentialChaos repeats the differential with the
// optimized fleet registered from several goroutines while a feeder
// goroutine keeps background queries executing windows on a wide
// worker pool. Each registrar also registers a background query whose
// plan the cost-based planner reorders from table statistics, so under
// -race this exercises the StatsStore's estimate path (concurrent lazy
// ANALYZE and reads) from plan builds that run alongside window
// executions. The background queries read their own stream, so the
// fleet still sees the whole replay once registered.
func TestOptimizedFleetDifferentialChaos(t *testing.T) {
	a := diffSetup(t)
	plain := a.translate(t, a.asWritten)
	pruned := a.translate(t, a.tr)

	want := renderWindows(runFleet(t, a, asWrittenEngine(t, a, Options{Parallelism: 8}), plain))

	e := newDiffEngine(t, a, Options{Parallelism: 8})
	msmtA := siemens.StreamSchemas()[0]
	if err := e.DeclareStream(stream.Schema{Name: "msmt_bg", Tuple: msmtA.Tuple, TSCol: msmtA.TSCol}); err != nil {
		t.Fatal(err)
	}
	// Background queries read their own stream through two static
	// lookups keyed on stream columns — the chain the cost-based planner
	// reorders by estimated matches per probe, so building their plans
	// reads the statistics store.
	var bgWindows atomic.Int64
	bg := sql.MustParse(`SELECT w.sid, s.kind, t.model FROM STREAM msmt_bg [RANGE 2000 SLIDE 1000] AS w,
		a_sensors AS s, a_turbines AS t WHERE w.sid = s.sid AND w.fail = t.tid AND w.val > 0`)
	bgSink := func(string, int64, relation.Schema, *relation.ColBatch) { bgWindows.Add(1) }
	if err := e.Register("bg", bg, nil, bgSink); err != nil {
		t.Fatal(err)
	}

	// The feeder replays source-A tuples into the background stream, lap
	// after lap with advancing timestamps, until every member is
	// registered.
	stop, done := make(chan struct{}), make(chan struct{})
	var feedErr error
	go func() {
		defer close(done)
		for lap := int64(0); ; lap++ {
			for i, el := range a.tuples {
				select {
				case <-stop:
					return
				default:
				}
				if !a.routes[i] {
					continue
				}
				el.TS += lap * 30_000
				el.Row = el.Row.Clone()
				el.Row[1] = relation.Time(el.TS)
				if feedErr = e.Ingest("msmt_bg", el); feedErr != nil {
					return
				}
			}
		}
	}()
	// awaitWindow blocks until a background window newer than the seen
	// count has executed (or the feeder has stopped), so registrations
	// interleave with window executions instead of finishing first.
	awaitWindow := func(seen int64) int64 {
		for {
			if n := bgWindows.Load(); n > seen {
				return n
			}
			select {
			case <-done:
				return seen
			default:
				runtime.Gosched()
			}
		}
	}

	windows, sink := collectWindows()
	const registrars = 4
	errs := make([]error, registrars)
	var wg sync.WaitGroup
	for g := 0; g < registrars; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var seen int64
			for i := g; i < len(pruned.StreamFleet); i += registrars {
				seen = awaitWindow(seen)
				if err := e.Register(fmt.Sprintf("bg%03d", i), bg, nil, bgSink); err != nil {
					errs[g] = fmt.Errorf("register background %d: %w", i, err)
					return
				}
				if err := e.Register(fmt.Sprintf("f%03d", i), pruned.StreamFleet[i], pruned.Pulse, sink); err != nil {
					errs[g] = fmt.Errorf("register member %d: %w", i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-done
	if feedErr != nil {
		t.Fatal(feedErr)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a.replay(t, e)

	got := renderWindows(windows)
	if want == "" {
		t.Fatal("as-written fleet produced no windows — differential is vacuous")
	}
	if got != want {
		t.Fatalf("optimized fleet diverges under concurrent registration\n--- as-written ---\n%s\n--- optimized ---\n%s", want, got)
	}
}
