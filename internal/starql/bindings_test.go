package starql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/siemens"
	"repro/internal/sql"
)

// catalogTranslator builds the Siemens deployment at the given fleet
// size.
func catalogTranslator(t testing.TB, turbines int) *Translator {
	t.Helper()
	cfg := siemens.SmallConfig()
	cfg.Turbines = turbines
	gen, err := siemens.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := gen.StaticCatalog()
	if err != nil {
		t.Fatal(err)
	}
	return NewTranslator(siemens.TBox(), siemens.Mappings(), cat)
}

// asWrittenTranslator is the oracle of constraint pruning: tr's
// deployment with every key and FK declaration stripped from the
// mappings, so nothing is pruned or eliminated on their strength.
func asWrittenTranslator(tr *Translator) *Translator {
	var ms []mapping.Mapping
	for _, m := range tr.Mappings.All() {
		m.KeyColumns, m.FKs = nil, nil
		ms = append(ms, m)
	}
	return NewTranslator(tr.TBox, mapping.MustNewSet(ms...), tr.Catalog)
}

// asWrittenPlan is the reference plan of one static-fleet member: its
// FROM items crossed left to right in written order, the WHERE on top,
// then the projection, optimised as the planner did before it ordered
// FROM items by connectivity (filters pushed down, cross products with
// a spanning equality turned into hash joins, the rest left as cross
// products). A plan with no optimisation at all crosses every FROM
// item in full, which is too slow to run at these fleet sizes.
func asWrittenPlan(t *testing.T, stmt *sql.SelectStmt, cat *relation.Catalog) engine.Plan {
	t.Helper()
	if len(stmt.GroupBy) > 0 || stmt.Having != nil || len(stmt.OrderBy) > 0 || len(stmt.Unions) > 0 || stmt.Limit >= 0 {
		t.Fatalf("reference plan does not cover %s", stmt)
	}
	resolve := engine.CatalogResolver(cat)
	var plan engine.Plan
	for _, tr := range stmt.From {
		if tr.Subquery != nil || len(tr.Joins) > 0 {
			t.Fatalf("reference plan does not cover %s", stmt)
		}
		p, err := resolve(tr)
		if err != nil {
			t.Fatal(err)
		}
		if plan == nil {
			plan = p
			continue
		}
		plan = engine.NewNestedLoopJoinPlan(plan, p, nil, false)
	}
	if stmt.Where != nil {
		plan = &engine.FilterPlan{Input: plan, Pred: stmt.Where}
	}
	exprs := make([]sql.Expr, len(stmt.Items))
	names := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		if it.Star || it.Alias == "" {
			t.Fatalf("reference plan does not cover item %d of %s", i, stmt)
		}
		exprs[i], names[i] = it.Expr, it.Alias
	}
	plan = engine.NewProjectPlan(plan, exprs, names)
	if stmt.Distinct {
		plan = &engine.DistinctPlan{Input: plan}
	}
	return engine.Optimize(plan)
}

// renderBindings prints bindings in order, each in head-variable order.
func renderBindings(head []string, bs []Binding) string {
	var sb strings.Builder
	for _, b := range bs {
		for _, h := range head {
			sb.WriteString(h + "=" + b[h].String() + "\x1f")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestStaticFleetConnectedJoinOrder runs every catalog task's static
// fleet at two fleet sizes, unfolded under the declared constraints and
// as written. No member's plan may contain a cross product (every
// member's atoms are connected through shared variables), and the
// bindings must equal those decoded from the as-written cross-product
// plans.
func TestStaticFleetConnectedJoinOrder(t *testing.T) {
	for _, turbines := range []int{4, 10} {
		pruned := catalogTranslator(t, turbines)
		for _, tr := range []*Translator{pruned, asWrittenTranslator(pruned)} {
			for _, task := range siemens.Catalog() {
				name := fmt.Sprintf("%s/turbines=%d/pruned=%t", task.ID, turbines, tr == pruned)
				tl, err := tr.Translate(MustParse(task.Query), Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, stmt := range tl.StaticFleet {
					plan, err := engine.Build(stmt, engine.CatalogResolver(tr.Catalog))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ex := engine.Explain(plan); strings.Contains(ex, "NestedLoopJoin(true)") {
						t.Fatalf("%s: static-fleet member plan has a cross product:\n%s\n%s", name, stmt, ex)
					}
				}
				got, err := tr.EvalBindings(tl)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := referenceBindings(t, tr, tl)
				if len(got) == 0 {
					t.Fatalf("%s: no bindings", name)
				}
				if g, w := renderBindings(tl.StaticCQ.Head, got), renderBindings(tl.StaticCQ.Head, want); g != w {
					t.Fatalf("%s: bindings differ from the as-written plans\ngot:\n%s\nwant:\n%s", name, g, w)
				}
			}
		}
	}
}

// TestPrunedBindingsMatchAsWritten: for every catalog task at two fleet
// sizes, the bindings of the default translation, which unfolds under
// the declared constraints, equal those of the as-written oracle, and
// the pruned fleet is no larger. Some task must prune, or the check is
// vacuous.
func TestPrunedBindingsMatchAsWritten(t *testing.T) {
	prunedAny := false
	for _, turbines := range []int{4, 10} {
		tr := catalogTranslator(t, turbines)
		oracle := asWrittenTranslator(tr)
		for _, task := range siemens.Catalog() {
			name := fmt.Sprintf("%s/turbines=%d", task.ID, turbines)
			got, gotTl := translateBindings(t, tr, task.Query)
			want, wantTl := translateBindings(t, oracle, task.Query)
			if g, w := renderBindings(gotTl.StaticCQ.Head, got), renderBindings(wantTl.StaticCQ.Head, want); g != w {
				t.Fatalf("%s: pruned bindings differ from the as-written oracle\ngot:\n%s\nwant:\n%s", name, g, w)
			}
			n, asWritten := len(gotTl.StaticFleet)+len(gotTl.StreamFleet), len(wantTl.StaticFleet)+len(wantTl.StreamFleet)
			if n > asWritten {
				t.Fatalf("%s: pruned fleet %d members, as written %d", name, n, asWritten)
			}
			prunedAny = prunedAny || gotTl.UnfoldStats.ConstraintPruned > 0
		}
	}
	if !prunedAny {
		t.Fatal("no task pruned anything: the differential is vacuous")
	}
}

// translateBindings translates a task and evaluates its bindings.
func translateBindings(t *testing.T, tr *Translator, query string) ([]Binding, *Translation) {
	t.Helper()
	tl, err := tr.Translate(MustParse(query), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := tr.EvalBindings(tl)
	if err != nil {
		t.Fatal(err)
	}
	return bs, tl
}

// referenceBindings decodes the as-written plans' rows the way
// evalStatic does: distinct head-variable tuples, sorted by dedup key.
func referenceBindings(t *testing.T, tr *Translator, tl *Translation) []Binding {
	t.Helper()
	head := tl.StaticCQ.Head
	ctx := engine.NewExecContext(tr.Catalog)
	byKey := map[string]Binding{}
	var keys []string
	for _, stmt := range tl.StaticFleet {
		if referencesStream(stmt) {
			continue
		}
		plan := asWrittenPlan(t, stmt, tr.Catalog)
		rows, err := plan.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			b := Binding{}
			key := ""
			for _, h := range head {
				idx, err := plan.Schema().IndexOf(h)
				if err != nil {
					t.Fatal(err)
				}
				b[h] = valueToTerm(row[idx])
				key += b[h].String() + "\x1f"
			}
			if _, dup := byKey[key]; !dup {
				byKey[key] = b
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)
	out := make([]Binding, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// TestEvalBindingsDeterministic pins that twenty evaluations of a
// task's bindings are byte-identical and sorted by their dedup key, so
// the planner's join order cannot reorder them.
func TestEvalBindingsDeterministic(t *testing.T) {
	tr := catalogTranslator(t, 10)
	for _, id := range []string{"T01_mon_temperature", "T04_corr_temperature"} {
		task, ok := siemens.TaskByID(id)
		if !ok {
			t.Fatalf("catalog task %s missing", id)
		}
		var first string
		for i := 0; i < 20; i++ {
			tl, err := tr.Translate(MustParse(task.Query), Options{})
			if err != nil {
				t.Fatal(err)
			}
			bs, err := tr.EvalBindings(tl)
			if err != nil {
				t.Fatal(err)
			}
			got := renderBindings(tl.StaticCQ.Head, bs)
			if i > 0 {
				if got != first {
					t.Fatalf("%s: evaluation %d gave different bindings:\n%s\nfirst:\n%s", id, i, got, first)
				}
				continue
			}
			first = got
			lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
			if len(lines) < 2 || !sort.StringsAreSorted(lines) {
				t.Fatalf("%s: bindings not in dedup-key order:\n%s", id, got)
			}
		}
	}
}

// BenchmarkEvalBindings prices one registration's static side: running
// the static fleet and expanding the stream fleet, for the Figure 1
// monotonic task and the correlation task (whose members join three or
// four tables) at 40 turbines.
func BenchmarkEvalBindings(b *testing.B) {
	tr := catalogTranslator(b, 40)
	for _, id := range []string{"T01_mon_temperature", "T04_corr_temperature"} {
		task, ok := siemens.TaskByID(id)
		if !ok {
			b.Fatalf("catalog task %s missing", id)
		}
		tl, err := tr.Translate(MustParse(task.Query), Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id[:3], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tr.EvalBindings(tl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
