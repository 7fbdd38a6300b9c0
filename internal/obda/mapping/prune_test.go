package mapping

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/obda/cq"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/sql"
)

// pruneRig builds a parent/child catalog honouring the declared
// constraints: parent p(pid unique, pattr), child c(cid unique, pid)
// with every c.pid present in p (the inclusion dependency the mappings
// declare).
func pruneRig(t *testing.T, rng *rand.Rand, parents, children int) *relation.Catalog {
	return pruneRigDangling(t, rng, parents, children, 0)
}

// pruneRigDangling is pruneRig plus dangling child rows whose pid no
// parent has: they violate the declared inclusion dependency.
func pruneRigDangling(t *testing.T, rng *rand.Rand, parents, children, dangling int) *relation.Catalog {
	t.Helper()
	cat := relation.NewCatalog()
	p, err := cat.Create("p", relation.NewSchema(
		relation.Col("pid", relation.TInt), relation.Col("pattr", relation.TString)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cat.Create("c", relation.NewSchema(
		relation.Col("cid", relation.TInt), relation.Col("pid", relation.TInt)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parents; i++ {
		p.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.String_(fmt.Sprintf("a%d", i%3))})
	}
	for i := 0; i < children; i++ {
		c.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(rng.Intn(parents)))})
	}
	for i := 0; i < dangling; i++ {
		c.MustInsert(relation.Tuple{relation.Int(int64(children + i)), relation.Int(int64(parents + i))})
	}
	return cat
}

// stripConstraints is the as-written oracle's mapping set: set with
// every FK and exact-predicate declaration removed, so unfolding
// prunes and eliminates nothing on their strength.
func stripConstraints(set *Set) *Set {
	var ms []Mapping
	for _, m := range set.All() {
		m.FKs, m.Exact = nil, false
		ms = append(ms, m)
	}
	return MustNewSet(ms...)
}

func pruneMappings(exactDup bool) *Set {
	childT := MustParseTemplate("http://e/c/{cid}")
	parentT := MustParseTemplate("http://e/p/{pid}")
	fkChild := []ForeignKey{{Columns: []string{"pid"}, RefTable: "p", RefColumns: []string{"pid"}}}
	ms := []Mapping{
		{ID: "child", Pred: "Child", IsClass: true, Subject: childT,
			Source: SourceRef{Table: "c"}, KeyColumns: []string{"cid"},
			FKs: fkChild, Exact: exactDup},
		// A redundant duplicate reading the same source; with Exact set
		// on the first, restriction drops the branches this one breeds.
		{ID: "child2", Pred: "Child", IsClass: true, Subject: childT,
			Source: SourceRef{Table: "c"}, KeyColumns: []string{"cid"}, FKs: fkChild},
		{ID: "parent", Pred: "Parent", IsClass: true, Subject: parentT,
			Source: SourceRef{Table: "p"}, KeyColumns: []string{"pid"}},
		{ID: "hasParent", Pred: "hasParent", Subject: childT, Object: MustParseTemplate("http://e/p/{pid}"),
			Source: SourceRef{Table: "c"}, KeyColumns: []string{"cid"}, FKs: fkChild},
	}
	return MustNewSet(ms...)
}

// executeFleet runs every fleet member against the catalog and returns
// the distinct result rows (fleet members are unioned under set
// semantics by the layer above).
func executeFleet(t *testing.T, fleet []*sql.SelectStmt, cat *relation.Catalog) []string {
	t.Helper()
	seen := map[string]struct{}{}
	for _, stmt := range fleet {
		plan, err := engine.Build(stmt, engine.CatalogResolver(cat))
		if err != nil {
			t.Fatalf("build %s: %v", stmt.String(), err)
		}
		rows, err := plan.Execute(engine.NewExecContext(cat))
		if err != nil {
			t.Fatalf("execute %s: %v", stmt.String(), err)
		}
		for _, r := range rows {
			seen[fmt.Sprint(r)] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestRestrictExactDropsRedundantBranches(t *testing.T) {
	u := cq.UCQ{cq.New([]string{"x"}, cq.ClassAtom("Child", cq.V("x")))}
	set := pruneMappings(true)
	fleet, stats, err := Unfold(u, set, UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 1 {
		t.Fatalf("fleet = %d members, want 1 (exact restriction)", len(fleet))
	}
	if stats.ConstraintPruned == 0 {
		t.Error("ConstraintPruned not counted")
	}
	// Without the constraints both candidates breed a branch.
	fleet, _, err = Unfold(u, stripConstraints(set), UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 2 {
		t.Fatalf("unpruned fleet = %d members, want 2", len(fleet))
	}
}

func TestFKJoinEliminated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cat := pruneRig(t, rng, 10, 30)
	u := cq.UCQ{cq.New([]string{"x", "y"},
		cq.PropAtom("hasParent", cq.V("x"), cq.V("y")),
		cq.ClassAtom("Parent", cq.V("y")))}
	set := pruneMappings(false)

	plain, _, err := Unfold(u, stripConstraints(set), UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, stats, err := Unfold(u, set, UnfoldOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FKJoinsRemoved == 0 {
		t.Fatal("FK join not eliminated")
	}
	for _, stmt := range pruned {
		if len(stmt.From) != 1 {
			t.Fatalf("join survives pruning: %s", stmt.String())
		}
	}
	want := executeFleet(t, plain, cat)
	got := executeFleet(t, pruned, cat)
	if len(want) == 0 {
		t.Fatal("oracle fleet returned nothing — vacuous")
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("FK elimination changed answers:\nwant %v\ngot  %v", want, got)
	}
}

func TestFKProbeDropsEmptyBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cat := pruneRig(t, rng, 10, 30)
	set := pruneMappings(false)
	// x constant with pid=999, absent from p: the FK probe proves the
	// branch empty at unfolding time.
	u := cq.UCQ{cq.New([]string{"x"},
		cq.PropAtom("hasParent", cq.V("x"), cq.C(rdf.NewIRI("http://e/p/999"))))}
	fleet, stats, err := Unfold(u, set, UnfoldOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 0 {
		t.Fatalf("provably-empty branch survived: %d members", len(fleet))
	}
	if stats.ConstraintPruned == 0 {
		t.Error("ConstraintPruned not counted for the FK probe")
	}
	// A present constant keeps the branch.
	u = cq.UCQ{cq.New([]string{"x"},
		cq.PropAtom("hasParent", cq.V("x"), cq.C(rdf.NewIRI("http://e/p/3"))))}
	fleet, _, err = Unfold(u, set, UnfoldOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 1 {
		t.Fatalf("satisfiable branch dropped: %d members", len(fleet))
	}
}

// TestPruneRandomizedDifferential is the seeded differential oracle:
// over randomized catalogs, queries, and constraint declarations, the
// fleet unfolded under the constraints the catalog satisfies must
// return exactly the answers of the as-written fleet (set semantics).
// One catalog in four breaks the declared foreign key.
func TestPruneRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var prunedSomething, violated bool
	for iter := 0; iter < 40; iter++ {
		parents := 2 + rng.Intn(12)
		children := 1 + rng.Intn(40)
		dangling := 0
		if rng.Intn(4) == 0 {
			dangling = 1 + rng.Intn(3)
		}
		cat := pruneRigDangling(t, rng, parents, children, dangling)
		declared := pruneMappings(rng.Intn(2) == 0)
		set, violations := NewConstraints(declared, cat).Checked()
		if (len(violations) > 0) != (dangling > 0) {
			t.Fatalf("iter %d: %d dangling rows, violations %v", iter, dangling, violations)
		}
		violated = violated || len(violations) > 0

		var u cq.UCQ
		switch rng.Intn(4) {
		case 0:
			u = cq.UCQ{cq.New([]string{"x"}, cq.ClassAtom("Child", cq.V("x")))}
		case 1:
			u = cq.UCQ{cq.New([]string{"x", "y"},
				cq.PropAtom("hasParent", cq.V("x"), cq.V("y")),
				cq.ClassAtom("Parent", cq.V("y")))}
		case 2:
			// Constant object, present or absent at random.
			pid := rng.Intn(2 * parents)
			u = cq.UCQ{cq.New([]string{"x"},
				cq.PropAtom("hasParent", cq.V("x"), cq.C(rdf.NewIRI(fmt.Sprintf("http://e/p/%d", pid)))))}
		default:
			u = cq.UCQ{cq.New([]string{"x", "y"},
				cq.ClassAtom("Child", cq.V("x")),
				cq.PropAtom("hasParent", cq.V("x"), cq.V("y")),
				cq.ClassAtom("Parent", cq.V("y")))}
		}

		plain, _, err := Unfold(u, stripConstraints(declared), UnfoldOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pruned, stats, err := Unfold(u, set, UnfoldOptions{Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ConstraintPruned > 0 || stats.FKJoinsRemoved > 0 {
			prunedSomething = true
		}
		want := executeFleet(t, plain, cat)
		got := executeFleet(t, pruned, cat)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("iter %d: pruned fleet diverges\nwant %v\ngot  %v", iter, want, got)
		}
	}
	if !prunedSomething || !violated {
		t.Fatalf("pruned in some iteration: %t, violated in some: %t — the differential is partly vacuous", prunedSomething, violated)
	}
}
