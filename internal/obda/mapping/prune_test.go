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

// plantDuplicateKeys inserts n child rows that repeat the cid of an
// existing row under another parent, 0 unless the row's parent is 0:
// they violate the declared key c(cid) but not the foreign key, and
// one of each twin pair has parent 0.
func plantDuplicateKeys(t *testing.T, rng *rand.Rand, cat *relation.Catalog, n int) {
	t.Helper()
	c, err := cat.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	rows := c.Rows()
	for i := 0; i < n; i++ {
		row := rows[rng.Intn(len(rows))]
		pid := int64(0)
		if row[1].Int == 0 {
			pid = 1
		}
		c.MustInsert(relation.Tuple{row[0], relation.Int(pid)})
	}
}

// stripConstraints is the as-written oracle's mapping set: set with
// every key and FK declaration removed, so unfolding prunes and
// eliminates nothing on their strength.
func stripConstraints(set *Set) *Set {
	var ms []Mapping
	for _, m := range set.All() {
		m.KeyColumns, m.FKs = nil, nil
		ms = append(ms, m)
	}
	return MustNewSet(ms...)
}

func pruneMappings() *Set {
	childT := MustParseTemplate("http://e/c/{cid}")
	parentT := MustParseTemplate("http://e/p/{pid}")
	fkChild := []ForeignKey{{Columns: []string{"pid"}, RefTable: "p", RefColumns: []string{"pid"}}}
	ms := []Mapping{
		{ID: "child", Pred: "Child", IsClass: true, Subject: childT,
			Source: SourceRef{Table: "c"}, KeyColumns: []string{"cid"}, FKs: fkChild},
		// A filtered mapping over c: joined with hasParent on cid, its
		// self-join is sound only while cid is a key of c.
		{ID: "childOfP0", Pred: "ChildOfP0", IsClass: true, Subject: childT,
			Source:     SourceRef{Table: "c", Where: sql.Bin("=", sql.Col("pid"), sql.Lit(relation.Int(0)))},
			KeyColumns: []string{"cid"}, FKs: fkChild},
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

func TestFKProbeDropsEmptyBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cat := pruneRig(t, rng, 10, 30)
	set := pruneMappings()
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
// over randomized catalogs and queries, the fleet unfolded under the
// constraints the catalog satisfies must return exactly the answers of
// the as-written fleet, which declares no key and no foreign key (set
// semantics). One catalog in four breaks the declared foreign key, and
// one in four the declared key of c.
func TestPruneRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var prunedSomething, selfJoined, fkViolated, keyViolated bool
	for iter := 0; iter < 40; iter++ {
		parents := 2 + rng.Intn(12)
		children := 1 + rng.Intn(40)
		dangling, dups := 0, 0
		if rng.Intn(4) == 0 {
			dangling = 1 + rng.Intn(3)
		}
		if rng.Intn(4) == 0 {
			dups = 1 + rng.Intn(3)
		}
		cat := pruneRigDangling(t, rng, parents, children, dangling)
		plantDuplicateKeys(t, rng, cat, dups)
		declared := pruneMappings()
		set, violations := NewConstraints(declared, cat).Checked()
		var broken, found []string
		if dups > 0 {
			broken = append(broken, "key c(cid)")
		}
		if dangling > 0 {
			broken = append(broken, "c(pid) -> p(pid)")
		}
		for _, v := range violations {
			found = append(found, v.Constraint)
		}
		if fmt.Sprint(found) != fmt.Sprint(broken) {
			t.Fatalf("iter %d: %d dangling rows, %d repeated keys, violations %v", iter, dangling, dups, violations)
		}
		fkViolated = fkViolated || dangling > 0
		keyViolated = keyViolated || dups > 0

		var u cq.UCQ
		switch rng.Intn(5) {
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
		case 3:
			u = cq.UCQ{cq.New([]string{"x", "y"},
				cq.ClassAtom("Child", cq.V("x")),
				cq.PropAtom("hasParent", cq.V("x"), cq.V("y")),
				cq.ClassAtom("Parent", cq.V("y")))}
		default:
			// Every parent of a child that has parent 0 under its id:
			// under a repeated cid, more than parent 0.
			u = cq.UCQ{cq.New([]string{"x", "y"},
				cq.ClassAtom("ChildOfP0", cq.V("x")),
				cq.PropAtom("hasParent", cq.V("x"), cq.V("y")))}
		}

		plain, _, err := Unfold(u, stripConstraints(declared), UnfoldOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pruned, stats, err := Unfold(u, set, UnfoldOptions{Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		prunedSomething = prunedSomething || stats.ConstraintPruned > 0
		selfJoined = selfJoined || stats.SelfJoinsRemoved > 0
		want := executeFleet(t, plain, cat)
		got := executeFleet(t, pruned, cat)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("iter %d: pruned fleet diverges\nwant %v\ngot  %v", iter, want, got)
		}
	}
	if !prunedSomething || !selfJoined || !fkViolated || !keyViolated {
		t.Fatalf("in some iteration: pruned %t, self-join removed %t, FK violated %t, key violated %t — the differential is partly vacuous",
			prunedSomething, selfJoined, fkViolated, keyViolated)
	}
}
