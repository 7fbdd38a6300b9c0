package mapping

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obda/cq"
	"repro/internal/relation"
	"repro/internal/sql"
)

// TestConstraintsDropViolatedFK: a dangling child row breaks the
// declared foreign key. The check reports it once, removes the key from
// every mapping declaring it, and checks again only when the catalog
// moves; the unfolded fleet then answers as the as-written one, where
// the declared key would have dropped the join that filters the row.
func TestConstraintsDropViolatedFK(t *testing.T) {
	cat := pruneRigDangling(t, rand.New(rand.NewSource(3)), 5, 12, 1)
	declared := pruneMappings(false)
	c := NewConstraints(declared, cat)
	set, violations := c.Checked()
	want := []Violation{{Constraint: "c(pid) -> p(pid)", Rows: 1}}
	if fmt.Sprint(violations) != fmt.Sprint(want) {
		t.Fatalf("violations = %v, want %v", violations, want)
	}
	for _, m := range set.All() {
		if len(m.FKs) != 0 {
			t.Fatalf("mapping %s keeps the violated key", m.ID)
		}
	}
	if again, v := c.Checked(); again != set || v != nil {
		t.Fatalf("unchanged catalog checked again: %v", v)
	}

	u := cq.UCQ{cq.New([]string{"x", "y"},
		cq.PropAtom("hasParent", cq.V("x"), cq.V("y")),
		cq.ClassAtom("Parent", cq.V("y")))}
	plain, _, err := Unfold(u, stripConstraints(declared), UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unchecked, _, err := Unfold(u, declared, UnfoldOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	checked, _, err := Unfold(u, set, UnfoldOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	want2 := executeFleet(t, plain, cat)
	if got := executeFleet(t, checked, cat); fmt.Sprint(got) != fmt.Sprint(want2) {
		t.Fatalf("checked fleet answers %v, as written %v", got, want2)
	}
	if got := executeFleet(t, unchecked, cat); fmt.Sprint(got) == fmt.Sprint(want2) {
		t.Fatal("the declared key changes no answer: the check above is vacuous")
	}

	// A second dangling row moves the catalog: checked again.
	tbl, _ := cat.Get("c")
	tbl.MustInsert(relation.Tuple{relation.Int(100), relation.Int(100)})
	if _, v := c.Checked(); len(v) != 1 || v[0].Rows != 2 {
		t.Fatalf("after a second dangling row: violations %v, want one with 2 rows", v)
	}
}

// TestConstraintsKeepHoldingFK: a catalog that honours the key keeps it,
// and the check leaves a hash index on the referenced columns for the
// emptiness probes.
func TestConstraintsKeepHoldingFK(t *testing.T) {
	cat := pruneRig(t, rand.New(rand.NewSource(4)), 5, 12)
	declared := pruneMappings(true)
	set, violations := NewConstraints(declared, cat).Checked()
	if violations != nil || set != declared {
		t.Fatalf("holding constraints reported %v", violations)
	}
	if p, _ := cat.Get("p"); !p.HasIndex("pid") {
		t.Fatal("no index on the referenced p(pid)")
	}
}

// TestConstraintsDropViolatedExact: an exact mapping over part of a
// table, with another mapping of its predicate over all of it, is not
// exact; the check clears the flag, so unfolding keeps both branches.
func TestConstraintsDropViolatedExact(t *testing.T) {
	cat := pruneRig(t, rand.New(rand.NewSource(5)), 5, 12)
	childT := MustParseTemplate("http://e/c/{cid}")
	declared := MustNewSet(
		Mapping{ID: "someChildren", Pred: "Child", IsClass: true, Subject: childT, Exact: true,
			Source: SourceRef{Table: "c", Where: sql.Bin("<", sql.Col("cid"), sql.Lit(relation.Int(4)))}},
		Mapping{ID: "allChildren", Pred: "Child", IsClass: true, Subject: childT,
			Source: SourceRef{Table: "c"}},
	)
	set, violations := NewConstraints(declared, cat).Checked()
	want := []Violation{{Constraint: "exact someChildren", Rows: 8}}
	if fmt.Sprint(violations) != fmt.Sprint(want) {
		t.Fatalf("violations = %v, want %v", violations, want)
	}
	u := cq.UCQ{cq.New([]string{"x"}, cq.ClassAtom("Child", cq.V("x")))}
	fleet, _, err := Unfold(u, set, UnfoldOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if got := executeFleet(t, fleet, cat); len(got) != 12 {
		t.Fatalf("checked fleet answers %d children, want 12", len(got))
	}
}

// TestConstraintsCheckedConcurrently: translations on several
// goroutines share one check; its violation is reported once, and every
// caller gets the same checked set.
func TestConstraintsCheckedConcurrently(t *testing.T) {
	cat := pruneRigDangling(t, rand.New(rand.NewSource(6)), 5, 12, 1)
	c := NewConstraints(pruneMappings(false), cat)
	var reported atomic.Int64
	sets := make([]*Set, 8)
	var wg sync.WaitGroup
	for g := range sets {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			set, v := c.Checked()
			sets[g] = set
			reported.Add(int64(len(v)))
		}(g)
	}
	wg.Wait()
	if n := reported.Load(); n != 1 {
		t.Fatalf("violation reported %d times, want once", n)
	}
	for g, set := range sets {
		if set != sets[0] {
			t.Fatalf("goroutine %d got a different checked set", g)
		}
	}
}
