package mapping

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obda/cq"
	"repro/internal/rdf"
	"repro/internal/relation"
)

// TestConstraintsDropViolatedFK: a dangling child row breaks the
// declared foreign key. The check reports it once, removes the key from
// every mapping declaring it, and checks again only when the catalog
// moves; the unfolded fleet then answers as the as-written one, where
// the declared key would have proved the dangling row's branch empty.
func TestConstraintsDropViolatedFK(t *testing.T) {
	cat := pruneRigDangling(t, rand.New(rand.NewSource(3)), 5, 12, 1)
	declared := pruneMappings()
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

	// The dangling row's parent, p/5, is absent from p.
	u := cq.UCQ{cq.New([]string{"x"},
		cq.PropAtom("hasParent", cq.V("x"), cq.C(rdf.NewIRI("http://e/p/5"))))}
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
	declared := pruneMappings()
	set, violations := NewConstraints(declared, cat).Checked()
	if violations != nil || set != declared {
		t.Fatalf("holding constraints reported %v", violations)
	}
	if p, _ := cat.Get("p"); !p.HasIndex("pid") {
		t.Fatal("no index on the referenced p(pid)")
	}
}

// TestConstraintsDropViolatedKey: a child row that repeats an existing
// cid under parent 0 breaks the declared key c(cid). The check reports
// it, clears the key of every mapping over c, and the fleet of
// ChildOfP0(x), hasParent(x, y) then answers as the as-written one: the
// repeated child has both parents, which the self-join the key allowed
// would merge away.
func TestConstraintsDropViolatedKey(t *testing.T) {
	cat := pruneRig(t, rand.New(rand.NewSource(5)), 5, 12)
	c, _ := cat.Get("c")
	var twin relation.Tuple
	for _, row := range c.Rows() {
		if row[1].Int != 0 {
			twin = row
			break
		}
	}
	c.MustInsert(relation.Tuple{twin[0], relation.Int(0)})
	declared := pruneMappings()
	set, violations := NewConstraints(declared, cat).Checked()
	want := []Violation{{Constraint: "key c(cid)", Rows: 1}}
	if fmt.Sprint(violations) != fmt.Sprint(want) {
		t.Fatalf("violations = %v, want %v", violations, want)
	}
	for _, m := range set.All() {
		if m.Source.Table == "c" && len(m.KeyColumns) != 0 {
			t.Fatalf("mapping %s keeps the violated key", m.ID)
		}
	}

	u := cq.UCQ{cq.New([]string{"x", "y"},
		cq.ClassAtom("ChildOfP0", cq.V("x")),
		cq.PropAtom("hasParent", cq.V("x"), cq.V("y")))}
	plain, _, err := Unfold(u, stripConstraints(declared), UnfoldOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unchecked, _, err := Unfold(u, declared, UnfoldOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	checked, stats, err := Unfold(u, set, UnfoldOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SelfJoinsRemoved != 0 {
		t.Fatalf("self-join removed under the violated key: %v", checked)
	}
	want2 := executeFleet(t, plain, cat)
	if got := executeFleet(t, checked, cat); fmt.Sprint(got) != fmt.Sprint(want2) {
		t.Fatalf("checked fleet answers %v, as written %v", got, want2)
	}
	if got := executeFleet(t, unchecked, cat); fmt.Sprint(got) == fmt.Sprint(want2) {
		t.Fatal("the declared key changes no answer: the check above is vacuous")
	}
}

// TestConstraintsRecheckSameSizeRefresh: a refresh that truncates c and
// refills it to the same row count, now with a dangling pid, moves the
// catalog state; the check runs again and finds the violation.
func TestConstraintsRecheckSameSizeRefresh(t *testing.T) {
	const parents, children = 5, 12
	cat := pruneRig(t, rand.New(rand.NewSource(7)), parents, children)
	c := NewConstraints(pruneMappings(), cat)
	if _, v := c.Checked(); v != nil {
		t.Fatalf("holding constraints reported %v", v)
	}
	tbl, _ := cat.Get("c")
	tbl.Truncate()
	for i := 0; i < children-1; i++ {
		tbl.MustInsert(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i % parents))})
	}
	tbl.MustInsert(relation.Tuple{relation.Int(children), relation.Int(parents)})
	if tbl.Len() != children {
		t.Fatalf("refilled c holds %d rows, want %d", tbl.Len(), children)
	}
	set, v := c.Checked()
	want := []Violation{{Constraint: "c(pid) -> p(pid)", Rows: 1}}
	if fmt.Sprint(v) != fmt.Sprint(want) {
		t.Fatalf("after a same-size refresh: violations %v, want %v", v, want)
	}
	for _, m := range set.All() {
		if len(m.FKs) != 0 {
			t.Fatalf("mapping %s keeps the violated key", m.ID)
		}
	}
}

// TestConstraintsCheckedConcurrently: translations on several
// goroutines share one check; its violation is reported once, and every
// caller gets the same checked set.
func TestConstraintsCheckedConcurrently(t *testing.T) {
	cat := pruneRigDangling(t, rand.New(rand.NewSource(6)), 5, 12, 1)
	c := NewConstraints(pruneMappings(), cat)
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
