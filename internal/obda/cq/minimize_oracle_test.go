package cq_test

import (
	"math/rand"
	"testing"

	"repro/internal/obda/cq"
	"repro/internal/obda/rewrite"
	"repro/internal/rdf"
	"repro/internal/siemens"
	"repro/internal/starql"
)

// pairwiseMinimize is the reference minimisation: drop exact duplicates,
// then drop every disjunct contained in some other disjunct, keeping the
// first of two equivalent ones. It checks all pairs, so it is quadratic
// in the input; UCQ.Minimize must return exactly what it returns.
func pairwiseMinimize(u cq.UCQ) cq.UCQ {
	seen := map[string]bool{}
	var dedup cq.UCQ
	for _, q := range u {
		k := q.Canonical()
		if seen[k] {
			continue
		}
		seen[k] = true
		dedup = append(dedup, q)
	}
	var out cq.UCQ
	for i, qi := range dedup {
		redundant := false
		for j, qj := range dedup {
			if i == j {
				continue
			}
			if cq.ContainedIn(qi, qj) && (!cq.ContainedIn(qj, qi) || j < i) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, qi)
		}
	}
	return out
}

func ucqString(u cq.UCQ) string {
	if len(u) == 0 {
		return "<empty>"
	}
	return u.String()
}

// randomCQ draws a small valid CQ over a tiny vocabulary, so random
// unions contain duplicates, equivalent renamings, strict containments
// and filters on head and non-head variables.
func randomCQ(rng *rand.Rand) cq.CQ {
	vars := []string{"x", "y", "z", "w"}
	consts := []rdf.Term{rdf.NewIRI("http://e/c1"), rdf.NewIRI("http://e/c2")}
	arg := func() cq.Arg {
		if rng.Intn(6) == 0 {
			return cq.C(consts[rng.Intn(len(consts))])
		}
		return cq.V(vars[rng.Intn(len(vars))])
	}
	head := []string{"x"}
	if rng.Intn(3) == 0 {
		head = []string{"x", "y"}
	}
	var body []cq.Atom
	// Bind the head variables first so the query validates.
	for _, h := range head {
		if rng.Intn(2) == 0 {
			body = append(body, cq.ClassAtom([]string{"A", "B"}[rng.Intn(2)], cq.V(h)))
		} else {
			body = append(body, cq.PropAtom([]string{"P", "Q"}[rng.Intn(2)], cq.V(h), arg()))
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		if rng.Intn(3) == 0 {
			body = append(body, cq.ClassAtom([]string{"A", "B"}[rng.Intn(2)], arg()))
		} else {
			body = append(body, cq.PropAtom([]string{"P", "Q"}[rng.Intn(2)], arg(), arg()))
		}
	}
	q := cq.New(head, cq.DedupAtoms(body)...)
	if rng.Intn(3) == 0 {
		var bodyVars []string
		for _, a := range q.Body {
			for _, x := range a.Args {
				if x.IsVar {
					bodyVars = append(bodyVars, x.Var)
				}
			}
		}
		q.Filters = append(q.Filters, cq.Filter{
			Arg:   cq.V(bodyVars[rng.Intn(len(bodyVars))]),
			Op:    []string{">", "="}[rng.Intn(2)],
			Value: rdf.NewInteger(int64(rng.Intn(2))),
		})
	}
	return q
}

// TestMinimizeMatchesPairwiseOracleSeeded compares the survivor-only
// Minimize with the pairwise oracle on seeded random unions, some with
// a shared head arity and some mixing arities.
func TestMinimizeMatchesPairwiseOracleSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	dropped, trials := 0, 400
	for trial := 0; trial < trials; trial++ {
		var u cq.UCQ
		for n := 2 + rng.Intn(30); n > 0; n-- {
			q := randomCQ(rng)
			if err := q.Validate(); err != nil {
				t.Fatalf("trial %d: generator produced an invalid CQ %s: %v", trial, q, err)
			}
			u = append(u, q)
		}
		got, want := u.Minimize(), pairwiseMinimize(u)
		if ucqString(got) != ucqString(want) {
			t.Fatalf("trial %d: Minimize differs from the pairwise oracle\ninput:\n%s\ngot:\n%s\nwant:\n%s",
				trial, ucqString(u), ucqString(got), ucqString(want))
		}
		if len(got) < len(u) {
			dropped++
		}
	}
	if dropped < trials/4 {
		t.Fatalf("only %d of %d trials dropped a disjunct: the generator does not exercise containment", dropped, trials)
	}
}

// TestMinimizeMatchesPairwiseOracleCatalog compares the two on the
// unminimised PerfectRef output of every catalog task's WHERE clause.
func TestMinimizeMatchesPairwiseOracleCatalog(t *testing.T) {
	tbox := siemens.TBox()
	for _, task := range siemens.Catalog() {
		q, err := starql.Parse(task.Query)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		static, err := starql.BGPToCQ(q.Where, q.WhereVars(), q.WhereFilters...)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		u, _, err := rewrite.PerfectRef(static, tbox, rewrite.Options{SkipMinimize: true})
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		got, want := u.Minimize(), pairwiseMinimize(u)
		if ucqString(got) != ucqString(want) {
			t.Fatalf("%s: Minimize differs from the pairwise oracle on %d disjuncts\ngot:\n%s\nwant:\n%s",
				task.ID, len(u), ucqString(got), ucqString(want))
		}
		t.Logf("%s: %d disjuncts minimise to %d", task.ID, len(u), len(got))
	}
}

// TestContainmentBacktracksOverFilters pins that containment searches
// every atom mapping for one that also carries the filters: the first
// mapping of P(x,y) picks y→a, whose filter does not match, and only
// y→b does. The Q atom makes the containment strict.
func TestContainmentBacktracksOverFilters(t *testing.T) {
	gt := func(v string) cq.Filter {
		return cq.Filter{Arg: cq.V(v), Op: ">", Value: rdf.NewInteger(5)}
	}
	general := cq.New([]string{"x"}, cq.PropAtom("P", cq.V("x"), cq.V("y"))).WithFilters(gt("y"))
	specific := cq.New([]string{"x"},
		cq.PropAtom("P", cq.V("x"), cq.V("a")),
		cq.PropAtom("P", cq.V("x"), cq.V("b")),
		cq.PropAtom("Q", cq.V("x"), cq.V("a"))).WithFilters(gt("b"))
	if !cq.ContainedIn(specific, general) {
		t.Fatalf("%s should be contained in %s", specific, general)
	}
	if cq.ContainedIn(general, specific) {
		t.Fatalf("%s must not be contained in %s", general, specific)
	}
}
