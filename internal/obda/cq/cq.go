// Package cq implements conjunctive queries over ontology vocabularies:
// the internal query representation that STARQL WHERE clauses compile to,
// that the PerfectRef rewriter enriches, and that the mapping layer
// unfolds into SQL(+). It provides unification, homomorphism checking,
// containment, and UCQ minimisation.
package cq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/rdf"
)

// Arg is one argument of an atom: a variable or an RDF constant.
type Arg struct {
	Var   string
	Const rdf.Term
	IsVar bool
}

// V returns a variable argument.
func V(name string) Arg { return Arg{Var: name, IsVar: true} }

// C returns a constant argument.
func C(t rdf.Term) Arg { return Arg{Const: t} }

// String renders the argument; variables print with a leading '?'.
func (a Arg) String() string {
	if a.IsVar {
		return "?" + a.Var
	}
	return a.Const.String()
}

// Equal reports structural equality.
func (a Arg) Equal(b Arg) bool {
	if a.IsVar != b.IsVar {
		return false
	}
	if a.IsVar {
		return a.Var == b.Var
	}
	return a.Const == b.Const
}

// Atom is one body atom: a class atom C(x) (one argument) or a
// property atom P(x, y) (two arguments).
type Atom struct {
	Pred string // class or property IRI
	Args []Arg
}

// ClassAtom builds C(x).
func ClassAtom(class string, x Arg) Atom { return Atom{Pred: class, Args: []Arg{x}} }

// PropAtom builds P(x, y).
func PropAtom(prop string, x, y Arg) Atom { return Atom{Pred: prop, Args: []Arg{x, y}} }

// IsClass reports whether the atom is unary.
func (a Atom) IsClass() bool { return len(a.Args) == 1 }

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, x := range a.Args {
		parts[i] = x.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Equal reports structural equality of atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// Filter is a comparison side-condition over a query variable (or, after
// reduce steps substitute a constant, over a ground value): the FILTER
// clause of STARQL WHERE blocks. Op is one of = != < <= > >=.
type Filter struct {
	Arg   Arg
	Op    string
	Value rdf.Term
}

// String renders the filter.
func (f Filter) String() string {
	return "FILTER(" + f.Arg.String() + " " + f.Op + " " + f.Value.String() + ")"
}

// CQ is a conjunctive query: answer variables, a body, and optional
// filter side-conditions.
type CQ struct {
	Head    []string // answer variable names
	Body    []Atom
	Filters []Filter
}

// New builds a CQ.
func New(head []string, body ...Atom) CQ { return CQ{Head: head, Body: body} }

// WithFilters returns a copy of the query with the filters attached.
func (q CQ) WithFilters(fs ...Filter) CQ {
	out := q.Clone()
	out.Filters = append(out.Filters, fs...)
	return out
}

// String renders the query as "q(x,y) :- A(x), P(x,y)".
func (q CQ) String() string {
	atoms := make([]string, len(q.Body))
	for i, a := range q.Body {
		atoms[i] = a.String()
	}
	s := "q(" + strings.Join(q.Head, ",") + ") :- " + strings.Join(atoms, ", ")
	for _, f := range q.Filters {
		s += ", " + f.String()
	}
	return s
}

// Clone deep-copies the query.
func (q CQ) Clone() CQ {
	head := make([]string, len(q.Head))
	copy(head, q.Head)
	body := make([]Atom, len(q.Body))
	for i, a := range q.Body {
		args := make([]Arg, len(a.Args))
		copy(args, a.Args)
		body[i] = Atom{Pred: a.Pred, Args: args}
	}
	filters := make([]Filter, len(q.Filters))
	copy(filters, q.Filters)
	return CQ{Head: head, Body: body, Filters: filters}
}

// Validate checks that head variables occur in the body and atoms are
// unary or binary.
func (q CQ) Validate() error {
	if len(q.Body) == 0 {
		return fmt.Errorf("cq: empty body")
	}
	vars := map[string]bool{}
	for _, a := range q.Body {
		if len(a.Args) != 1 && len(a.Args) != 2 {
			return fmt.Errorf("cq: atom %s has arity %d", a, len(a.Args))
		}
		if a.Pred == "" {
			return fmt.Errorf("cq: atom with empty predicate")
		}
		for _, x := range a.Args {
			if x.IsVar {
				vars[x.Var] = true
			}
		}
	}
	for _, h := range q.Head {
		if !vars[h] {
			return fmt.Errorf("cq: head variable %s not in body", h)
		}
	}
	for _, f := range q.Filters {
		switch f.Op {
		case "=", "!=", "<", "<=", ">", ">=":
		default:
			return fmt.Errorf("cq: invalid filter operator %q", f.Op)
		}
		if f.Arg.IsVar && !vars[f.Arg.Var] {
			return fmt.Errorf("cq: filter variable %s not in body", f.Arg.Var)
		}
	}
	return nil
}

// VarCounts returns how many times each variable occurs in the body.
func (q CQ) VarCounts() map[string]int {
	counts := map[string]int{}
	for _, a := range q.Body {
		for _, x := range a.Args {
			if x.IsVar {
				counts[x.Var]++
			}
		}
	}
	return counts
}

// IsHeadVar reports whether name is an answer variable.
func (q CQ) IsHeadVar(name string) bool {
	for _, h := range q.Head {
		if h == name {
			return true
		}
	}
	return false
}

// Unbound reports whether the argument at position pos of atom idx is
// "unbound" in the PerfectRef sense: an anonymous variable, i.e. a
// variable occurring exactly once in the body and not in the head.
// Constants are always bound.
func (q CQ) Unbound(idx, pos int) bool {
	a := q.Body[idx].Args[pos]
	if !a.IsVar {
		return false
	}
	if q.IsHeadVar(a.Var) {
		return false
	}
	for _, f := range q.Filters {
		if f.Arg.IsVar && f.Arg.Var == a.Var {
			return false // constrained by a filter
		}
	}
	return q.VarCounts()[a.Var] == 1
}

// Substitution maps variable names to arguments.
type Substitution map[string]Arg

// Apply rewrites an argument under the substitution (chasing chains of
// variable renamings).
func (s Substitution) Apply(a Arg) Arg {
	for a.IsVar {
		next, ok := s[a.Var]
		if !ok || next.Equal(a) {
			return a
		}
		a = next
	}
	return a
}

// ApplyCQ rewrites a whole query under the substitution. Head variables
// mapped to other variables are renamed; head variables mapped to
// constants are dropped from the head (the answer becomes partially
// fixed), matching PerfectRef's reduce step.
func (s Substitution) ApplyCQ(q CQ) CQ {
	out := q.Clone()
	for i, a := range out.Body {
		for j, x := range a.Args {
			out.Body[i].Args[j] = s.Apply(x)
		}
	}
	var head []string
	for _, h := range out.Head {
		r := s.Apply(V(h))
		if r.IsVar {
			head = append(head, r.Var)
		} else {
			head = append(head, h) // keep name; bound elsewhere
		}
	}
	out.Head = head
	for i, f := range out.Filters {
		out.Filters[i].Arg = s.Apply(f.Arg)
	}
	return out
}

// MGU computes the most general unifier of two atoms with the same
// predicate and arity, or reports failure. Head variables unify like any
// other variable (PerfectRef's reduce applies the unifier to the whole
// query including the head).
func MGU(a, b Atom) (Substitution, bool) {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return nil, false
	}
	s := Substitution{}
	for i := range a.Args {
		x := s.Apply(a.Args[i])
		y := s.Apply(b.Args[i])
		switch {
		case x.Equal(y):
		case x.IsVar:
			s[x.Var] = y
		case y.IsVar:
			s[y.Var] = x
		default:
			return nil, false // distinct constants
		}
	}
	return s, true
}

// DedupAtoms removes duplicate atoms, preserving order.
func DedupAtoms(body []Atom) []Atom {
	var out []Atom
	for _, a := range body {
		dup := false
		for _, b := range out {
			if a.Equal(b) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a)
		}
	}
	return out
}

// Reduce unifies body atoms i and j (which must unify) and returns the
// reduced query with duplicates removed.
func Reduce(q CQ, i, j int) (CQ, bool) {
	s, ok := MGU(q.Body[i], q.Body[j])
	if !ok {
		return CQ{}, false
	}
	out := s.ApplyCQ(q)
	out.Body = DedupAtoms(out.Body)
	return out, true
}

// Canonical returns a normal form string usable as a dedup key: variables
// renamed by first occurrence after sorting atoms by a structure-only
// key. Queries with equal canonical strings are isomorphic; the converse
// may not hold, which only costs duplicates, not correctness.
func (q CQ) Canonical() string {
	type atomKey struct {
		orig Atom
		key  string
	}
	keys := make([]atomKey, len(q.Body))
	headSet := map[string]bool{}
	for _, h := range q.Head {
		headSet[h] = true
	}
	for i, a := range q.Body {
		parts := make([]string, 0, len(a.Args)+1)
		parts = append(parts, a.Pred)
		for _, x := range a.Args {
			switch {
			case !x.IsVar:
				parts = append(parts, x.Const.String())
			case headSet[x.Var]:
				parts = append(parts, "?H:"+x.Var) // head vars keep names
			default:
				parts = append(parts, "?_")
			}
		}
		keys[i] = atomKey{a, strings.Join(parts, "|")}
	}
	sort.SliceStable(keys, func(x, y int) bool { return keys[x].key < keys[y].key })
	rename := map[string]string{}
	next := 0
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k.orig.Pred)
		sb.WriteByte('(')
		for idx, x := range k.orig.Args {
			if idx > 0 {
				sb.WriteByte(',')
			}
			switch {
			case !x.IsVar:
				sb.WriteString(x.Const.String())
			case headSet[x.Var]:
				sb.WriteString("?" + x.Var)
			default:
				r, ok := rename[x.Var]
				if !ok {
					r = fmt.Sprintf("?v%d", next)
					next++
					rename[x.Var] = r
				}
				sb.WriteString(r)
			}
		}
		sb.WriteByte(')')
		sb.WriteByte(' ')
	}
	fstrs := make([]string, 0, len(q.Filters))
	for _, f := range q.Filters {
		arg := f.Arg
		if arg.IsVar && !headSet[arg.Var] {
			if r, ok := rename[arg.Var]; ok {
				fstrs = append(fstrs, r+f.Op+f.Value.String())
				continue
			}
		}
		fstrs = append(fstrs, arg.String()+f.Op+f.Value.String())
	}
	sort.Strings(fstrs)
	return "[" + strings.Join(q.Head, ",") + "] " + sb.String() + strings.Join(fstrs, " ")
}

// Homomorphism reports whether there is a homomorphism from q2 into q1
// that is the identity on head variables (so q1 ⊆ q2 as queries: every
// answer of q1 is an answer of q2).
func Homomorphism(from, to CQ) bool {
	return predsCovered(predSet(from), predSet(to)) && homomorphism(from, to, Substitution{})
}

// homomorphism searches for the mapping of Homomorphism with h as its
// (empty) binding. Callers have checked that every predicate of from
// occurs in to (a homomorphism preserves predicates).
func homomorphism(from, to CQ, h Substitution) bool {
	if len(from.Head) != len(to.Head) {
		return false
	}
	// Map head vars positionally. The binding maps source variables to
	// final target arguments; source and target variable namespaces are
	// distinct even when names coincide, so bindings are never chased.
	// A repeated source head variable must map to one target variable:
	// q(x,x) answers pairs with equal components, which never cover
	// q(x,y)'s independent pairs.
	for i, v := range from.Head {
		want := V(to.Head[i])
		if prev, ok := h[v]; ok {
			if !prev.Equal(want) {
				return false
			}
			continue
		}
		h[v] = want
	}
	return matchAtoms(from, 0, h, to)
}

// matchAtoms backtracks over candidate targets, mutating one shared
// binding with undo (no per-branch map copies). A complete atom mapping
// must also carry every source filter onto a syntactically matching
// target filter; when it does not, the search backtracks to the next
// mapping. Checking filters per mapping (not once, after the first
// atom mapping) makes containment transitive, which Minimize's
// survivor-only scan relies on.
func matchAtoms(from CQ, idx int, s Substitution, to CQ) bool {
	if idx == len(from.Body) {
		return filtersHold(from.Filters, s, to.Filters)
	}
	a := from.Body[idx]
	for _, t := range to.Body {
		if t.Pred != a.Pred || len(t.Args) != len(a.Args) {
			continue
		}
		var added []string
		ok := true
		for i := range a.Args {
			x := a.Args[i]
			y := t.Args[i]
			if x.IsVar {
				if bound, exists := s[x.Var]; exists {
					// Already mapped to a target arg: must equal y exactly.
					if !bound.Equal(y) {
						ok = false
						break
					}
					continue
				}
				s[x.Var] = y
				added = append(added, x.Var)
				continue
			}
			if !x.Equal(y) {
				ok = false
				break
			}
		}
		if ok && matchAtoms(from, idx+1, s, to) {
			return true
		}
		for _, v := range added {
			delete(s, v)
		}
	}
	return false
}

// filtersHold reports whether every source filter, under the binding,
// appears among the target's filters. Requiring a syntactic match is
// conservative: a missed containment only keeps a redundant disjunct.
func filtersHold(fs []Filter, s Substitution, target []Filter) bool {
	for _, f := range fs {
		arg := f.Arg
		if arg.IsVar {
			if mapped, ok := s[arg.Var]; ok {
				arg = mapped
			}
		}
		found := false
		for _, g := range target {
			if g.Op == f.Op && g.Value == f.Value && g.Arg.Equal(arg) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// predSet returns the query's distinct body predicates, sorted.
func predSet(q CQ) []string {
	preds := make([]string, 0, len(q.Body))
	for _, a := range q.Body {
		preds = append(preds, a.Pred)
	}
	sort.Strings(preds)
	n := 0
	for i, p := range preds {
		if i == 0 || p != preds[n-1] {
			preds[n] = p
			n++
		}
	}
	return preds[:n]
}

// predsCovered reports whether the sorted set sub is a subset of the
// sorted set super.
func predsCovered(sub, super []string) bool {
	j := 0
	for _, p := range sub {
		for j < len(super) && super[j] < p {
			j++
		}
		if j == len(super) || super[j] != p {
			return false
		}
	}
	return true
}

// ContainedIn reports q1 ⊆ q2 (every answer of q1 over any data is an
// answer of q2), decided by homomorphism from q2 into q1.
func ContainedIn(q1, q2 CQ) bool {
	return Homomorphism(q2, q1)
}

// UCQ is a union of conjunctive queries.
type UCQ []CQ

// String renders the union.
func (u UCQ) String() string {
	parts := make([]string, len(u))
	for i, q := range u {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\nUNION ")
}

// Minimize removes syntactic duplicates and CQs subsumed by another
// disjunct, preserving the union's semantics. It scans the union once
// and checks each disjunct only against the disjuncts kept so far: a
// newcomer contained in a kept disjunct is dropped (so of two
// equivalent disjuncts the first stays), and otherwise it evicts every
// kept disjunct it strictly contains. Because containment is
// transitive, this keeps exactly the disjuncts that no other disjunct
// strictly contains and no earlier one equals — what checking all pairs
// keeps — at a cost that grows with the kept set, not the input. The
// result lists them in input order.
func (u UCQ) Minimize() UCQ {
	type disjunct struct {
		q     CQ
		preds []string
	}
	seen := map[string]bool{}
	var kept []disjunct
	h := Substitution{}
	// contained reports a.q ⊆ b.q: a homomorphism from b into a.
	contained := func(a, b disjunct) bool {
		if !predsCovered(b.preds, a.preds) {
			return false
		}
		clear(h)
		return homomorphism(b.q, a.q, h)
	}
	for _, q := range u {
		k := q.Canonical()
		if seen[k] {
			continue
		}
		seen[k] = true
		d := disjunct{q: q, preds: predSet(q)}
		subsumed := false
		for _, s := range kept {
			if contained(d, s) {
				subsumed = true
				break
			}
		}
		if subsumed {
			continue
		}
		n := 0
		for _, s := range kept {
			if !contained(s, d) {
				kept[n] = s
				n++
			}
		}
		kept = append(kept[:n], d)
	}
	var out UCQ
	for _, d := range kept {
		out = append(out, d.q)
	}
	return out
}
