package starql

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rdf"
	"repro/internal/relation"
)

// This file lowers a checked HAVING condition into a compile-once,
// evaluate-many program, mirroring how internal/engine compiles
// relational expressions (DESIGN.md §8/§10). The tree interpreter in
// having_ref_test.go (matches) is the reference semantics and the
// differential-test oracle; the compiler must agree with it on every
// well-formed condition.
//
// Two costs dominate the interpreter on the Figure 1 workload: every
// quantifier iteration and every generator atom allocates a child
// environment by copying two maps (evalEnv.child), and aggregate macros
// re-substitute their body on every call. The compiled form removes
// both: variables live in integer-indexed frame slots resolved at
// compile time (bindings are written and restored in place while
// backtracking), and macros are expanded exactly once, at compile time.
//
// The program is built in continuation-passing style: compiling a node
// bakes in the continuation that consumes each solution, so conjunction
// chains, disjunction alternatives, and generator loops become static
// closure graphs with no per-evaluation closure allocation. Generator
// semantics follow matches() exactly: a graph atom with a fresh object
// variable emits one solution per value; quantifiers bind their state
// slots, explore, and restore before yielding to the continuation
// (matches() likewise returns the *original* environment from EXISTS /
// FORALL).
//
// One documented deviation: the compiled program short-circuits
// disjunctions and quantifier searches, so a branch that would error at
// runtime is not evaluated once an earlier branch already satisfied the
// condition; the interpreter, which materialises full solution lists,
// reports such errors. Conditions that pass Query.Validate only error
// on genuinely malformed constructs (e.g. an unguarded FORALL with
// value variables), where both forms fail identically.

// maxMacroExpansionDepth bounds compile-time aggregate-macro expansion
// so a (hypothetical) self-referential macro cannot hang compilation.
const maxMacroExpansionDepth = 64

// chVal is a value-variable slot: ok reports whether the slot is bound.
type chVal struct {
	v  relation.Value
	ok bool
}

// chTerm is a WHERE-binding slot, filled once per Eval.
type chTerm struct {
	t  rdf.Term
	ok bool
}

// chEnv is the slot-indexed evaluation frame: the compiled program's
// replacement for evalEnv. States holds one index per state variable
// (-1 = unbound), values one slot per value variable, binding one slot
// per referenced WHERE variable.
type chEnv struct {
	seq     *Sequence
	states  []int
	values  []chVal
	binding []chTerm
}

// chProg evaluates the residual program under env, feeding every
// solution to its statically-baked continuation; it reports whether any
// solution was accepted.
type chProg func(env *chEnv) (bool, error)

// chValFn resolves a node to a comparable value (resolveValue).
type chValFn func(env *chEnv) (relation.Value, error)

// chIRIFn resolves a node to a subject IRI string (resolveIRI).
type chIRIFn func(env *chEnv) (string, error)

// contAccept is the terminal continuation: the first solution wins.
func contAccept(*chEnv) (bool, error) { return true, nil }

// CompiledHaving is a HAVING condition lowered to a flat closure
// program over slot-indexed environment frames. It is immutable after
// CompileHaving and safe for concurrent Eval calls (frames are pooled
// per evaluation).
type CompiledHaving struct {
	prog      chProg
	numStates int
	numValues int
	bindNames []string
	preds     []string
	pool      sync.Pool
}

// CompileHaving compiles a checked HAVING condition, pre-expanding
// aggregate macros from defs. The returned program agrees with the
// reference interpreter (having_ref_test.go) on every well-formed
// condition; TestCompiledHavingMatchesInterpreter is the differential.
func CompileHaving(h HavingExpr, defs map[string]*AggregateDef) *CompiledHaving {
	c := &havingCompiler{
		states: map[string]int{},
		values: map[string]int{},
		binds:  map[string]int{},
		preds:  map[string]bool{},
		aggs:   defs,
	}
	prog := c.compile(h, contAccept)
	ch := &CompiledHaving{
		prog:      prog,
		numStates: len(c.states),
		numValues: len(c.values),
		bindNames: c.bindNames,
		preds:     make([]string, 0, len(c.preds)),
	}
	for p := range c.preds {
		ch.preds = append(ch.preds, p)
	}
	sort.Strings(ch.preds)
	ch.pool.New = func() any {
		return &chEnv{
			states:  make([]int, ch.numStates),
			values:  make([]chVal, ch.numValues),
			binding: make([]chTerm, len(ch.bindNames)),
		}
	}
	return ch
}

// Slots reports the compiled frame layout: state-variable, value-
// variable, and WHERE-binding slot counts.
func (ch *CompiledHaving) Slots() (states, values, bindings int) {
	return ch.numStates, ch.numValues, len(ch.bindNames)
}

// Preds lists, sorted, every predicate the program can read from a
// sequence: the constant predicates of its graph atoms and the
// attributes of its built-in aggregates, after macro expansion (which
// leaves every predicate constant). A sequence restricted to these
// predicates evaluates exactly like the full one.
func (ch *CompiledHaving) Preds() []string { return ch.preds }

// Eval evaluates the compiled condition over a sequence under a WHERE
// binding.
func (ch *CompiledHaving) Eval(seq *Sequence, binding Binding) (bool, error) {
	env := ch.pool.Get().(*chEnv)
	env.seq = seq
	for i := range env.states {
		env.states[i] = -1
	}
	for i := range env.values {
		env.values[i] = chVal{}
	}
	for i, name := range ch.bindNames {
		if t, ok := binding[name]; ok {
			env.binding[i] = chTerm{t, true}
		} else {
			env.binding[i] = chTerm{}
		}
	}
	ok, err := ch.prog(env)
	env.seq = nil
	ch.pool.Put(env)
	return ok, err
}

// havingCompiler allocates frame slots while walking the condition.
// Slots are keyed by variable name: combined with save/restore at every
// binding site this reproduces the interpreter's dynamic scoping
// (nested binders shadow, siblings reuse).
type havingCompiler struct {
	states    map[string]int
	values    map[string]int
	binds     map[string]int
	bindNames []string
	preds     map[string]bool // predicates the program reads
	aggs      map[string]*AggregateDef
	depth     int // macro expansion depth
}

func (c *havingCompiler) stateSlot(name string) int {
	if i, ok := c.states[name]; ok {
		return i
	}
	i := len(c.states)
	c.states[name] = i
	return i
}

func (c *havingCompiler) valueSlot(name string) int {
	if i, ok := c.values[name]; ok {
		return i
	}
	i := len(c.values)
	c.values[name] = i
	return i
}

func (c *havingCompiler) bindSlot(name string) int {
	if i, ok := c.binds[name]; ok {
		return i
	}
	i := len(c.binds)
	c.binds[name] = i
	c.bindNames = append(c.bindNames, name)
	return i
}

// errProg defers a compile-time-detected fault to evaluation time, so
// the compiled program errors exactly where the interpreter does.
func errProg(err error) chProg {
	return func(*chEnv) (bool, error) { return false, err }
}

// compile lowers h with continuation k. The continuation is static —
// conjunction threads it, generators call it per solution — so the
// whole program is one closure graph built once.
func (c *havingCompiler) compile(h HavingExpr, k chProg) chProg {
	switch x := h.(type) {
	case *AndExpr:
		return c.compile(x.L, c.compile(x.R, k))
	case *OrExpr:
		l := c.compile(x.L, k)
		r := c.compile(x.R, k)
		return func(env *chEnv) (bool, error) {
			ok, err := l(env)
			if err != nil || ok {
				return ok, err
			}
			return r(env)
		}
	case *NotExpr:
		// Negation as failure: succeed with the frame unchanged iff the
		// sub-program has no solution (generators restore their slots).
		sub := c.compile(x.E, contAccept)
		return func(env *chEnv) (bool, error) {
			ok, err := sub(env)
			if err != nil {
				return false, err
			}
			if ok {
				return false, nil
			}
			return k(env)
		}
	case *ExistsExpr:
		slot := c.stateSlot(x.StateVar)
		cond := c.compile(x.Cond, contAccept)
		return func(env *chEnv) (bool, error) {
			old := env.states[slot]
			found := false
			var err error
			for i := 0; i < env.seq.Len(); i++ {
				env.states[slot] = i
				found, err = cond(env)
				if err != nil || found {
					break
				}
			}
			env.states[slot] = old
			if err != nil {
				return false, err
			}
			if found {
				// As in matches(): the quantifier yields the original
				// frame, its state binding does not escape.
				return k(env)
			}
			return false, nil
		}
	case *ForallExpr:
		return c.compileForall(x, k)
	case *ifThenExpr:
		fail := c.compileGuardFail(x.guard, x.then)
		return func(env *chEnv) (bool, error) {
			bad, err := fail(env)
			if err != nil {
				return false, err
			}
			if bad {
				return false, nil
			}
			return k(env)
		}
	case *GraphAtom:
		return c.compileGraphAtom(x, k)
	case *Comparison:
		return c.compileComparison(x, k)
	case *AggCall:
		return c.compileAggCall(x, k)
	default:
		return errProg(fmt.Errorf("starql: cannot evaluate %T", h))
	}
}

// compileGuardFail compiles "some guard solution falsifies then": the
// building block of guarded implication (FORALL ... IF/THEN and the
// standalone IF/THEN carrier). The guard runs with a continuation that
// tests the conclusion and keeps backtracking while it holds, so the
// search stops at the first counterexample.
func (c *havingCompiler) compileGuardFail(guard, then HavingExpr) chProg {
	concl := c.compile(then, contAccept)
	return c.compile(guard, func(env *chEnv) (bool, error) {
		ok, err := concl(env)
		if err != nil {
			return false, err
		}
		return !ok, nil
	})
}

func (c *havingCompiler) compileForall(f *ForallExpr, k chProg) chProg {
	var check chProg
	switch {
	case f.Guard != nil:
		fail := c.compileGuardFail(f.Guard, f.Conclusion)
		check = func(env *chEnv) (bool, error) {
			bad, err := fail(env)
			if err != nil {
				return false, err
			}
			return !bad, nil
		}
	case len(f.ValueVars) > 0:
		check = errProg(fmt.Errorf("starql: FORALL with value variables requires an IF guard"))
	default:
		check = c.compile(f.Conclusion, contAccept)
	}
	s1 := c.stateSlot(f.StateVar1)
	if f.StateVar2 == "" {
		return func(env *chEnv) (bool, error) {
			old := env.states[s1]
			for i := 0; i < env.seq.Len(); i++ {
				env.states[s1] = i
				ok, err := check(env)
				if err != nil || !ok {
					env.states[s1] = old
					return false, err
				}
			}
			env.states[s1] = old
			return k(env)
		}
	}
	s2 := c.stateSlot(f.StateVar2)
	strict, weak := f.Rel == "<", f.Rel == "<="
	return func(env *chEnv) (bool, error) {
		old1, old2 := env.states[s1], env.states[s2]
		n := env.seq.Len()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if strict && i >= j {
					continue
				}
				if weak && i > j {
					continue
				}
				env.states[s1], env.states[s2] = i, j
				ok, err := check(env)
				if err != nil || !ok {
					env.states[s1], env.states[s2] = old1, old2
					return false, err
				}
			}
		}
		env.states[s1], env.states[s2] = old1, old2
		return k(env)
	}
}

func (c *havingCompiler) compileGraphAtom(g *GraphAtom, k chProg) chProg {
	sslot := c.stateSlot(g.StateVar)
	subj := c.compileIRI(g.Pattern.S)
	unboundState := fmt.Errorf("starql: unbound state variable ?%s", g.StateVar)
	var predErr error
	var pred string
	if g.Pattern.P.IsVar() {
		predErr = fmt.Errorf("starql: variable predicate in graph atom")
	} else {
		pred = g.Pattern.P.Term.Value
		c.preds[pred] = true
	}
	// span resolves the atom's elements at the bound state, preserving
	// the interpreter's error order (state, then subject, then
	// predicate); the matcher reads each value through the sequence.
	span := func(env *chEnv) (lo, hi, p int, err error) {
		idx := env.states[sslot]
		if idx < 0 {
			return 0, 0, 0, unboundState
		}
		s, err := subj(env)
		if err != nil {
			return 0, 0, 0, err
		}
		if predErr != nil {
			return 0, 0, 0, predErr
		}
		lo, end, p := env.seq.run(s, pred)
		lo, hi = env.seq.at(idx, lo, end, p)
		return lo, hi, p, nil
	}
	if g.Pattern.TypeAtom || g.Pattern.NoObject {
		return func(env *chEnv) (bool, error) {
			lo, hi, _, err := span(env)
			if err != nil {
				return false, err
			}
			if lo < hi {
				return k(env)
			}
			return false, nil
		}
	}
	obj := g.Pattern.O
	if obj.IsVar() {
		vslot := c.valueSlot(obj.Var)
		return func(env *chEnv) (bool, error) {
			lo, hi, p, err := span(env)
			if err != nil {
				return false, err
			}
			if bound := env.values[vslot]; bound.ok {
				for j := lo; j < hi; j++ {
					if relation.Equal(env.seq.value(p, j), bound.v) {
						return k(env)
					}
				}
				return false, nil
			}
			// Generator position: one solution per value, restoring the
			// slot while backtracking (evalEnv.child without the copies).
			for j := lo; j < hi; j++ {
				env.values[vslot] = chVal{env.seq.value(p, j), true}
				ok, err := k(env)
				if err != nil || ok {
					env.values[vslot] = chVal{}
					return ok, err
				}
			}
			env.values[vslot] = chVal{}
			return false, nil
		}
	}
	want := termToValue(obj.Term)
	return func(env *chEnv) (bool, error) {
		lo, hi, p, err := span(env)
		if err != nil {
			return false, err
		}
		for j := lo; j < hi; j++ {
			if relation.Equal(env.seq.value(p, j), want) {
				return k(env)
			}
		}
		return false, nil
	}
}

func (c *havingCompiler) compileComparison(cm *Comparison, k chProg) chProg {
	right := c.compileValue(cm.Right)
	lefts := make([]chValFn, len(cm.Left))
	for i, l := range cm.Left {
		lefts[i] = c.compileValue(l)
	}
	var test func(int) bool
	switch cm.Op {
	case "<":
		test = func(d int) bool { return d < 0 }
	case "<=":
		test = func(d int) bool { return d <= 0 }
	case ">":
		test = func(d int) bool { return d > 0 }
	case ">=":
		test = func(d int) bool { return d >= 0 }
	case "=":
		test = func(d int) bool { return d == 0 }
	case "!=":
		test = func(d int) bool { return d != 0 }
	}
	return func(env *chEnv) (bool, error) {
		rv, err := right(env)
		if err != nil {
			return false, err
		}
		for _, lf := range lefts {
			lv, err := lf(env)
			if err != nil {
				return false, err
			}
			d, ok := relation.Compare(lv, rv)
			if !ok {
				return false, nil // incomparable types: false, not error
			}
			if test == nil || !test(d) {
				return false, nil
			}
		}
		return k(env)
	}
}

func (c *havingCompiler) compileAggCall(a *AggCall, k chProg) chProg {
	if def, ok := c.aggs[a.Name]; ok {
		if len(a.Args) != len(def.Params) {
			return errProg(fmt.Errorf("starql: aggregate %s arity mismatch", a.Name))
		}
		if c.depth >= maxMacroExpansionDepth {
			return errProg(fmt.Errorf("starql: aggregate %s expands too deeply", a.Name))
		}
		// Macro pre-expansion: substitute once here instead of on every
		// evaluation (evalAggCall re-expands per call).
		c.depth++
		body := c.compile(a.Expand(def), contAccept)
		c.depth--
		return func(env *chEnv) (bool, error) {
			ok, err := body(env)
			if err != nil {
				return false, err
			}
			if ok {
				return k(env)
			}
			return false, nil
		}
	}
	switch a.Name {
	case "THRESHOLD.ABOVE":
		if len(a.Args) != 3 {
			return errProg(fmt.Errorf("starql: THRESHOLD.ABOVE expects 3 arguments"))
		}
		subj := c.compileIRI(a.Args[0])
		attr := a.Args[1].Term.Value
		c.preds[attr] = true
		limit := c.compileValue(a.Args[2])
		return func(env *chEnv) (bool, error) {
			s, err := subj(env)
			if err != nil {
				return false, err
			}
			lim, err := limit(env)
			if err != nil {
				return false, err
			}
			lo, hi, p := env.seq.run(s, attr)
			for j := lo; j < hi; j++ {
				if d, ok := relation.Compare(env.seq.value(p, j), lim); ok && d > 0 {
					return k(env)
				}
			}
			return false, nil
		}
	case "TREND.INCREASE":
		if len(a.Args) != 2 {
			return errProg(fmt.Errorf("starql: TREND.INCREASE expects 2 arguments"))
		}
		subj := c.compileIRI(a.Args[0])
		attr := a.Args[1].Term.Value
		c.preds[attr] = true
		return func(env *chEnv) (bool, error) {
			s, err := subj(env)
			if err != nil {
				return false, err
			}
			if !trendIncreases(env.seq, s, attr) {
				return false, nil
			}
			return k(env)
		}
	case "PEARSON.CORRELATION":
		if len(a.Args) != 4 {
			return errProg(fmt.Errorf("starql: PEARSON.CORRELATION expects 4 arguments"))
		}
		sa := c.compileIRI(a.Args[0])
		sb := c.compileIRI(a.Args[1])
		attr := a.Args[2].Term.Value
		c.preds[attr] = true
		min := c.compileValue(a.Args[3])
		return func(env *chEnv) (bool, error) {
			s1, err := sa(env)
			if err != nil {
				return false, err
			}
			s2, err := sb(env)
			if err != nil {
				return false, err
			}
			m, err := min(env)
			if err != nil {
				return false, err
			}
			minF, _ := m.AsFloat()
			r, ok := PearsonOverStates(env.seq, s1, s2, attr)
			if ok && r >= minF {
				return k(env)
			}
			return false, nil
		}
	default:
		return errProg(fmt.Errorf("starql: unknown aggregate %s", a.Name))
	}
}

// compileValue mirrors resolveValue: state index, then bound value
// variable, then WHERE binding, then unbound error — decided per
// evaluation against the slots, as the interpreter decides against its
// maps.
func (c *havingCompiler) compileValue(n Node) chValFn {
	if !n.IsVar() {
		v := termToValue(n.Term)
		return func(*chEnv) (relation.Value, error) { return v, nil }
	}
	ss := c.stateSlot(n.Var)
	vs := c.valueSlot(n.Var)
	bs := c.bindSlot(n.Var)
	unbound := fmt.Errorf("starql: unbound variable ?%s", n.Var)
	return func(env *chEnv) (relation.Value, error) {
		if i := env.states[ss]; i >= 0 {
			return relation.Int(int64(i)), nil
		}
		if bv := env.values[vs]; bv.ok {
			return bv.v, nil
		}
		if bt := env.binding[bs]; bt.ok {
			return termToValue(bt.t), nil
		}
		return relation.Null, unbound
	}
}

// compileIRI mirrors resolveIRI: WHERE binding first, then bound value
// variable, then unbound error.
func (c *havingCompiler) compileIRI(n Node) chIRIFn {
	if !n.IsVar() {
		s := n.Term.Value
		return func(*chEnv) (string, error) { return s, nil }
	}
	bs := c.bindSlot(n.Var)
	vs := c.valueSlot(n.Var)
	unbound := fmt.Errorf("starql: unbound subject variable ?%s", n.Var)
	return func(env *chEnv) (string, error) {
		if bt := env.binding[bs]; bt.ok {
			return bt.t.Value, nil
		}
		if bv := env.values[vs]; bv.ok {
			return rawString(bv.v), nil
		}
		return "", unbound
	}
}
