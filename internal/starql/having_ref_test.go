package starql

import (
	"fmt"
	"math"

	"repro/internal/relation"
)

// This file holds the tree-walking HAVING interpreter: it enumerates
// variable environments by copying maps at every quantifier and atom.
// It is the reference the compiled slot-frame matcher (compile.go) is
// checked against by the differential tests; production evaluation
// always runs the compiled matcher.

// ---- HAVING evaluation ----

// evalEnv carries variable assignments during HAVING evaluation.
type evalEnv struct {
	seq     *Sequence
	binding Binding
	states  map[string]int
	values  map[string]relation.Value
	aggs    map[string]*AggregateDef
}

func (e *evalEnv) child() *evalEnv {
	out := &evalEnv{seq: e.seq, binding: e.binding, aggs: e.aggs,
		states: map[string]int{}, values: map[string]relation.Value{}}
	for k, v := range e.states {
		out.states[k] = v
	}
	for k, v := range e.values {
		out.values[k] = v
	}
	return out
}

// EvalHaving evaluates a HAVING condition over a sequence under a WHERE
// binding. Aggregate macros are expanded from defs.
func EvalHaving(h HavingExpr, seq *Sequence, binding Binding, defs map[string]*AggregateDef) (bool, error) {
	env := &evalEnv{seq: seq, binding: binding, aggs: defs,
		states: map[string]int{}, values: map[string]relation.Value{}}
	envs, err := matches(h, env)
	if err != nil {
		return false, err
	}
	return len(envs) > 0, nil
}

// matches returns the environments extending env under which h holds;
// atoms with fresh object variables act as binding generators.
func matches(h HavingExpr, env *evalEnv) ([]*evalEnv, error) {
	switch x := h.(type) {
	case *AndExpr:
		ls, err := matches(x.L, env)
		if err != nil {
			return nil, err
		}
		var out []*evalEnv
		for _, l := range ls {
			rs, err := matches(x.R, l)
			if err != nil {
				return nil, err
			}
			out = append(out, rs...)
		}
		return out, nil
	case *OrExpr:
		ls, err := matches(x.L, env)
		if err != nil {
			return nil, err
		}
		rs, err := matches(x.R, env)
		if err != nil {
			return nil, err
		}
		return append(ls, rs...), nil
	case *NotExpr:
		sub, err := matches(x.E, env)
		if err != nil {
			return nil, err
		}
		if len(sub) == 0 {
			return []*evalEnv{env}, nil
		}
		return nil, nil
	case *ExistsExpr:
		for i := 0; i < env.seq.Len(); i++ {
			child := env.child()
			child.states[x.StateVar] = i
			sub, err := matches(x.Cond, child)
			if err != nil {
				return nil, err
			}
			if len(sub) > 0 {
				return []*evalEnv{env}, nil
			}
		}
		return nil, nil
	case *ForallExpr:
		ok, err := evalForall(x, env)
		if err != nil {
			return nil, err
		}
		if ok {
			return []*evalEnv{env}, nil
		}
		return nil, nil
	case *ifThenExpr:
		guards, err := matches(x.guard, env)
		if err != nil {
			return nil, err
		}
		for _, g := range guards {
			sub, err := matches(x.then, g)
			if err != nil {
				return nil, err
			}
			if len(sub) == 0 {
				return nil, nil
			}
		}
		return []*evalEnv{env}, nil
	case *GraphAtom:
		return matchGraphAtom(x, env)
	case *Comparison:
		ok, err := evalComparison(x, env)
		if err != nil {
			return nil, err
		}
		if ok {
			return []*evalEnv{env}, nil
		}
		return nil, nil
	case *AggCall:
		ok, err := evalAggCall(x, env)
		if err != nil {
			return nil, err
		}
		if ok {
			return []*evalEnv{env}, nil
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("starql: cannot evaluate %T", h)
	}
}

func evalForall(f *ForallExpr, env *evalEnv) (bool, error) {
	n := env.seq.Len()
	check := func(child *evalEnv) (bool, error) {
		body := f.Conclusion
		if f.Guard != nil {
			guards, err := matches(f.Guard, child)
			if err != nil {
				return false, err
			}
			for _, g := range guards {
				sub, err := matches(body, g)
				if err != nil {
					return false, err
				}
				if len(sub) == 0 {
					return false, nil
				}
			}
			return true, nil
		}
		if len(f.ValueVars) > 0 {
			return false, fmt.Errorf("starql: FORALL with value variables requires an IF guard")
		}
		sub, err := matches(body, child)
		if err != nil {
			return false, err
		}
		return len(sub) > 0, nil
	}
	if f.StateVar2 == "" {
		for i := 0; i < n; i++ {
			child := env.child()
			child.states[f.StateVar1] = i
			ok, err := check(child)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if f.Rel == "<" && !(i < j) {
				continue
			}
			if f.Rel == "<=" && !(i <= j) {
				continue
			}
			child := env.child()
			child.states[f.StateVar1] = i
			child.states[f.StateVar2] = j
			ok, err := check(child)
			if err != nil || !ok {
				return false, err
			}
		}
	}
	return true, nil
}

func matchGraphAtom(g *GraphAtom, env *evalEnv) ([]*evalEnv, error) {
	idx, ok := env.states[g.StateVar]
	if !ok {
		return nil, fmt.Errorf("starql: unbound state variable ?%s", g.StateVar)
	}
	subj, err := resolveIRI(g.Pattern.S, env)
	if err != nil {
		return nil, err
	}
	var pred string
	if g.Pattern.TypeAtom || !g.Pattern.P.IsVar() {
		p := g.Pattern.P
		if p.IsVar() {
			return nil, fmt.Errorf("starql: variable predicate in graph atom")
		}
		pred = p.Term.Value
	} else {
		return nil, fmt.Errorf("starql: variable predicate in graph atom")
	}
	vals := env.seq.Values(idx, subj, pred)
	if g.Pattern.TypeAtom || g.Pattern.NoObject {
		if len(vals) > 0 {
			return []*evalEnv{env}, nil
		}
		return nil, nil
	}
	obj := g.Pattern.O
	if obj.IsVar() {
		if bound, ok := env.values[obj.Var]; ok {
			for _, v := range vals {
				if relation.Equal(v, bound) {
					return []*evalEnv{env}, nil
				}
			}
			return nil, nil
		}
		var out []*evalEnv
		for _, v := range vals {
			child := env.child()
			child.values[obj.Var] = v
			out = append(out, child)
		}
		return out, nil
	}
	want := termToValue(obj.Term)
	for _, v := range vals {
		if relation.Equal(v, want) {
			return []*evalEnv{env}, nil
		}
	}
	return nil, nil
}

func evalComparison(c *Comparison, env *evalEnv) (bool, error) {
	right, err := resolveValue(c.Right, env)
	if err != nil {
		return false, err
	}
	for _, l := range c.Left {
		left, err := resolveValue(l, env)
		if err != nil {
			return false, err
		}
		cmp, ok := relation.Compare(left, right)
		if !ok {
			return false, nil
		}
		var pass bool
		switch c.Op {
		case "<":
			pass = cmp < 0
		case "<=":
			pass = cmp <= 0
		case ">":
			pass = cmp > 0
		case ">=":
			pass = cmp >= 0
		case "=":
			pass = cmp == 0
		case "!=":
			pass = cmp != 0
		}
		if !pass {
			return false, nil
		}
	}
	return true, nil
}

// resolveIRI resolves a node to a subject IRI string.
func resolveIRI(n Node, env *evalEnv) (string, error) {
	if !n.IsVar() {
		return n.Term.Value, nil
	}
	if t, ok := env.binding[n.Var]; ok {
		return t.Value, nil
	}
	if v, ok := env.values[n.Var]; ok {
		return rawString(v), nil
	}
	return "", fmt.Errorf("starql: unbound subject variable ?%s", n.Var)
}

// resolveValue resolves a node to a comparable value: state variables
// become their state index, bound value variables their value, WHERE
// variables their term, constants their literal value.
func resolveValue(n Node, env *evalEnv) (relation.Value, error) {
	if !n.IsVar() {
		return termToValue(n.Term), nil
	}
	if i, ok := env.states[n.Var]; ok {
		return relation.Int(int64(i)), nil
	}
	if v, ok := env.values[n.Var]; ok {
		return v, nil
	}
	if t, ok := env.binding[n.Var]; ok {
		return termToValue(t), nil
	}
	return relation.Null, fmt.Errorf("starql: unbound variable ?%s", n.Var)
}

// evalAggCall expands macros and evaluates built-in aggregates.
func evalAggCall(a *AggCall, env *evalEnv) (bool, error) {
	if def, ok := env.aggs[a.Name]; ok {
		if len(a.Args) != len(def.Params) {
			return false, fmt.Errorf("starql: aggregate %s arity mismatch", a.Name)
		}
		body := a.Expand(def)
		sub, err := matches(body, env)
		if err != nil {
			return false, err
		}
		return len(sub) > 0, nil
	}
	switch a.Name {
	case "THRESHOLD.ABOVE":
		// THRESHOLD.ABOVE(?s, attr, limit): some state has value > limit.
		if len(a.Args) != 3 {
			return false, fmt.Errorf("starql: THRESHOLD.ABOVE expects 3 arguments")
		}
		subj, err := resolveIRI(a.Args[0], env)
		if err != nil {
			return false, err
		}
		limit, err := resolveValue(a.Args[2], env)
		if err != nil {
			return false, err
		}
		for i := 0; i < env.seq.Len(); i++ {
			for _, v := range env.seq.Values(i, subj, a.Args[1].Term.Value) {
				if c, ok := relation.Compare(v, limit); ok && c > 0 {
					return true, nil
				}
			}
		}
		return false, nil
	case "TREND.INCREASE":
		// TREND.INCREASE(?s, attr): last observed value exceeds the first.
		if len(a.Args) != 2 {
			return false, fmt.Errorf("starql: TREND.INCREASE expects 2 arguments")
		}
		subj, err := resolveIRI(a.Args[0], env)
		if err != nil {
			return false, err
		}
		series := seriesOfRef(env.seq, subj, a.Args[1].Term.Value)
		if len(series) < 2 {
			return false, nil
		}
		return series[len(series)-1] > series[0], nil
	case "PEARSON.CORRELATION":
		// PEARSON.CORRELATION(?a, ?b, attr, min): correlation of the two
		// subjects' per-state series is at least min.
		if len(a.Args) != 4 {
			return false, fmt.Errorf("starql: PEARSON.CORRELATION expects 4 arguments")
		}
		sa, err := resolveIRI(a.Args[0], env)
		if err != nil {
			return false, err
		}
		sb, err := resolveIRI(a.Args[1], env)
		if err != nil {
			return false, err
		}
		attr := a.Args[2].Term.Value
		min, err := resolveValue(a.Args[3], env)
		if err != nil {
			return false, err
		}
		minF, _ := min.AsFloat()
		r, ok := pearsonOverStatesRef(env.seq, sa, sb, attr)
		return ok && r >= minF, nil
	default:
		return false, fmt.Errorf("starql: unknown aggregate %s", a.Name)
	}
}

// seriesOfRef extracts the per-state series of a subject's attribute
// (first value per state, when numeric) as a slice: the reference for
// the one-pass TREND.INCREASE.
func seriesOfRef(seq *Sequence, subject, attr string) []float64 {
	var out []float64
	for i := 0; i < seq.Len(); i++ {
		vals := seq.Values(i, subject, attr)
		if len(vals) == 0 {
			continue
		}
		if f, ok := vals[0].AsFloat(); ok {
			out = append(out, f)
		}
	}
	return out
}

// pearsonOverStatesRef builds the two subjects' series over the states
// where both are present and correlates them with Pearson: the
// reference for the one-pass PearsonOverStates.
func pearsonOverStatesRef(seq *Sequence, subjA, subjB, attr string) (float64, bool) {
	var xs, ys []float64
	for i := 0; i < seq.Len(); i++ {
		va := seq.Values(i, subjA, attr)
		vb := seq.Values(i, subjB, attr)
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		fa, ok1 := va[0].AsFloat()
		fb, ok2 := vb[0].AsFloat()
		if ok1 && ok2 {
			xs = append(xs, fa)
			ys = append(ys, fb)
		}
	}
	return Pearson(xs, ys)
}

// Pearson computes the correlation coefficient of two equal-length
// series; ok is false for fewer than two points or zero variance.
func Pearson(xs, ys []float64) (float64, bool) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, false
	}
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy - sx*sy/n
	vx := sxx - sx*sx/n
	vy := syy - sy*sy/n
	if vx <= 0 || vy <= 0 {
		return 0, false
	}
	return cov / math.Sqrt(vx*vy), true
}
