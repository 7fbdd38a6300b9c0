package starql

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rdf"
	"repro/internal/relation"
)

// Differential test: the compiled HAVING matcher must agree with the
// reference interpreter (matches) on randomly generated conditions over
// randomly generated sequences, mirroring engine's TestCompileMatchesEval.
// The generator is scope-aware and only produces well-formed conditions
// (every variable reference is bound on every evaluation path), because
// the compiled program legitimately short-circuits branches the
// interpreter materialises — see the deviation note in compile.go.

const diffSubjA = "http://x/sensor/A"
const diffSubjB = "http://x/sensor/B"

var cmpOps = []string{"<", "<=", ">", ">=", "=", "!="}

// havingGen generates random well-formed HAVING conditions.
type havingGen struct {
	rng  *rand.Rand
	next int
	pool map[string][]string // per-prefix previously issued names
}

func newHavingGen(rng *rand.Rand) *havingGen {
	return &havingGen{rng: rng, pool: map[string][]string{}}
}

// fresh issues a variable name; 1 in 8 reuses an earlier name of the
// same kind to exercise the dynamic shadowing semantics both
// evaluators share.
func (g *havingGen) fresh(prefix string) string {
	if prev := g.pool[prefix]; len(prev) > 0 && g.rng.Intn(8) == 0 {
		return prev[g.rng.Intn(len(prev))]
	}
	g.next++
	name := prefix + string(rune('0'+g.next%10)) + string(rune('a'+g.next/10%26))
	g.pool[prefix] = append(g.pool[prefix], name)
	return name
}

func (g *havingGen) subject() Node {
	switch g.rng.Intn(4) {
	case 0:
		return NVar("t")
	case 1:
		return NTerm(rdf.NewIRI(diffSubjA))
	default:
		return NVar("s")
	}
}

func (g *havingGen) attr() Node {
	if g.rng.Intn(3) == 0 {
		return NTerm(rdf.NewIRI(sieNS + "aux"))
	}
	return NTerm(rdf.NewIRI(sieNS + "hasValue"))
}

func (g *havingGen) numConst() Node {
	if g.rng.Intn(2) == 0 {
		return NTerm(rdf.NewDouble(float64(1 + g.rng.Intn(5))))
	}
	return NTerm(rdf.NewInteger(int64(g.rng.Intn(5))))
}

// bindAtom is a generator atom binding value variable x at state k.
func (g *havingGen) bindAtom(k, x string) HavingExpr {
	return &GraphAtom{StateVar: k, Pattern: TriplePattern{
		S: g.subject(), P: g.attr(), O: NVar(x)}}
}

// valueUse consumes a bound value variable in a comparison.
func (g *havingGen) valueUse(x string, states []string) HavingExpr {
	op := cmpOps[g.rng.Intn(len(cmpOps))]
	left := []Node{NVar(x)}
	if g.rng.Intn(4) == 0 {
		left = append(left, g.numConst())
	}
	right := g.numConst()
	if len(states) > 0 && g.rng.Intn(4) == 0 {
		right = NVar(states[g.rng.Intn(len(states))])
	}
	return &Comparison{Left: left, Op: op, Right: right}
}

func (g *havingGen) comparison(states []string) HavingExpr {
	operand := func() Node {
		switch {
		case len(states) > 0 && g.rng.Intn(3) == 0:
			return NVar(states[g.rng.Intn(len(states))])
		case g.rng.Intn(8) == 0:
			return NVar("s") // IRI vs number: incomparable, stays false
		default:
			return g.numConst()
		}
	}
	left := []Node{operand()}
	if g.rng.Intn(3) == 0 {
		left = append(left, operand())
	}
	return &Comparison{Left: left, Op: cmpOps[g.rng.Intn(len(cmpOps))], Right: operand()}
}

// atom produces one of the graph-atom forms at state k.
func (g *havingGen) atom(k string) HavingExpr {
	fail := NTerm(rdf.NewIRI(sieNS + "showsFailure"))
	switch g.rng.Intn(4) {
	case 0:
		return &GraphAtom{StateVar: k, Pattern: TriplePattern{S: g.subject(), P: fail, NoObject: true}}
	case 1:
		return &GraphAtom{StateVar: k, Pattern: TriplePattern{S: g.subject(), P: fail, TypeAtom: true}}
	case 2:
		return &GraphAtom{StateVar: k, Pattern: TriplePattern{
			S: g.subject(), P: g.attr(), O: NTerm(rdf.NewDouble(float64(1 + g.rng.Intn(5))))}}
	default:
		x := g.fresh("x")
		return &AndExpr{g.bindAtom(k, x), g.valueUse(x, nil)}
	}
}

func (g *havingGen) leaf(states []string) HavingExpr {
	switch g.rng.Intn(6) {
	case 0:
		return &AggCall{Name: "THRESHOLD.ABOVE", Args: []Node{g.subject(), g.attr(), g.numConst()}}
	case 1:
		return &AggCall{Name: "TREND.INCREASE", Args: []Node{g.subject(), g.attr()}}
	case 2:
		return &AggCall{Name: "PEARSON.CORRELATION",
			Args: []Node{NVar("s"), NVar("t"), g.attr(), g.numConst()}}
	case 3:
		if g.rng.Intn(2) == 0 {
			return &AggCall{Name: "MONOTONIC.HAVING", Args: []Node{g.subject(), g.attr()}}
		}
		return &AggCall{Name: "SPIKE.HAVING", Args: []Node{g.subject(), g.attr(), g.numConst()}}
	case 4:
		if len(states) > 0 {
			return g.atom(states[g.rng.Intn(len(states))])
		}
		fallthrough
	default:
		return g.comparison(states)
	}
}

func (g *havingGen) expr(depth int, states []string) HavingExpr {
	if depth <= 0 {
		return g.leaf(states)
	}
	grow := func(vs ...string) []string {
		return append(append([]string{}, states...), vs...)
	}
	switch g.rng.Intn(8) {
	case 0:
		return &AndExpr{g.expr(depth-1, states), g.expr(depth-1, states)}
	case 1:
		return &OrExpr{g.expr(depth-1, states), g.expr(depth-1, states)}
	case 2:
		return &NotExpr{g.expr(depth-1, states)}
	case 3:
		k := g.fresh("k")
		return &ExistsExpr{StateVar: k, Cond: g.expr(depth-1, grow(k))}
	case 4: // single-state FORALL, guarded half the time
		i := g.fresh("i")
		if g.rng.Intn(2) == 0 {
			x := g.fresh("x")
			return &ForallExpr{StateVar1: i, ValueVars: []string{x},
				Guard:      g.bindAtom(i, x),
				Conclusion: g.valueUse(x, grow(i))}
		}
		return &ForallExpr{StateVar1: i, Conclusion: g.expr(depth-1, grow(i))}
	case 5: // two-state FORALL with guard: the Figure 1 shape, randomized
		i, j := g.fresh("i"), g.fresh("j")
		x, y := g.fresh("x"), g.fresh("y")
		rel := "<"
		if g.rng.Intn(2) == 0 {
			rel = "<="
		}
		guard := HavingExpr(&AndExpr{g.bindAtom(i, x), g.bindAtom(j, y)})
		if len(states) > 0 && g.rng.Intn(2) == 0 {
			k := states[g.rng.Intn(len(states))]
			guard = &AndExpr{
				&Comparison{Left: []Node{NVar(i), NVar(j)}, Op: "<", Right: NVar(k)},
				guard}
		}
		return &ForallExpr{StateVar1: i, Rel: rel, StateVar2: j, ValueVars: []string{x, y},
			Guard:      guard,
			Conclusion: &Comparison{Left: []Node{NVar(x)}, Op: cmpOps[g.rng.Intn(len(cmpOps))], Right: NVar(y)}}
	case 6: // standalone IF/THEN carrier
		if len(states) == 0 {
			return g.leaf(states)
		}
		k := states[g.rng.Intn(len(states))]
		x := g.fresh("x")
		return &ifThenExpr{guard: g.bindAtom(k, x), then: g.valueUse(x, states)}
	default:
		return g.leaf(states)
	}
}

// randDiffSeq builds a random sequence over the two test subjects
// (0–6 states, 0–2 values per property, occasional failure flags).
func randDiffSeq(rng *rand.Rand) *Sequence {
	seq := &refSequence{}
	n := rng.Intn(7)
	for i := 0; i < n; i++ {
		st := refState{TS: int64(i+1) * 500, props: map[string]map[string][]relation.Value{}}
		for _, sub := range []string{diffSubjA, diffSubjB} {
			props := map[string][]relation.Value{}
			if rng.Intn(4) > 0 {
				var vals []relation.Value
				for v := 0; v <= rng.Intn(2); v++ {
					vals = append(vals, relation.Float(float64(1+rng.Intn(5))))
				}
				props[sieNS+"hasValue"] = vals
			}
			if rng.Intn(3) == 0 {
				props[sieNS+"aux"] = []relation.Value{relation.Int(int64(rng.Intn(4)))}
			}
			if rng.Intn(3) == 0 {
				props[sieNS+"showsFailure"] = []relation.Value{relation.Int(1)}
			}
			if len(props) > 0 {
				st.props[sub] = props
			}
		}
		seq.States = append(seq.States, st)
	}
	return flatten(seq)
}

// diffAggregates returns the macro library for the generator: the
// paper's MONOTONIC.HAVING plus a value-variable-using SPIKE macro.
func diffAggregates() map[string]*AggregateDef {
	aggs := map[string]*AggregateDef{}
	for name, def := range MustParse(figure1).Aggregates {
		aggs[name] = def
	}
	aggs["SPIKE.HAVING"] = &AggregateDef{
		Name: "SPIKE.HAVING", Params: []string{"var", "attr", "lim"},
		Body: &ExistsExpr{StateVar: "mk", Cond: &AndExpr{
			&GraphAtom{StateVar: "mk", Pattern: TriplePattern{
				S: NVar("var"), P: NVar("attr"), O: NVar("mx")}},
			&Comparison{Left: []Node{NVar("mx")}, Op: ">", Right: NVar("lim")}}},
	}
	return aggs
}

// TestCompiledHavingMatchesInterpreter is the differential oracle: 200
// generated conditions, each evaluated over several random sequences
// (including empty ones) by both the interpreter and the compiled
// program, asserting identical outcomes.
func TestCompiledHavingMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	aggs := diffAggregates()
	binding := Binding{
		"s": rdf.NewIRI(diffSubjA),
		"t": rdf.NewIRI(diffSubjB),
	}
	trues, falses := 0, 0
	for i := 0; i < 200; i++ {
		gen := newHavingGen(rng)
		h := gen.expr(1+rng.Intn(3), nil)
		compiled := CompileHaving(h, aggs)
		for s := 0; s < 5; s++ {
			seq := randDiffSeq(rng)
			want, errI := EvalHaving(h, seq, binding, aggs)
			got, errC := compiled.Eval(seq, binding)
			if errI != nil {
				// The generator only emits well-formed conditions; an
				// interpreter error means the generator regressed.
				t.Fatalf("expr %d: interpreter error on well-formed condition: %v\n%s", i, errI, h)
			}
			if errC != nil {
				t.Fatalf("expr %d: compiled error: %v\n%s", i, errC, h)
			}
			if got != want {
				t.Fatalf("expr %d seq %d: compiled=%t interpreter=%t\nexpr: %s\nstates: %d",
					i, s, got, want, h, seq.Len())
			}
			if want {
				trues++
			} else {
				falses++
			}
		}
	}
	// The corpus must exercise both outcomes, or the test proves nothing.
	if trues < 50 || falses < 50 {
		t.Fatalf("degenerate corpus: %d true / %d false evaluations", trues, falses)
	}
}

// TestCompiledHavingErrorParity: malformed conditions that reach
// evaluation must fail in both forms.
func TestCompiledHavingErrorParity(t *testing.T) {
	seq := buildSeq("http://x/sensor/1", []float64{1, 2}, nil)
	b := Binding{}
	cases := []struct {
		name string
		h    HavingExpr
	}{
		{"unbound subject", &ExistsExpr{StateVar: "k", Cond: &GraphAtom{
			StateVar: "k",
			Pattern:  TriplePattern{S: NVar("ghost"), P: attrNode(), NoObject: true}}}},
		{"unbound comparison var", &Comparison{
			Left: []Node{NVar("ghost")}, Op: "<", Right: NTerm(rdf.NewInteger(1))}},
		{"unknown aggregate", &AggCall{Name: "NO.SUCH", Args: []Node{NVar("s")}}},
		{"unguarded value-var FORALL", &ForallExpr{
			StateVar1: "i", ValueVars: []string{"x"},
			Conclusion: &Comparison{Left: []Node{NVar("x")}, Op: "<", Right: NTerm(rdf.NewInteger(5))}}},
		{"macro arity mismatch", &AggCall{Name: "MONOTONIC.HAVING", Args: []Node{NVar("s")}}},
		{"unbound state var", &GraphAtom{StateVar: "k",
			Pattern: TriplePattern{S: NVar("s"), P: attrNode(), NoObject: true}}},
	}
	aggs := diffAggregates()
	for _, c := range cases {
		_, errI := EvalHaving(c.h, seq, b, aggs)
		_, errC := CompileHaving(c.h, aggs).Eval(seq, b)
		if errI == nil || errC == nil {
			t.Errorf("%s: interpreter err=%v, compiled err=%v (want both non-nil)", c.name, errI, errC)
			continue
		}
		if errI.Error() != errC.Error() {
			t.Errorf("%s: error mismatch: interpreter %q vs compiled %q", c.name, errI, errC)
		}
	}
}

// TestOnePassAggregatesMatchSlices is the differential of the one-pass
// TREND.INCREASE and PEARSON.CORRELATION against the slice-building
// reference (seriesOfRef, pearsonOverStatesRef, Pearson): over seeded
// windows read by the flat reader whose value column mixes INTEGER and
// REAL rows with NULLs and NaNs, where states lack one subject's
// measurement, and where a subject's values are constant (zero
// variance), both return the same verdict and the same coefficient.
func TestOnePassAggregatesMatchSlices(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	s7, s8 := "http://siemens.com/data/sensor/7", "http://siemens.com/data/sensor/8"
	attr := sieNS + "hasValue"
	rng := rand.New(rand.NewSource(53))
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	seen := map[string]bool{}
	for trial := 0; trial < 400; trial++ {
		constant := rng.Intn(4) == 0
		var rows []relation.Tuple
		for ts := int64(0); ts < int64(rng.Intn(8)); ts++ {
			for _, sid := range []int64{7, 8} {
				if rng.Intn(4) == 0 {
					continue // this state lacks the subject
				}
				for k := rng.Intn(2); k >= 0; k-- {
					r := row(sid, ts*1000, float64(rng.Intn(20)), 0)
					switch {
					case constant && sid == 8:
						r[2] = relation.Float(5)
					case rng.Intn(10) == 0:
						r[2] = relation.Null
					case rng.Intn(12) == 0:
						r[2] = relation.Float(math.NaN())
					case rng.Intn(3) == 0:
						r[2] = relation.Int(int64(rng.Intn(20)))
					}
					rows = append(rows, r)
				}
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		r, err := sb.Reader([]string{attr}, []string{s7, s8})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := r.Read(relation.Transpose(rows))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{s7, s8} {
			series := seriesOfRef(seq, s, attr)
			want := len(series) >= 2 && series[len(series)-1] > series[0]
			if got := trendIncreases(seq, s, attr); got != want {
				t.Fatalf("trial %d: TREND.INCREASE(%s) = %t, series %v", trial, s, got, series)
			}
		}
		for _, pair := range [][2]string{{s7, s8}, {s8, s7}, {s7, s7}} {
			wr, wok := pearsonOverStatesRef(seq, pair[0], pair[1], attr)
			gr, gok := PearsonOverStates(seq, pair[0], pair[1], attr)
			if wok != gok || !same(wr, gr) {
				t.Fatalf("trial %d: PEARSON(%s, %s) = %v %t, reference %v %t", trial, pair[0], pair[1], gr, gok, wr, wok)
			}
			switch {
			case wok:
				seen["correlated"] = true
			case len(seriesOfRef(seq, pair[0], attr)) >= 2 && len(seriesOfRef(seq, pair[1], attr)) >= 2:
				seen["not correlated"] = true
			}
			if wok && wr != wr {
				seen["NaN coefficient"] = true
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("trials reached only %v", seen)
	}
}
