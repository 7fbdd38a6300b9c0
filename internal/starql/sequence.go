package starql

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/obda/mapping"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// Binding assigns WHERE-clause variables to RDF terms; it is one answer
// of the unfolded static query.
type Binding map[string]rdf.Term

// State is one element of a STARQL sequence: the ABox snapshot at one
// timestamp, restricted to stream-derived assertions. Property values
// are indexed by subject IRI and property IRI.
type State struct {
	TS    int64
	props map[string]map[string][]relation.Value
}

// Values returns the values of (subject, property) at this state.
func (s *State) Values(subject, property string) []relation.Value {
	return s.props[subject][property]
}

// Sequence is the ordered list of states of one window (StdSeq: one
// state per distinct timestamp, ascending — the standard sequencing of
// [12], which respects functionality constraints by keeping simultaneous
// measurements in one state).
type Sequence struct {
	States []State
}

// Len returns the number of states.
func (s *Sequence) Len() int { return len(s.States) }

// SequenceBuilder turns window batches into sequences using the stream
// mappings: each stream-sourced property mapping contributes assertions
// subject→property→value realised from the batch rows.
type SequenceBuilder struct {
	schema   stream.Schema
	tsIdx    int
	mappings []mapping.Mapping // stream-sourced property mappings

	// Column-ordinal resolution of the mappings, computed once on the
	// first BuildColumns call (see columnPlans).
	colOnce    sync.Once
	colPlans   []columnPlan
	colPlanErr error
}

// columnPlan caches the ordinal resolution of one stream mapping so the
// columnar build never resolves column names per row.
type columnPlan struct {
	m        mapping.Mapping
	subjCols []int // subject template column ordinals
	objCols  []int // object template ordinals (object properties)
	objData  int   // data-property column ordinal, -1 otherwise
}

// NewSequenceBuilder selects the stream-sourced mappings relevant to the
// given stream from the mapping set.
func NewSequenceBuilder(schema stream.Schema, set *mapping.Set) (*SequenceBuilder, error) {
	tsIdx, err := schema.Tuple.IndexOf(schema.TSCol)
	if err != nil {
		return nil, err
	}
	b := &SequenceBuilder{schema: schema, tsIdx: tsIdx}
	for _, m := range set.All() {
		if m.Source.IsStream && equalFold(m.Source.Table, schema.Name) {
			b.mappings = append(b.mappings, m)
		}
	}
	if len(b.mappings) == 0 {
		return nil, fmt.Errorf("starql: no stream mappings for %q", schema.Name)
	}
	return b, nil
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// columnPlans resolves each mapping's template and object columns to
// ordinals in the stream schema, once per builder.
func (b *SequenceBuilder) columnPlans() ([]columnPlan, error) {
	b.colOnce.Do(func() {
		plans := make([]columnPlan, 0, len(b.mappings))
		for _, m := range b.mappings {
			p := columnPlan{m: m, objData: -1}
			for _, c := range m.Subject.Columns {
				idx, err := b.schema.Tuple.IndexOf(c)
				if err != nil {
					b.colPlanErr = err
					return
				}
				p.subjCols = append(p.subjCols, idx)
			}
			if !m.IsClass {
				if m.ObjectIsData {
					idx, err := b.schema.Tuple.IndexOf(m.Object.Columns[0])
					if err != nil {
						b.colPlanErr = err
						return
					}
					p.objData = idx
				} else {
					for _, c := range m.Object.Columns {
						idx, err := b.schema.Tuple.IndexOf(c)
						if err != nil {
							b.colPlanErr = err
							return
						}
						p.objCols = append(p.objCols, idx)
					}
				}
			}
			plans = append(plans, p)
		}
		b.colPlans = plans
	})
	return b.colPlans, b.colPlanErr
}

// BuildColumnar builds the sequence of a window batch from its shared
// columnar form (stream.Batch.Columns); see BuildColumns.
func (b *SequenceBuilder) BuildColumnar(batch stream.Batch, subjects map[string]bool) (*Sequence, error) {
	return b.BuildColumns(batch.Columns(), subjects)
}

// BuildColumns constructs the StdSeq sequence of one window from its
// columns, restricted to the given subjects (nil means all subjects —
// used by correlation tasks that scan every sensor). It is the sequence
// builder of the window sink, fed the engine's columnar window result
// directly. Column ordinals are resolved once per builder, timestamps
// are read from the typed int64 payload when the column is typed, and
// subject/object IRIs are rendered once per distinct key per window
// instead of once per row. Iteration is rows-outer/mappings-inner, so
// per-predicate value order follows row order.
func (b *SequenceBuilder) BuildColumns(cb *relation.ColBatch, subjects map[string]bool) (*Sequence, error) {
	plans, err := b.columnPlans()
	if err != nil {
		return nil, err
	}
	n := cb.Len()
	if n == 0 {
		return &Sequence{States: []State{}}, nil
	}
	tsVec := cb.Col(b.tsIdx)
	var tsInts []int64
	if tsVec.ElemType() == relation.TInt && !tsVec.HasNulls() {
		tsInts = tsVec.Ints()
	}
	// Scratch row for mapping source filters, the one part of a mapping
	// that needs a full tuple; filled at most once per row.
	var scratch relation.Tuple
	filled := -1
	rowAt := func(i int) relation.Tuple {
		if filled != i {
			if scratch == nil {
				scratch = make(relation.Tuple, cb.Arity())
			}
			for c := range scratch {
				scratch[c] = cb.Col(c).Value(i)
			}
			filled = i
		}
		return scratch
	}
	subjMemos := make([]map[string]string, len(plans))
	objMemos := make([]map[string]string, len(plans))
	for i := range plans {
		subjMemos[i] = map[string]string{}
		if plans[i].objData < 0 && !plans[i].m.IsClass {
			objMemos[i] = map[string]string{}
		}
	}
	segs := make([]string, 0, 4)
	byTS := map[int64]*State{}
	for i := 0; i < n; i++ {
		var ts int64
		if tsInts != nil {
			ts = tsInts[i]
		} else {
			v, ok := tsVec.Value(i).AsInt()
			if !ok {
				return nil, fmt.Errorf("starql: row without timestamp: %v", cb.Row(i))
			}
			ts = v
		}
		st, ok := byTS[ts]
		if !ok {
			st = &State{TS: ts, props: map[string]map[string][]relation.Value{}}
			byTS[ts] = st
		}
		for pi := range plans {
			p := &plans[pi]
			if p.m.Source.Where != nil {
				v, err := evalRowExpr(p.m.Source.Where, b.schema.Tuple, rowAt(i))
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			subj, err := renderColumnar(p.m.Subject, p.subjCols, cb, i, subjMemos[pi], &segs)
			if err != nil {
				return nil, err
			}
			if subjects != nil && !subjects[subj] {
				continue
			}
			var val relation.Value
			switch {
			case p.m.IsClass:
				val = relation.Bool_(true)
			case p.objData >= 0:
				val = cb.Col(p.objData).Value(i)
			default:
				iri, err := renderColumnar(p.m.Object, p.objCols, cb, i, objMemos[pi], &segs)
				if err != nil {
					return nil, err
				}
				val = relation.String_(iri)
			}
			props, ok := st.props[subj]
			if !ok {
				props = map[string][]relation.Value{}
				st.props[subj] = props
			}
			props[p.m.Pred] = append(props[p.m.Pred], val)
		}
	}
	seq := &Sequence{States: make([]State, 0, len(byTS))}
	for _, st := range byTS {
		seq.States = append(seq.States, *st)
	}
	sort.Slice(seq.States, func(i, j int) bool { return seq.States[i].TS < seq.States[j].TS })
	return seq, nil
}

// renderColumnar applies an IRI template to one row of a column batch,
// memoizing by the raw segment key so repeated subjects render once.
func renderColumnar(t mapping.Template, cols []int, cb *relation.ColBatch, i int, memo map[string]string, segs *[]string) (string, error) {
	s := (*segs)[:0]
	for _, c := range cols {
		s = append(s, rawString(cb.Col(c).Value(i)))
	}
	*segs = s
	var key string
	if len(s) == 1 {
		key = s[0]
	} else {
		key = strings.Join(s, "\x1f")
	}
	if r, ok := memo[key]; ok {
		return r, nil
	}
	r, err := t.Render(s)
	if err != nil {
		return "", err
	}
	memo[key] = r
	return r, nil
}

func rawString(v relation.Value) string {
	switch v.Type {
	case relation.TString:
		return v.Str
	default:
		s := v.String()
		if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
			return s[1 : len(s)-1]
		}
		return s
	}
}

// evalRowExpr evaluates a mapping source filter against one row without
// needing the full engine context.
func evalRowExpr(e sql.Expr, schema relation.Schema, row relation.Tuple) (relation.Value, error) {
	return rowEval{schema, row}.eval(e)
}

type rowEval struct {
	schema relation.Schema
	row    relation.Tuple
}

func (r rowEval) eval(e sql.Expr) (relation.Value, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return x.Value, nil
	case *sql.ColumnRef:
		idx, err := r.schema.IndexOf(x.Name)
		if err != nil {
			return relation.Null, err
		}
		return r.row[idx], nil
	case *sql.BinaryExpr:
		l, err := r.eval(x.Left)
		if err != nil {
			return relation.Null, err
		}
		rt, err := r.eval(x.Right)
		if err != nil {
			return relation.Null, err
		}
		switch x.Op {
		case "AND":
			return relation.Bool_(l.Truthy() && rt.Truthy()), nil
		case "OR":
			return relation.Bool_(l.Truthy() || rt.Truthy()), nil
		case "+", "-", "*", "/", "%":
			return relation.Arith(x.Op[0], l, rt)
		default:
			c, ok := relation.Compare(l, rt)
			if !ok || l.IsNull() || rt.IsNull() {
				return relation.Bool_(false), nil
			}
			switch x.Op {
			case "=":
				return relation.Bool_(c == 0), nil
			case "<>":
				return relation.Bool_(c != 0), nil
			case "<":
				return relation.Bool_(c < 0), nil
			case "<=":
				return relation.Bool_(c <= 0), nil
			case ">":
				return relation.Bool_(c > 0), nil
			case ">=":
				return relation.Bool_(c >= 0), nil
			}
			return relation.Null, fmt.Errorf("starql: unsupported operator %q in mapping filter", x.Op)
		}
	case *sql.UnaryExpr:
		v, err := r.eval(x.Expr)
		if err != nil {
			return relation.Null, err
		}
		if x.Op == "NOT" {
			return relation.Bool_(!v.Truthy()), nil
		}
		return relation.Null, fmt.Errorf("starql: unsupported unary %q in mapping filter", x.Op)
	default:
		return relation.Null, fmt.Errorf("starql: unsupported expression %T in mapping filter", e)
	}
}

// termToValue converts an RDF term to an engine value.
func termToValue(t rdf.Term) relation.Value {
	if t.IsLiteral() {
		switch t.Datatype {
		case rdf.XSDInteger:
			if v, err := t.Integer(); err == nil {
				return relation.Int(v)
			}
		case rdf.XSDDouble, rdf.XSDDecimal:
			if v, err := t.Float(); err == nil {
				return relation.Float(v)
			}
		case rdf.XSDBoolean:
			if v, err := t.Bool(); err == nil {
				return relation.Bool_(v)
			}
		}
	}
	return relation.String_(t.Value)
}

// seriesOf extracts the per-state series of a subject's attribute
// (first value per state).
func seriesOf(seq *Sequence, subject, attr string) []float64 {
	var out []float64
	for _, st := range seq.States {
		vals := st.Values(subject, attr)
		if len(vals) == 0 {
			continue
		}
		if f, ok := vals[0].AsFloat(); ok {
			out = append(out, f)
		}
	}
	return out
}

// PearsonOverStates computes the Pearson correlation coefficient of two
// subjects' attribute series over states where both are present.
func PearsonOverStates(seq *Sequence, subjA, subjB, attr string) (float64, bool) {
	var xs, ys []float64
	for _, st := range seq.States {
		va := st.Values(subjA, attr)
		vb := st.Values(subjB, attr)
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
