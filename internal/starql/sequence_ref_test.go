package starql

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

// This file holds the map-based reference sequence builder: it turns a
// window into an RDF ABox per state (subject -> predicate -> values),
// resolving column names and rendering IRIs per row. It is the oracle
// the flat StreamReader is checked against; production sequences are
// always flat.

// refState is one state of the reference sequence: the ABox snapshot at
// one timestamp, indexed by subject IRI and predicate IRI.
type refState struct {
	TS    int64
	props map[string]map[string][]relation.Value
}

// Values returns the values of (subject, property) at this state.
func (s *refState) Values(subject, property string) []relation.Value {
	return s.props[subject][property]
}

// refSequence is the reference sequence of one window: one state per
// distinct timestamp, ascending.
type refSequence struct {
	States []refState
}

// buildRef is the row-at-a-time reference builder over every stream
// mapping of the builder, restricted to the given subjects (nil means
// all subjects).
func (b *SequenceBuilder) buildRef(batch stream.Batch, subjects map[string]bool) (*refSequence, error) {
	byTS := map[int64]*refState{}
	for _, row := range batch.Rows {
		ts, ok := row[b.tsIdx].AsInt()
		if !ok {
			return nil, fmt.Errorf("starql: row without timestamp: %v", row)
		}
		st, ok := byTS[ts]
		if !ok {
			st = &refState{TS: ts, props: map[string]map[string][]relation.Value{}}
			byTS[ts] = st
		}
		for _, m := range b.mappings {
			// Source-level filter.
			if m.Source.Where != nil {
				v, err := evalRowExpr(m.Source.Where, b.schema.Tuple, row)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					continue
				}
			}
			subj, err := renderTemplateRow(m.Subject, b.schema.Tuple, row)
			if err != nil {
				return nil, err
			}
			if subjects != nil && !subjects[subj] {
				continue
			}
			var val relation.Value
			if m.IsClass {
				val = relation.Bool_(true)
			} else {
				val, err = objectValue(m, b.schema.Tuple, row)
				if err != nil {
					return nil, err
				}
			}
			props, ok := st.props[subj]
			if !ok {
				props = map[string][]relation.Value{}
				st.props[subj] = props
			}
			props[m.Pred] = append(props[m.Pred], val)
		}
	}
	seq := &refSequence{States: make([]refState, 0, len(byTS))}
	for _, st := range byTS {
		seq.States = append(seq.States, *st)
	}
	sort.Slice(seq.States, func(i, j int) bool { return seq.States[i].TS < seq.States[j].TS })
	return seq, nil
}

// Build is the convenient builder for tests that write windows as rows:
// the reference sequence, flattened.
func (b *SequenceBuilder) Build(batch stream.Batch, subjects map[string]bool) (*Sequence, error) {
	ref, err := b.buildRef(batch, subjects)
	if err != nil {
		return nil, err
	}
	return flatten(ref), nil
}

// flatten converts a reference sequence to the flat layout, written
// independently of StreamReader.Read: subjects and predicates get
// ordinals in sorted order, and each assertion becomes one visiting
// position, laid out state by state. Every predicate reads its own
// column over those positions; a position another predicate owns holds
// a copy of one of this predicate's values, so a column keeps the layout
// of its predicate's values (typed when they are) and is never read
// there.
func flatten(ref *refSequence) *Sequence {
	seq := &Sequence{subjects: map[string]int32{}}
	subjSet, predSet := map[string]bool{}, map[string]bool{}
	for _, st := range ref.States {
		seq.ts = append(seq.ts, st.TS)
		for s, props := range st.props {
			subjSet[s] = true
			for p := range props {
				predSet[p] = true
			}
		}
	}
	var subjs []string
	for s := range subjSet {
		subjs = append(subjs, s)
	}
	sort.Strings(subjs)
	for i, s := range subjs {
		seq.subjects[s] = int32(i)
	}
	for p := range predSet {
		seq.preds = append(seq.preds, p)
	}
	sort.Strings(seq.preds)
	// Positions, state-major, and their values by predicate.
	type assertion struct {
		run int
		val relation.Value
	}
	var at []assertion
	for i := range ref.States {
		seq.starts = append(seq.starts, int32(len(at)))
		for si, s := range subjs {
			for pi, p := range seq.preds {
				for _, v := range ref.States[i].Values(s, p) {
					at = append(at, assertion{si*len(seq.preds) + pi, v})
				}
			}
		}
	}
	seq.starts = append(seq.starts, int32(len(at)))
	seq.runs = make([]int32, len(subjs)*len(seq.preds)+1)
	for _, a := range at {
		seq.runs[a.run+1]++
	}
	for k := 1; k < len(seq.runs); k++ {
		seq.runs[k] += seq.runs[k-1]
	}
	seq.elems = make([]int32, len(at))
	next := append([]int32(nil), seq.runs...)
	for pos, a := range at {
		seq.elems[next[a.run]] = int32(pos)
		next[a.run]++
	}
	seq.plans = make([][]elemPlan, len(seq.preds))
	for pi := range seq.preds {
		var pad relation.Value
		for _, a := range at {
			if a.run%len(seq.preds) == pi {
				pad = a.val
				break
			}
		}
		b := relation.NewVectorBuilder(len(at))
		for _, a := range at {
			if a.run%len(seq.preds) == pi {
				b.Append(a.val)
			} else {
				b.Append(pad)
			}
		}
		seq.plans[pi] = []elemPlan{{col: b.Build()}}
	}
	return seq
}

// Values returns the values of (subject, predicate) at state i, in
// window row order.
func (s *Sequence) Values(i int, subject, pred string) []relation.Value {
	lo, end, p := s.run(subject, pred)
	lo, hi := s.at(i, lo, end, p)
	if lo == hi {
		return nil
	}
	out := make([]relation.Value, 0, hi-lo)
	for j := lo; j < hi; j++ {
		out = append(out, s.value(p, j))
	}
	return out
}

// renderTemplateRow applies an IRI template to one stream row.
func renderTemplateRow(t mapping.Template, schema relation.Schema, row relation.Tuple) (string, error) {
	segs := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		idx, err := schema.IndexOf(c)
		if err != nil {
			return "", err
		}
		segs[i] = rawString(row[idx])
	}
	return t.Render(segs)
}

// objectValue extracts a property mapping's object from a row: the raw
// column for data properties, the rendered IRI for object properties.
func objectValue(m mapping.Mapping, schema relation.Schema, row relation.Tuple) (relation.Value, error) {
	if m.ObjectIsData {
		idx, err := schema.IndexOf(m.Object.Columns[0])
		if err != nil {
			return relation.Null, err
		}
		return row[idx], nil
	}
	iri, err := renderTemplateRow(m.Object, schema, row)
	if err != nil {
		return relation.Null, err
	}
	return relation.String_(iri), nil
}

// evalRowExpr evaluates a mapping source filter against one row with
// the engine's SQL semantics, the ones the unfolded fleet runs with,
// compiling it per evaluation.
func evalRowExpr(e sql.Expr, schema relation.Schema, row relation.Tuple) (relation.Value, error) {
	c, err := engine.Compile(mapping.QualifyExpr(e, ""), schema, engine.NewFuncRegistry())
	if err != nil {
		return relation.Null, err
	}
	return c(row)
}
