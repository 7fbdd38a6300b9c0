package starql

import (
	"fmt"
	"sort"

	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/stream"
)

// Build is the row-at-a-time reference sequence builder: it constructs
// the StdSeq sequence of a window batch from its rows, resolving column
// names and rendering IRIs per row. BuildColumns is the production
// builder; Build is its differential oracle and the convenient builder
// for tests that write windows as rows.
func (b *SequenceBuilder) Build(batch stream.Batch, subjects map[string]bool) (*Sequence, error) {
	byTS := map[int64]*State{}
	for _, row := range batch.Rows {
		ts, ok := row[b.tsIdx].AsInt()
		if !ok {
			return nil, fmt.Errorf("starql: row without timestamp: %v", row)
		}
		st, ok := byTS[ts]
		if !ok {
			st = &State{TS: ts, props: map[string]map[string][]relation.Value{}}
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
	seq := &Sequence{States: make([]State, 0, len(byTS))}
	for _, st := range byTS {
		seq.States = append(seq.States, *st)
	}
	sort.Slice(seq.States, func(i, j int) bool { return seq.States[i].TS < seq.States[j].TS })
	return seq, nil
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
