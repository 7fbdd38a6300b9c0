package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns. Column names are matched
// case-insensitively, and may be qualified ("t.col"); lookup by bare name
// matches a single qualified column when unambiguous.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// Col is shorthand for constructing a Column.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// IndexOf returns the position of the named column, or an error when the
// name is unknown or ambiguous. Qualified lookups ("t.a") match exactly;
// bare lookups match the suffix after the last dot.
func (s Schema) IndexOf(name string) (int, error) {
	lower := strings.ToLower(name)
	// Exact (possibly qualified) match first.
	for i, c := range s.Columns {
		if strings.ToLower(c.Name) == lower {
			return i, nil
		}
	}
	if strings.Contains(name, ".") {
		return -1, fmt.Errorf("relation: unknown column %q", name)
	}
	// Bare name against qualified columns.
	found := -1
	for i, c := range s.Columns {
		cn := strings.ToLower(c.Name)
		if j := strings.LastIndex(cn, "."); j >= 0 && cn[j+1:] == lower {
			if found >= 0 {
				return -1, fmt.Errorf("relation: ambiguous column %q", name)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("relation: unknown column %q", name)
	}
	return found, nil
}

// Has reports whether the schema can resolve the column name.
func (s Schema) Has(name string) bool {
	_, err := s.IndexOf(name)
	return err == nil
}

// Qualify returns a copy of the schema with every bare column name
// prefixed by alias and a dot; already-qualified names are re-qualified.
func (s Schema) Qualify(alias string) Schema {
	out := Schema{Columns: make([]Column, len(s.Columns))}
	for i, c := range s.Columns {
		base := c.Name
		if j := strings.LastIndex(base, "."); j >= 0 {
			base = base[j+1:]
		}
		out.Columns[i] = Column{Name: alias + "." + base, Type: c.Type}
	}
	return out
}

// Concat returns the schema of the concatenation of two relations (a join
// output).
func (s Schema) Concat(other Schema) Schema {
	cols := make([]Column, 0, len(s.Columns)+len(other.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, other.Columns...)
	return Schema{Columns: cols}
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a INTEGER, b TEXT)".
func (s Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is one row of a relation. The length always matches the schema
// arity of the relation it belongs to.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns the concatenation of two tuples (join output).
func (t Tuple) Concat(other Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(other))
	out = append(out, t...)
	out = append(out, other...)
	return out
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
