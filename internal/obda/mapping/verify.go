package mapping

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/relation"
)

// Unfolding trusts the declared constraints: self-join elimination
// (selfjoin.go) is sound only while a key holds, and the emptiness
// probes of prune.go only while a foreign key does. Constraints checks
// the ones the static catalog can refute before unfolding reads them:
//
//   - a key declared on a static source must hold on every row of the
//     source table: its columns non-null and their tuple unique;
//   - a foreign key declared on a static source must hold on every row
//     of the source table: its columns non-null and their tuple present
//     in the referenced columns.
//
// A violated constraint is removed from the set unfolding sees.
// Constraints on streams cannot be checked against the catalog and are
// trusted as declared.

// Violation is one declared constraint the catalog contradicts.
type Violation struct {
	Constraint string // e.g. "a_sensors(aid) -> a_assemblies(aid)" or "key a_sensors(sid)"
	Rows       int    // rows that witness the violation
}

// Constraints hands out a mapping set whose static constraints hold on
// a catalog. It checks them once per catalog state: the catalog's
// generation plus the version of every table a mapping of the set
// reads or references. Safe for concurrent use.
type Constraints struct {
	set    *Set
	cat    *relation.Catalog
	tables []string // the static tables the set reads or references, repeats included

	mu      sync.Mutex
	state   []uint64 // the catalog state the last check ran at
	checked *Set
}

// NewConstraints prepares the checks of set's constraints against cat.
func NewConstraints(set *Set, cat *relation.Catalog) *Constraints {
	var tables []string
	for _, m := range set.All() {
		if !m.Source.IsStream {
			tables = append(tables, m.Source.Table)
		}
		for _, fk := range m.FKs {
			tables = append(tables, fk.RefTable)
		}
	}
	return &Constraints{set: set, cat: cat, tables: tables}
}

// Checked returns the set with every constraint the catalog violates
// removed. It checks again only when the catalog state has moved since
// the last check; violations lists what a check found and is nil when
// the last check's result is reused. Without a catalog the set is
// returned as declared.
func (c *Constraints) Checked() (*Set, []Violation) {
	if c.cat == nil {
		return c.set, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	state := c.stateOf()
	if c.checked != nil && slices.Equal(state, c.state) {
		return c.checked, nil
	}
	var violations []Violation
	c.checked, violations = verify(c.set, c.cat)
	c.state = state
	return c.checked, violations
}

// stateOf fingerprints the catalog: its generation, then each table's
// version (0 for a table it lacks).
func (c *Constraints) stateOf() []uint64 {
	state := []uint64{c.cat.Generation()}
	for _, name := range c.tables {
		var v uint64
		if t, err := c.cat.Get(name); err == nil {
			v = t.Version()
		}
		state = append(state, v)
	}
	return state
}

// verify checks every constraint of set against cat and returns the
// set without the violated ones.
func verify(set *Set, cat *relation.Catalog) (*Set, []Violation) {
	var violations []Violation
	broken := map[string]bool{} // constraint name -> violated, each checked once
	check := func(name string, rows func() int) {
		if _, done := broken[name]; done {
			return
		}
		n := rows()
		broken[name] = n > 0
		if n > 0 {
			violations = append(violations, Violation{Constraint: name, Rows: n})
		}
	}
	for _, m := range set.All() {
		if len(m.KeyColumns) > 0 && !m.Source.IsStream {
			check(keyName(m.Source.Table, m.KeyColumns), func() int { return checkKey(m.Source.Table, m.KeyColumns, cat) })
		}
		for _, fk := range m.FKs {
			check(fkName(m.Source.Table, fk), func() int { return checkFK(m.Source, fk, cat) })
		}
	}
	if len(violations) == 0 {
		return set, nil
	}
	ms := make([]Mapping, len(set.All()))
	for i, m := range set.All() {
		if broken[keyName(m.Source.Table, m.KeyColumns)] {
			m.KeyColumns = nil
		}
		m.FKs = slices.DeleteFunc(slices.Clone(m.FKs), func(fk ForeignKey) bool {
			return broken[fkName(m.Source.Table, fk)]
		})
		ms[i] = m
	}
	return MustNewSet(ms...), violations
}

func keyName(table string, cols []string) string {
	return fmt.Sprintf("key %s(%s)", strings.ToLower(table), strings.Join(cols, ","))
}

func fkName(table string, fk ForeignKey) string {
	return fmt.Sprintf("%s(%s) -> %s(%s)", strings.ToLower(table), strings.Join(fk.Columns, ","),
		strings.ToLower(fk.RefTable), strings.Join(fk.RefColumns, ","))
}

// checkFK creates the hash index FKProvesEmpty probes on the referenced
// columns and, for a static source, returns how many source rows break
// the key: a NULL in its columns, or a tuple the referenced table
// lacks. A source table the catalog lacks has no rows to break it.
func checkFK(src SourceRef, fk ForeignKey, cat *relation.Catalog) int {
	ref, err := cat.Get(fk.RefTable)
	if err == nil {
		err = ref.CreateIndex(fk.RefColumns...)
	}
	if src.IsStream {
		return 0
	}
	child, cerr := cat.Get(src.Table)
	if cerr != nil {
		return 0
	}
	rows := child.Rows()
	if err != nil {
		return len(rows) // no referenced table or columns: every row breaks the key
	}
	pos := make([]int, len(fk.Columns))
	for k, col := range fk.Columns {
		if pos[k], err = child.Schema().IndexOf(col); err != nil {
			return len(rows)
		}
	}
	broken := 0
	keys := make([][]relation.Value, 0, len(rows))
	for _, row := range rows {
		vals := make([]relation.Value, len(pos))
		for k, p := range pos {
			vals[k] = row[p]
		}
		if slices.ContainsFunc(vals, relation.Value.IsNull) {
			broken++
			continue
		}
		keys = append(keys, vals)
	}
	matches, _, err := ref.LookupBatch(fk.RefColumns, keys)
	if err != nil {
		return len(rows)
	}
	for _, m := range matches {
		if len(m) == 0 {
			broken++
		}
	}
	return broken
}

// checkKey returns how many rows of a static source table break its
// declared key: a NULL in its columns, or a tuple an earlier row
// already has. A table the catalog lacks has no rows to break it; key
// columns the table lacks are broken by every row.
func checkKey(table string, cols []string, cat *relation.Catalog) int {
	t, err := cat.Get(table)
	if err != nil {
		return 0
	}
	rows := t.Rows()
	pos := make([]int, len(cols))
	for k, col := range cols {
		if pos[k], err = t.Schema().IndexOf(col); err != nil {
			return len(rows)
		}
	}
	broken := 0
	seen := make(map[string]struct{}, len(rows))
	var key []byte
	for _, row := range rows {
		key = key[:0]
		null := false
		for _, p := range pos {
			null = null || row[p].IsNull()
			key = relation.AppendKey(key, row[p])
		}
		if _, dup := seen[string(key)]; null || dup {
			broken++
			continue
		}
		seen[string(key)] = struct{}{}
	}
	return broken
}
