package mapping

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/sql"
)

// Unfolding trusts the declared constraints, and the rewrites of
// prune.go are sound only while they hold. Constraints checks the ones
// the static catalog can refute before unfolding reads them:
//
//   - a foreign key declared on a static source must hold on every row
//     of the source table: its columns non-null and their tuple present
//     in the referenced columns;
//   - an exact mapping over a static source must yield every instance
//     the other static mappings of its predicate yield.
//
// A violated constraint is removed from the set unfolding sees.
// Constraints on streams cannot be checked against the catalog and are
// trusted as declared.

// Violation is one declared constraint the catalog contradicts.
type Violation struct {
	Constraint string // e.g. "a_sensors(aid) -> a_assemblies(aid)" or "exact turbineA"
	Rows       int    // rows that witness the violation
}

// Constraints hands out a mapping set whose static constraints hold on
// a catalog. It checks them once per catalog state: the catalog's
// generation plus the row count of every table a mapping of the set
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
// row count (0 for a table it lacks).
func (c *Constraints) stateOf() []uint64 {
	state := []uint64{c.cat.Generation()}
	for _, name := range c.tables {
		n := 0
		if t, err := c.cat.Get(name); err == nil {
			n = t.Len()
		}
		state = append(state, uint64(n))
	}
	return state
}

// verify checks every constraint of set against cat and returns the
// set without the violated ones.
func verify(set *Set, cat *relation.Catalog) (*Set, []Violation) {
	var violations []Violation
	brokenFK := map[string]bool{}
	for _, m := range set.All() {
		for _, fk := range m.FKs {
			name := fkName(m.Source.Table, fk)
			if _, done := brokenFK[name]; done {
				continue
			}
			rows := checkFK(m.Source, fk, cat)
			brokenFK[name] = rows > 0
			if rows > 0 {
				violations = append(violations, Violation{Constraint: name, Rows: rows})
			}
		}
	}
	brokenExact := map[int]bool{}
	for i, m := range set.All() {
		if m.Exact && !m.Source.IsStream {
			if rows := checkExact(set, i, cat); rows > 0 {
				brokenExact[i] = true
				violations = append(violations, Violation{Constraint: "exact " + m.ID, Rows: rows})
			}
		}
	}
	if len(violations) == 0 {
		return set, nil
	}
	ms := make([]Mapping, len(set.All()))
	for i, m := range set.All() {
		m.FKs = slices.DeleteFunc(slices.Clone(m.FKs), func(fk ForeignKey) bool {
			return brokenFK[fkName(m.Source.Table, fk)]
		})
		m.Exact = m.Exact && !brokenExact[i]
		ms[i] = m
	}
	return MustNewSet(ms...), violations
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

// checkExact returns how many instances the other static mappings of
// set.All()[i]'s predicate yield that the exact mapping does not.
func checkExact(set *Set, i int, cat *relation.Catalog) int {
	exact := set.All()[i]
	have := instances(exact, cat)
	missing := 0
	for j, m := range set.All() {
		if j == i || m.Pred != exact.Pred || m.Source.IsStream {
			continue
		}
		for k := range instances(m, cat) {
			if _, ok := have[k]; !ok {
				missing++
			}
		}
	}
	return missing
}

// instances evaluates a static mapping over the catalog and returns the
// equality keys of the (subject[, object]) terms it yields. A source
// the catalog cannot evaluate yields nothing.
func instances(m Mapping, cat *relation.Catalog) map[string]struct{} {
	stmt := sql.NewSelect()
	stmt.From = []*sql.TableRef{{Table: m.Source.Table, Alias: "m0"}}
	stmt.Where = QualifyExpr(m.Source.Where, "m0")
	stmt.Items = []sql.SelectItem{{Expr: renderTemplate(m.Subject, "m0"), Alias: "s"}}
	if !m.IsClass {
		stmt.Items = append(stmt.Items, sql.SelectItem{Expr: renderTemplate(m.Object, "m0"), Alias: "o"})
	}
	out := map[string]struct{}{}
	plan, err := engine.Build(stmt, engine.CatalogResolver(cat))
	if err != nil {
		return out
	}
	rows, err := plan.Execute(engine.NewExecContext(cat))
	if err != nil {
		return out
	}
	var k []byte
	for _, row := range rows {
		k = k[:0]
		for _, v := range row {
			k = relation.AppendKey(k, v)
		}
		out[string(k)] = struct{}{}
	}
	return out
}
