package relation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Table is an in-memory relation with optional hash indexes. It is safe
// for concurrent use.
type Table struct {
	name   string
	schema Schema

	mu      sync.RWMutex
	rows    []Tuple
	indexes map[string]*hashIndex // key: comma-joined column positions
	version uint64                // bumped by every Insert and Truncate
}

// hashIndex maps the equality key (AppendKey) of the indexed columns
// to row positions.
type hashIndex struct {
	cols []int
	m    map[string][]int
}

// add indexes row at position pos.
func (idx *hashIndex) add(row Tuple, pos int) {
	var kb [32]byte
	k := kb[:0]
	for _, c := range idx.cols {
		k = AppendKey(k, row[c])
	}
	idx.m[string(k)] = append(idx.m[string(k)], pos)
}

// NewTable creates an empty table.
func NewTable(name string, schema Schema) *Table {
	return &Table{name: name, schema: schema, indexes: make(map[string]*hashIndex)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Version counts the table's modifications: every Insert and Truncate
// bumps it, so two reads that see one version saw the same rows.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Insert appends a row after checking arity and type compatibility
// (NULL is accepted in any column; integers widen to floats).
func (t *Table) Insert(row Tuple) error {
	if len(row) != t.schema.Arity() {
		return fmt.Errorf("relation: %s: arity mismatch: row has %d values, schema %d", t.name, len(row), t.schema.Arity())
	}
	for i, v := range row {
		want := t.schema.Columns[i].Type
		if v.IsNull() || v.Type == want {
			continue
		}
		if v.Type == TInt && want == TFloat {
			row[i] = Float(float64(v.Int))
			continue
		}
		if v.Type == TInt && want == TTime {
			row[i] = Time(v.Int)
			continue
		}
		return fmt.Errorf("relation: %s: column %s expects %s, got %s",
			t.name, t.schema.Columns[i].Name, want, v.Type)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pos := len(t.rows)
	t.rows = append(t.rows, row)
	t.version++
	for _, idx := range t.indexes {
		idx.add(row, pos)
	}
	return nil
}

// MustInsert inserts and panics on error; for statically-known fixtures.
func (t *Table) MustInsert(row Tuple) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// Rows returns a snapshot of all rows. The returned slice is shared;
// callers must not mutate tuples.
func (t *Table) Rows() []Tuple {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Tuple, len(t.rows))
	copy(out, t.rows)
	return out
}

// Truncate removes all rows, keeping indexes registered but empty.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = nil
	t.version++
	for _, idx := range t.indexes {
		idx.m = make(map[string][]int)
	}
}

// appendIndexKey appends the key of the index on the given column
// positions to b. A lookup converts it in the map index expression, so
// probing for an index allocates nothing.
func appendIndexKey(b []byte, cols []int) []byte {
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return b
}

// positions resolves column names to schema positions, appended to buf.
func (t *Table) positions(cols []string, buf []int) ([]int, error) {
	for _, c := range cols {
		p, err := t.schema.IndexOf(c)
		if err != nil {
			return nil, err
		}
		buf = append(buf, p)
	}
	return buf, nil
}

// match returns the ids of the rows whose columns at positions equal
// vals under Equal, in row order: with an index on exactly those
// columns, the ids it holds for vals' equality key (AppendKey), which
// the caller must not write; without one (idx nil), the ids a scan finds,
// appended to buf and stopping after the first when first is set. A key
// holding a NULL matches no row. The caller holds the read lock.
func (t *Table) match(idx *hashIndex, positions []int, vals []Value, first bool, buf []int) []int {
	for _, v := range vals {
		if v.IsNull() {
			return buf
		}
	}
	if idx != nil {
		var kb [32]byte
		k := kb[:0]
		for _, v := range vals {
			k = AppendKey(k, v)
		}
		return idx.m[string(k)]
	}
	for id, row := range t.rows {
		match := true
		for i, p := range positions {
			if !Equal(row[p], vals[i]) {
				match = false
				break
			}
		}
		if match {
			buf = append(buf, id)
			if first {
				break
			}
		}
	}
	return buf
}

// CreateIndex builds a hash index on the named columns. Creating an index
// that already exists is a no-op.
func (t *Table) CreateIndex(cols ...string) error {
	positions, err := t.positions(cols, nil)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := string(appendIndexKey(nil, positions))
	if _, ok := t.indexes[key]; ok {
		return nil
	}
	idx := &hashIndex{cols: positions, m: make(map[string][]int)}
	for pos, row := range t.rows {
		idx.add(row, pos)
	}
	t.indexes[key] = idx
	return nil
}

// HasIndex reports whether an index exists exactly on the named columns.
func (t *Table) HasIndex(cols ...string) bool {
	positions, err := t.positions(cols, nil)
	if err != nil {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var kb [16]byte
	_, ok := t.indexes[string(appendIndexKey(kb[:0], positions))]
	return ok
}

// Lookup returns the rows whose named columns equal the given values
// under Equal: one probe of LookupBatch. A hash index on exactly those
// columns serves it when one exists, a scan otherwise, and both find the
// same rows. A NULL value matches no row. The bool result reports
// whether an index was used.
func (t *Table) Lookup(cols []string, vals []Value) ([]Tuple, bool, error) {
	if len(cols) != len(vals) {
		return nil, false, fmt.Errorf("relation: Lookup arity mismatch")
	}
	out, indexed, err := t.LookupBatch(cols, [][]Value{vals})
	if err != nil {
		return nil, false, err
	}
	return out[0], indexed, nil
}

// Exists reports whether some row's named columns equal the given
// values under Equal: Lookup's verdict without its result, found by the
// same probe. It allocates nothing for up to eight lowercase column
// names. A NULL value matches no row.
func (t *Table) Exists(cols []string, vals []Value) (bool, error) {
	if len(cols) != len(vals) {
		return false, fmt.Errorf("relation: Exists arity mismatch")
	}
	var pb [8]int
	positions, err := t.positions(cols, pb[:0])
	if err != nil {
		return false, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var ib [16]byte
	idx := t.indexes[string(appendIndexKey(ib[:0], positions))]
	var ids [1]int
	return len(t.match(idx, positions, vals, true, ids[:0])) > 0, nil
}

// LookupBatch probes the table once per key tuple in keys and returns
// the matching rows per probe. Column positions are resolved once and
// the read lock is taken once for the whole vector, so a window's worth
// of probes costs one traversal of the setup code instead of len(keys).
// A hash index on exactly cols serves the probes by their equality key
// (AppendKey); without one each probe scans with Equal. A nil slot in
// keys (or a key containing a NULL) yields a nil match set without
// probing, matching SQL join semantics. The bool result reports whether
// a hash index served the probes.
func (t *Table) LookupBatch(cols []string, keys [][]Value) ([][]Tuple, bool, error) {
	positions, err := t.positions(cols, nil)
	if err != nil {
		return nil, false, err
	}
	out := make([][]Tuple, len(keys))

	t.mu.RLock()
	defer t.mu.RUnlock()
	var ib [16]byte
	idx, indexed := t.indexes[string(appendIndexKey(ib[:0], positions))]
	var scratch []int
	for ki, vals := range keys {
		if vals == nil {
			continue
		}
		if len(vals) != len(cols) {
			return nil, false, fmt.Errorf("relation: LookupBatch arity mismatch")
		}
		ids := t.match(idx, positions, vals, false, scratch[:0])
		if !indexed {
			scratch = ids
		}
		if len(ids) > 0 {
			matches := make([]Tuple, len(ids))
			for i, id := range ids {
				matches[i] = t.rows[id]
			}
			out[ki] = matches
		}
	}
	return out, indexed, nil
}

// SortRows orders rows in place of a snapshot by the given columns
// (ascending) and returns them; used for deterministic test output.
func SortRows(rows []Tuple, cols []int) []Tuple {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, c := range cols {
			cmp, ok := Compare(rows[i][c], rows[j][c])
			if !ok {
				continue
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return rows
}

// Catalog is a named collection of tables. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	gen    uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create adds a new table; it fails if the name is taken.
func (c *Catalog) Create(name string, schema Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("relation: table %q already exists", name)
	}
	t := NewTable(name, schema)
	c.tables[key] = t
	c.gen++
	return t, nil
}

// Put registers an existing table, replacing any previous one of the name.
func (c *Catalog) Put(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[strings.ToLower(t.Name())] = t
	c.gen++
}

// Get returns the named table.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("relation: unknown table %q", name)
	}
	return t, nil
}

// Drop removes the named table.
func (c *Catalog) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("relation: unknown table %q", name)
	}
	delete(c.tables, key)
	c.gen++
	return nil
}

// Generation is a counter bumped whenever the set of tables changes
// (Create/Put/Drop — not row inserts). Cached query plans compare it to
// decide whether their table resolution is still valid.
func (c *Catalog) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// Names lists the table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name())
	}
	sort.Strings(out)
	return out
}
