package engine

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/relation"
)

// statsBuckets is the equi-depth histogram resolution: enough to
// distinguish order-of-magnitude selectivity differences, small enough
// that ANALYZE over the demo fleet stays sub-millisecond.
const statsBuckets = 10

// Bucket is one equi-depth histogram bucket: roughly RowCount/buckets
// non-null values fall between Lo and Hi (inclusive), Distinct of them
// distinct.
type Bucket struct {
	Lo, Hi   relation.Value
	Count    int64
	Distinct int64
}

// ColumnStats summarises one column of an analyzed relation: null
// count, number of distinct values (NDV), min/max, and an equi-depth
// histogram over the non-null values (comparable types only).
type ColumnStats struct {
	Name      string
	NullCount int64
	NDV       int64
	Min, Max  relation.Value
	Hist      []Bucket
}

// EqSelectivity estimates the fraction of rows matching col = v: the
// classic 1/NDV uniform-frequency assumption, refined to 0 when v falls
// outside the observed [Min, Max] range.
func (c *ColumnStats) EqSelectivity(rows int64, v relation.Value) float64 {
	if rows <= 0 || c.NDV <= 0 {
		return defaultEqSelectivity
	}
	if v.IsNull() {
		return 0
	}
	if !v.IsNull() && !c.Min.IsNull() && !c.Max.IsNull() {
		if lo, ok := relation.Compare(v, c.Min); ok && lo < 0 {
			return 0
		}
		if hi, ok := relation.Compare(v, c.Max); ok && hi > 0 {
			return 0
		}
	}
	sel := 1 / float64(c.NDV)
	if c.NullCount > 0 {
		sel *= float64(rows-c.NullCount) / float64(rows)
	}
	return sel
}

// RangeSelectivity estimates the fraction of rows satisfying col <op> v
// for op in <, <=, >, >= by walking the equi-depth histogram (each
// bucket holds ~1/buckets of the rows; the matching bucket contributes
// linearly interpolated mass).
func (c *ColumnStats) RangeSelectivity(op string, v relation.Value) float64 {
	if len(c.Hist) == 0 || v.IsNull() {
		return defaultRangeSelectivity
	}
	var total, below int64
	for _, b := range c.Hist {
		total += b.Count
		if cmp, ok := relation.Compare(v, b.Hi); ok && cmp >= 0 {
			below += b.Count
			continue
		}
		if cmp, ok := relation.Compare(v, b.Lo); ok && cmp > 0 {
			// v lands inside this bucket; assume half its mass is below.
			below += b.Count / 2
		}
	}
	if total == 0 {
		return defaultRangeSelectivity
	}
	frac := float64(below) / float64(total)
	switch op {
	case "<", "<=":
		return clampSel(frac)
	case ">", ">=":
		return clampSel(1 - frac)
	}
	return defaultRangeSelectivity
}

// TableStats is the ANALYZE output for one relation.
type TableStats struct {
	Table    string
	RowCount int64
	Cols     map[string]*ColumnStats // keyed by lower-cased column name
	// Gen is the catalog generation the pass ran at; the store discards
	// the entry when the catalog's table set changes.
	Gen uint64
}

// Col returns the named column's stats (case-insensitive), or nil.
func (t *TableStats) Col(name string) *ColumnStats {
	if t == nil {
		return nil
	}
	return t.Cols[strings.ToLower(name)]
}

// Selectivity defaults used when no statistics apply.
const (
	defaultEqSelectivity    = 0.1
	defaultRangeSelectivity = 1.0 / 3
	defaultTableRows        = 1000
	defaultStreamRows       = 64
)

// StatsStore holds per-relation statistics over one catalog, the
// substrate of the cost-based planner: Table answers estimation
// queries, analyzing a table the first time a cost rule asks for it.
//
// Entries are invalidated when the catalog's Generation moves (table
// set changed); stale tables are re-analyzed lazily on next access, so
// the store is "persisted in the catalog" in the sense that its
// lifetime and validity are tied to the catalog it was built over.
// All methods are safe for concurrent use.
type StatsStore struct {
	mu     sync.RWMutex
	cat    *relation.Catalog
	tables map[string]*TableStats
}

// NewStatsStore builds an empty store over a catalog; lookups analyze
// tables on demand.
func NewStatsStore(cat *relation.Catalog) *StatsStore {
	return &StatsStore{
		cat:    cat,
		tables: make(map[string]*TableStats),
	}
}

// Table returns a table's statistics, analyzing it when absent or
// built under an older catalog generation. Nil when the table does not
// exist.
func (s *StatsStore) Table(name string) *TableStats {
	if s == nil || s.cat == nil {
		return nil
	}
	gen := s.cat.Generation()
	key := strings.ToLower(name)
	s.mu.RLock()
	ts := s.tables[key]
	s.mu.RUnlock()
	if ts != nil && ts.Gen == gen {
		return ts
	}
	t, err := s.cat.Get(name)
	if err != nil {
		return nil
	}
	ts = analyzeRows(t.Name(), t.Schema(), t.Rows())
	ts.Gen = gen
	s.mu.Lock()
	s.tables[key] = ts
	s.mu.Unlock()
	return ts
}

// analyzeRows computes stats for one materialized relation.
func analyzeRows(table string, schema relation.Schema, rows []relation.Tuple) *TableStats {
	ts := &TableStats{
		Table:    table,
		RowCount: int64(len(rows)),
		Cols:     make(map[string]*ColumnStats, schema.Arity()),
	}
	for j, col := range schema.Columns {
		cs := &ColumnStats{Name: col.Name, Min: relation.Null, Max: relation.Null}
		vals := make([]relation.Value, 0, len(rows))
		distinct := make(map[string]struct{}, len(rows))
		for _, r := range rows {
			if j >= len(r) {
				continue
			}
			v := r[j]
			if v.IsNull() {
				cs.NullCount++
				continue
			}
			var kb [16]byte
			insertKey(distinct, relation.AppendKey(kb[:0], v))
			vals = append(vals, v)
		}
		cs.NDV = int64(len(distinct))
		if len(vals) > 0 {
			sort.SliceStable(vals, func(a, b int) bool {
				c, ok := relation.Compare(vals[a], vals[b])
				return ok && c < 0
			})
			cs.Min, cs.Max = vals[0], vals[len(vals)-1]
			cs.Hist = equiDepth(vals)
		}
		ts.Cols[strings.ToLower(col.Name)] = cs
	}
	return ts
}

// equiDepth builds an equi-depth histogram over sorted non-null values.
func equiDepth(sorted []relation.Value) []Bucket {
	n := len(sorted)
	buckets := statsBuckets
	if n < buckets {
		buckets = n
	}
	out := make([]Bucket, 0, buckets)
	per := n / buckets
	rem := n % buckets
	i := 0
	for b := 0; b < buckets; b++ {
		size := per
		if b < rem {
			size++
		}
		if size == 0 {
			break
		}
		slice := sorted[i : i+size]
		distinct := make(map[string]struct{}, size)
		for _, v := range slice {
			var kb [16]byte
			insertKey(distinct, relation.AppendKey(kb[:0], v))
		}
		out = append(out, Bucket{
			Lo:       slice[0],
			Hi:       slice[size-1],
			Count:    int64(size),
			Distinct: int64(len(distinct)),
		})
		i += size
	}
	return out
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
