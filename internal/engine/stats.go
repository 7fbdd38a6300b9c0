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

// streamStats tracks a window source's observed shape, refreshed from
// the windowed samples the engine feeds back after each execution: an
// exponentially weighted moving average of rows per window plus a
// sampled per-column NDV from the most recent sampled window.
type streamStats struct {
	avgRows float64
	windows int64
	ndv     map[string]int64 // column -> NDV of last sampled window
}

// Stream-sample cost bounds: the EWMA row count updates on every
// window (a few float ops), but the per-column NDV scan stringifies
// every sampled value, so it runs only one window in ndvSampleEvery
// and caps the rows it reads — stats collection must not tax the
// ingest path it observes.
const (
	ndvSampleEvery = 16
	ndvSampleRows  = 256
)

// Selectivity defaults used when no statistics apply; the feedback loop
// replaces the filter default with the fleet's observed average.
const (
	defaultEqSelectivity    = 0.1
	defaultRangeSelectivity = 1.0 / 3
	defaultTableRows        = 1000
	defaultStreamRows       = 64
)

// StatsStore holds per-relation statistics over one catalog plus
// per-stream windowed samples and the observed-cardinality feedback the
// continuous queries report. It is the substrate of the cost-based
// planner: Analyze populates it, Table/Stream/FilterSelectivity answer
// estimation queries, Feedback and ObserveSource keep it fresh.
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
	strms  map[string]*streamStats

	// Observed filter selectivity feedback: total input and output rows
	// of filter operators across executions. The ratio seasons the
	// default selectivity for predicates statistics cannot resolve.
	filterIn, filterOut int64
}

// NewStatsStore builds an empty store over a catalog. Call Analyze to
// populate it eagerly, or let lookups trigger per-table analysis.
func NewStatsStore(cat *relation.Catalog) *StatsStore {
	return &StatsStore{
		cat:    cat,
		tables: make(map[string]*TableStats),
		strms:  make(map[string]*streamStats),
	}
}

// Analyze runs the ANALYZE pass over every table in the catalog,
// (re)computing row counts, per-column NDV and equi-depth histograms.
func (s *StatsStore) Analyze() {
	if s == nil || s.cat == nil {
		return
	}
	for _, name := range s.cat.Names() {
		s.AnalyzeTable(name)
	}
}

// AnalyzeTable (re)computes one table's statistics; unknown tables are
// ignored (nil return).
func (s *StatsStore) AnalyzeTable(name string) *TableStats {
	if s == nil || s.cat == nil {
		return nil
	}
	t, err := s.cat.Get(name)
	if err != nil {
		return nil
	}
	ts := analyzeRows(t.Name(), t.Schema(), t.Rows())
	ts.Gen = s.cat.Generation()
	s.mu.Lock()
	s.tables[strings.ToLower(t.Name())] = ts
	s.mu.Unlock()
	return ts
}

// Table returns a table's statistics, lazily (re)analyzing when absent
// or built under an older catalog generation. Nil when the table does
// not exist.
func (s *StatsStore) Table(name string) *TableStats {
	if s == nil || s.cat == nil {
		return nil
	}
	gen := s.cat.Generation()
	s.mu.RLock()
	ts := s.tables[strings.ToLower(name)]
	s.mu.RUnlock()
	if ts != nil && ts.Gen == gen {
		return ts
	}
	return s.AnalyzeTable(name)
}

// ObserveSource folds one executed window batch of a named source
// (stream reference) into its windowed-sample statistics: EWMA row
// count plus per-column NDV of this batch.
func (s *StatsStore) ObserveSource(name string, schema relation.Schema, rows []relation.Tuple) {
	if s == nil {
		return
	}
	key := strings.ToLower(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.strms[key]
	if st == nil {
		st = &streamStats{ndv: make(map[string]int64)}
		s.strms[key] = st
	}
	st.windows++
	const alpha = 0.2
	if st.windows == 1 {
		st.avgRows = float64(len(rows))
	} else {
		st.avgRows += alpha * (float64(len(rows)) - st.avgRows)
	}
	if len(rows) == 0 || st.windows%ndvSampleEvery != 1 {
		return
	}
	sample := rows
	if len(sample) > ndvSampleRows {
		sample = sample[:ndvSampleRows]
	}
	for j, col := range schema.Columns {
		seen := make(map[string]struct{}, 8)
		for _, r := range sample {
			if j < len(r) {
				var kb [16]byte
				insertKey(seen, relation.AppendKey(kb[:0], r[j]))
			}
		}
		st.ndv[strings.ToLower(col.Name)] = int64(len(seen))
	}
}

// StreamRows returns the EWMA rows-per-window of a source, or the
// default when it has not been observed yet.
func (s *StatsStore) StreamRows(name string) float64 {
	if s == nil {
		return defaultStreamRows
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st := s.strms[strings.ToLower(name)]; st != nil && st.windows > 0 {
		return st.avgRows
	}
	return defaultStreamRows
}

// StreamColNDV returns the sampled per-window NDV of a source column
// (0 when unobserved).
func (s *StatsStore) StreamColNDV(name, col string) int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st := s.strms[strings.ToLower(name)]; st != nil {
		return st.ndv[strings.ToLower(col)]
	}
	return 0
}

// Feedback folds one execution's observed per-operator cardinalities
// back into the store: the filter in/out ratio replaces the built-in
// default selectivity for predicates the statistics cannot resolve, so
// repeated misestimates self-correct.
func (s *StatsStore) Feedback(st *ExecStats) {
	if s == nil || st == nil {
		return
	}
	f := st.Ops[OpFilter]
	if f.Calls == 0 {
		return
	}
	// A filter's input is what the tree below produced; approximate it
	// with the scan-shaped operators' output (sources feed filters in
	// the unfolded fleet's plan shapes).
	in := st.Ops[OpScan].RowsOut + st.Ops[OpWindowSource].RowsOut + st.Ops[OpValues].RowsOut
	if in <= 0 {
		return
	}
	s.mu.Lock()
	s.filterIn += in
	s.filterOut += f.RowsOut
	s.mu.Unlock()
}

// ObservedFilterSelectivity returns the fleet-wide observed filter
// selectivity, or the static default before any feedback arrived.
func (s *StatsStore) ObservedFilterSelectivity() float64 {
	if s == nil {
		return defaultEqSelectivity
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.filterIn <= 0 {
		return defaultEqSelectivity
	}
	return clampSel(float64(s.filterOut) / float64(s.filterIn))
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
