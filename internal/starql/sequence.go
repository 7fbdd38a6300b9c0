package starql

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/obda/mapping"
	"repro/internal/rdf"
	"repro/internal/relation"
	"repro/internal/stream"
)

// Binding assigns WHERE-clause variables to RDF terms; it is one answer
// of the unfolded static query.
type Binding map[string]rdf.Term

// Sequence is the ordered list of states of one window (StdSeq: one
// state per distinct timestamp of the window's rows, ascending — the
// standard sequencing of [12], which respects functionality constraints
// by keeping simultaneous measurements in one state).
//
// The sequence is flat and points at the window's rows instead of
// copying their values. The rows are visited in state order (by
// timestamp, stably); starts holds the first visiting position of every
// state. Every stream-derived assertion is one int32 element: the
// visiting position of its row times the number of plans mapping its
// predicate, plus the rank of the plan that produced it. Elements are
// grouped into one run per (subject ordinal, predicate ordinal), and
// ascend within a run, so by state and, inside a state, by window row;
// runs holds the CSR offsets of the runs. The elements of (state,
// subject, predicate) are one subrange of a run, found with a binary
// search over its positions. No per-state or per-subject maps are
// built; subjects maps a subject IRI to its ordinal and is the reader's
// shared index when the task's subjects are bound.
//
// A value is read only when the matcher asks for it (value): from the
// window's own column, the shared column-log view every task receives,
// which the sequence aliases and never writes.
type Sequence struct {
	ts       []int64          // state timestamps, ascending
	starts   []int32          // state i holds visiting positions starts[i] to starts[i+1]-1
	subjects map[string]int32 // subject IRI -> ordinal
	preds    []string         // predicate IRI by ordinal
	runs     []int32          // run k = subject*len(preds)+predicate is elems[runs[k]:runs[k+1]]
	elems    []int32          // visiting position*len(plans[p]) + plan rank
	plans    [][]elemPlan     // by predicate ordinal and rank: where its elements' values live
	order    []int32          // visiting position -> window row; nil = row order
	iris     []string         // rendered object IRIs, each once per window
	iriOf    []int32          // per element of an object-property plan: its index in iris
}

// elemPlan is where one plan's values live: a class plan asserts
// presence, a data plan reads its column, and an object-property plan
// (neither) reads its rendered IRI.
type elemPlan struct {
	class bool
	col   *relation.Vector
}

// Len returns the number of states.
func (s *Sequence) Len() int { return len(s.ts) }

// TS returns the timestamp of state i.
func (s *Sequence) TS(i int) int64 { return s.ts[i] }

// row returns the window row at visiting position pos.
func (s *Sequence) row(pos int32) int {
	if s.order != nil {
		return int(s.order[pos])
	}
	return int(pos)
}

// value returns element j of predicate p: exactly the value the
// window's column holds at the element's row (Vector.Value), presence
// for a class, or the rendered object IRI.
func (s *Sequence) value(p, j int) relation.Value {
	plans := s.plans[p]
	e := s.elems[j]
	fan := int32(len(plans))
	pl := &plans[e%fan]
	switch {
	case pl.class:
		return relation.Bool_(true)
	case pl.col == nil:
		return relation.String_(s.iris[s.iriOf[j]])
	}
	return pl.col.Value(s.row(e / fan))
}

// run returns the elements of (subject, predicate) over every state,
// elems[lo:hi], and the predicate's ordinal; lo == hi when the window
// asserts nothing for it.
func (s *Sequence) run(subject, pred string) (lo, hi, p int) {
	if len(s.runs) == 0 {
		return 0, 0, 0
	}
	si, ok := s.subjects[subject]
	if !ok {
		return 0, 0, 0
	}
	for pi, name := range s.preds {
		if name == pred {
			k := int(si)*len(s.preds) + pi
			return int(s.runs[k]), int(s.runs[k+1]), pi
		}
	}
	return 0, 0, 0
}

// at narrows elems[lo:end], a run of predicate p, to its elements at
// state i, in window row order.
func (s *Sequence) at(i, lo, end, p int) (int, int) {
	if lo == end {
		return lo, lo
	}
	fan := int32(len(s.plans[p]))
	lo = s.seek(lo, end, s.starts[i]*fan)
	stop := s.starts[i+1] * fan
	hi := lo
	for hi < end && s.elems[hi] < stop {
		hi++
	}
	return lo, hi
}

// seek returns the first element of elems[lo:hi] at or above e.
func (s *Sequence) seek(lo, hi int, e int32) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.elems[mid] < e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// stateFirsts walks a run state by state: next reports the next state
// holding an element of the run, and that state's first value.
type stateFirsts struct {
	seq    *Sequence
	p      int
	j, end int // the run's elements not yet passed
	fan    int32
	state  int
}

func (s *Sequence) firsts(subject, pred string) stateFirsts {
	lo, hi, p := s.run(subject, pred)
	c := stateFirsts{seq: s, p: p, j: lo, end: hi}
	if lo < hi {
		c.fan = int32(len(s.plans[p]))
	}
	return c
}

func (c *stateFirsts) next() (state int, v relation.Value, ok bool) {
	if c.j >= c.end {
		return 0, relation.Null, false
	}
	s := c.seq
	pos := s.elems[c.j] / c.fan
	for s.starts[c.state+1] <= pos {
		c.state++
	}
	v = s.value(c.p, c.j)
	c.j = s.seek(c.j, c.end, s.starts[c.state+1]*c.fan)
	return c.state, v, true
}

// trendIncreases reports whether the (subject, attribute) series — the
// first value of each state that has a numeric one — has at least two
// points and ends above where it starts.
func trendIncreases(seq *Sequence, subject, attr string) bool {
	c := seq.firsts(subject, attr)
	var first, last float64
	n := 0
	for _, v, ok := c.next(); ok; _, v, ok = c.next() {
		if f, ok := v.AsFloat(); ok {
			if n == 0 {
				first = f
			}
			last = f
			n++
		}
	}
	return n >= 2 && last > first
}

// PearsonOverStates computes the Pearson correlation coefficient of two
// subjects' attribute series over states where both are present (the
// first value of each state, when both are numeric), in one pass over
// the two runs.
func PearsonOverStates(seq *Sequence, subjA, subjB, attr string) (float64, bool) {
	ca, cb := seq.firsts(subjA, attr), seq.firsts(subjB, attr)
	n := 0
	var sx, sy, sxx, syy, sxy float64
	sa, va, oka := ca.next()
	sb, vb, okb := cb.next()
	for oka && okb {
		switch {
		case sa < sb:
			sa, va, oka = ca.next()
		case sb < sa:
			sb, vb, okb = cb.next()
		default:
			fa, ok1 := va.AsFloat()
			fb, ok2 := vb.AsFloat()
			if ok1 && ok2 {
				n++
				sx += fa
				sy += fb
				sxx += fa * fa
				syy += fb * fb
				sxy += fa * fb
			}
			sa, va, oka = ca.next()
			sb, vb, okb = cb.next()
		}
	}
	if n < 2 {
		return 0, false
	}
	fn := float64(n)
	cov := sxy - sx*sy/fn
	vx := sxx - sx*sx/fn
	vy := syy - sy*sy/fn
	if vx <= 0 || vy <= 0 {
		return 0, false
	}
	return cov / math.Sqrt(vx*vy), true
}

// SequenceBuilder holds the stream mappings of one stream; per-task
// StreamReaders built from it turn window batches into sequences.
type SequenceBuilder struct {
	schema   stream.Schema
	tsIdx    int
	mappings []mapping.Mapping // stream-sourced mappings of the stream
	funcs    *engine.FuncRegistry
}

// NewSequenceBuilder selects the stream-sourced mappings relevant to the
// given stream from the mapping set.
func NewSequenceBuilder(schema stream.Schema, set *mapping.Set) (*SequenceBuilder, error) {
	tsIdx, err := schema.Tuple.IndexOf(schema.TSCol)
	if err != nil {
		return nil, err
	}
	b := &SequenceBuilder{schema: schema, tsIdx: tsIdx, funcs: engine.NewFuncRegistry()}
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

// BuildColumnar builds the sequence of a window batch from its shared
// columnar form (stream.Batch.Columns), over every stream mapping and
// restricted to the given subjects (nil means all subjects). It builds
// a one-off reader; a window sink builds its reader once per task.
func (b *SequenceBuilder) BuildColumnar(batch stream.Batch, subjects map[string]bool) (*Sequence, error) {
	var subj []string
	if subjects != nil {
		subj = make([]string, 0, len(subjects))
		for s := range subjects {
			subj = append(subj, s)
		}
	}
	r, err := b.Reader(nil, subj)
	if err != nil {
		return nil, err
	}
	return r.Read(batch.Columns())
}

// StreamReader is one task's view of a stream: it keeps only the stream
// mappings whose predicates the task's HAVING condition can read, and
// only the rows whose subject is one of the task's bound subjects. It
// is built once, at registration, and is read-only afterwards, so
// concurrent Read calls are safe; all per-window state lives in Read.
type StreamReader struct {
	tsIdx    int
	plans    []readPlan
	preds    []string
	fan      []int32          // by predicate ordinal: plans mapping it
	indexes  int              // distinct bound-subject indexes
	objects  bool             // some plan maps an object property
	subjects map[string]int32 // bound subject IRI -> ordinal; nil = every subject
}

// readPlan is one stream mapping resolved against the stream schema.
type readPlan struct {
	m        mapping.Mapping
	pred     int32
	rank     int32               // among the plans of its predicate
	where    engine.CompiledExpr // source filter over the stream tuple; nil = none
	subjCols []int
	objData  int   // data-property column ordinal, -1 otherwise
	objCols  []int // object IRI template ordinals (object properties)
	// index is the bound-subject index of a single-column subject
	// template; nil when subjects are unbound or the template has
	// several columns: such plans render the IRI once per distinct key
	// per window instead.
	index *subjectIndex
}

// subjectIndex maps the raw value of a one-column subject template to
// the ordinal of the bound subject it renders: every bound subject IRI
// inverted through the template. A segment that is a canonical integer
// is keyed by the integer, any other segment by the string, so a row
// probes the integer map with its typed int64 and otherwise with its
// raw string — exactly the rows whose rendering is a bound subject.
// Plans with the same template share one index.
type subjectIndex struct {
	id    int // ordinal among the reader's indexes
	col   string
	typ   relation.Type // schema type of the key column
	byInt map[int64]int32
	byStr map[string]int32
}

func newSubjectIndex(t mapping.Template, typ relation.Type, subjects map[string]int32) *subjectIndex {
	ix := &subjectIndex{col: t.Columns[0], typ: typ, byInt: map[int64]int32{}, byStr: map[string]int32{}}
	for iri, k := range subjects {
		seg, ok := invertSingle(t, iri)
		if !ok {
			continue
		}
		if n, ok := canonicalInt(seg); ok {
			ix.byInt[n] = k
		} else {
			ix.byStr[seg] = k
		}
	}
	return ix
}

// canonicalInt parses s when it is the decimal rendering of an int64.
func canonicalInt(s string) (int64, bool) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || strconv.FormatInt(n, 10) != s {
		return 0, false
	}
	return n, true
}

// probe resolves row i of the key column v (-1 = not a bound subject).
func (ix *subjectIndex) probe(v *relation.Vector, i int) int32 {
	var key string
	switch {
	case v.ElemType() == relation.TInt && !v.IsNull(i):
		if k, ok := ix.byInt[v.Ints()[i]]; ok {
			return k
		}
		return -1
	case v.ElemType() == relation.TString && !v.IsNull(i):
		key = v.Strs()[i]
	default:
		key = rawString(v.Value(i))
	}
	if n, ok := canonicalInt(key); ok {
		if k, ok := ix.byInt[n]; ok {
			return k
		}
	} else if k, ok := ix.byStr[key]; ok {
		return k
	}
	return -1
}

// Reader builds a task's stream reader. preds lists the predicates the
// task can read (nil means every mapped predicate); subjects lists the
// task's bound subject IRIs (nil means every subject: the reader then
// renders each distinct subject IRI once per window).
func (b *SequenceBuilder) Reader(preds, subjects []string) (*StreamReader, error) {
	r := &StreamReader{tsIdx: b.tsIdx}
	if subjects != nil {
		r.subjects = make(map[string]int32, len(subjects))
		for _, s := range subjects {
			if _, dup := r.subjects[s]; !dup {
				r.subjects[s] = int32(len(r.subjects))
			}
		}
	}
	var want map[string]bool
	if preds != nil {
		want = make(map[string]bool, len(preds))
		for _, p := range preds {
			want[p] = true
		}
	}
	predOrd := map[string]int32{}
	indexes := map[string]*subjectIndex{} // by subject template
	tuple := b.schema.Tuple
	for _, m := range b.mappings {
		if want != nil && !want[m.Pred] {
			continue
		}
		p := readPlan{m: m, objData: -1}
		ord, ok := predOrd[m.Pred]
		if !ok {
			ord = int32(len(r.preds))
			predOrd[m.Pred] = ord
			r.preds = append(r.preds, m.Pred)
		}
		p.pred = ord
		for len(r.fan) <= int(ord) {
			r.fan = append(r.fan, 0)
		}
		p.rank = r.fan[ord]
		r.fan[ord]++
		if w := m.Source.Where; w != nil {
			// The filter the unfolded fleet applies, with the engine's
			// semantics: NULLs, IS NULL, IN, CASE and functions included.
			w = mapping.QualifyExpr(w, "")
			if !engine.ResolvesAgainst(w, tuple) {
				return nil, fmt.Errorf("starql: mapping filter %s reads a column stream %s lacks", w, b.schema.Name)
			}
			p.where, _ = engine.Compile(w, tuple, b.funcs)
		}
		for _, c := range m.Subject.Columns {
			idx, err := tuple.IndexOf(c)
			if err != nil {
				return nil, err
			}
			p.subjCols = append(p.subjCols, idx)
		}
		if !m.IsClass {
			if m.ObjectIsData {
				idx, err := tuple.IndexOf(m.Object.Columns[0])
				if err != nil {
					return nil, err
				}
				p.objData = idx
			} else {
				r.objects = true
				for _, c := range m.Object.Columns {
					idx, err := tuple.IndexOf(c)
					if err != nil {
						return nil, err
					}
					p.objCols = append(p.objCols, idx)
				}
			}
		}
		if r.subjects != nil && len(p.subjCols) == 1 {
			key := m.Subject.String()
			if p.index = indexes[key]; p.index == nil {
				p.index = newSubjectIndex(m.Subject, tuple.Columns[p.subjCols[0]].Type, r.subjects)
				p.index.id = r.indexes
				r.indexes++
				indexes[key] = p.index
			}
		}
		r.plans = append(r.plans, p)
	}
	return r, nil
}

// invertSingle inverts a one-column template exactly: the segment whose
// rendering is iri. Unlike Template.Invert it needs no separator
// heuristics, so a row matches exactly when its rendering would.
func invertSingle(t mapping.Template, iri string) (string, bool) {
	pre, post := t.Literals[0], t.Literals[1]
	if len(iri) < len(pre)+len(post) || !strings.HasPrefix(iri, pre) || !strings.HasSuffix(iri, post) {
		return "", false
	}
	return iri[len(pre) : len(iri)-len(post)], true
}

// String describes the reader for EXPLAIN: the subject key columns and
// their key types, the bound subject count, and the predicates read.
func (r *StreamReader) String() string {
	var keys []string
	for _, p := range r.plans {
		k := strings.Join(p.m.Subject.Columns, ",") + ":rendered"
		if ix := p.index; ix != nil {
			k = ix.col + ":string"
			if ix.typ == relation.TInt {
				k = ix.col + ":int64"
			}
		}
		if !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	subj := "all"
	if r.subjects != nil {
		subj = strconv.Itoa(len(r.subjects))
	}
	return fmt.Sprintf("keys=[%s] subjects=%s preds=[%s] mappings=%d",
		strings.Join(keys, " "), subj, strings.Join(r.preds, " "), len(r.plans))
}

// windowRead is the per-window state of one Read call.
type windowRead struct {
	r   *StreamReader
	cb  *relation.ColBatch
	seq *Sequence
	ts  func(i int) int64 // row i's timestamp (checked by Read)
	// probes holds, per bound-subject index, the last row it resolved
	// and its subject ordinal: plans sharing an index probe a row once
	// per pass.
	probes []indexProbe
	// Per-plan memos of the render path, keyed by the raw subject key:
	// subject ordinal (-1 = not a task subject), and object IRI index.
	memoInt []map[int64]int32
	memoStr []map[string]int32
	objMemo []map[string]int32
	segs    []string
	// row is the scratch tuple source filters read; it holds window row
	// filled (-1 = none yet).
	row    relation.Tuple
	filled int
}

type indexProbe struct{ row, subj int32 }

// Read builds the StdSeq sequence of one window from its columns. The
// states are the distinct timestamps of all rows, so a state exists
// even when none of its rows survives the reader's filters. Two passes
// over the rows, in state order, first count the elements of every run
// and then place them; no per-row buffer is kept between them. The
// sequence aliases the columns; it copies no value out of them.
func (r *StreamReader) Read(cb *relation.ColBatch) (*Sequence, error) {
	seq := &Sequence{preds: r.preds, subjects: r.subjects}
	n := cb.Len()
	if n == 0 {
		return seq, nil
	}
	w := &windowRead{r: r, cb: cb, seq: seq, filled: -1}
	tsVec := cb.Col(r.tsIdx)
	if et := tsVec.ElemType(); (et == relation.TInt || et == relation.TTime) && !tsVec.HasNulls() {
		ints := tsVec.Ints()
		w.ts = func(i int) int64 { return ints[i] }
	} else {
		for i := 0; i < n; i++ {
			if _, ok := tsVec.Value(i).AsInt(); !ok {
				return nil, fmt.Errorf("starql: row without timestamp: %v", cb.Row(i))
			}
		}
		w.ts = func(i int) int64 { t, _ := tsVec.Value(i).AsInt(); return t }
	}
	for i := 1; i < n; i++ {
		if w.ts(i) < w.ts(i-1) {
			// Out of timestamp order: visit rows stably sorted by it.
			seq.order = make([]int32, n)
			for j := range seq.order {
				seq.order[j] = int32(j)
			}
			slices.SortStableFunc(seq.order, func(a, b int32) int { return cmp.Compare(w.ts(int(a)), w.ts(int(b))) })
			break
		}
	}
	w.states()
	maxFan := int32(0)
	for _, f := range r.fan {
		maxFan = max(maxFan, f)
	}
	if int64(n)*int64(maxFan) > math.MaxInt32 {
		return nil, fmt.Errorf("starql: window of %d rows is too large to sequence", n)
	}
	if r.subjects == nil {
		seq.subjects = map[string]int32{}
	}
	if r.indexes > 0 {
		w.probes = make([]indexProbe, r.indexes)
		for i := range w.probes {
			w.probes[i].row = -1
		}
	}
	np := len(r.preds)
	// Pass 1: count the elements of every run. Runs are numbered
	// subject-major, so the render path may add subjects as it goes.
	// With a fixed subject set the counts never outgrow one run per
	// (subject, predicate): reserve that once, since the window may
	// reach the highest subject ordinal early (bindings are sorted by
	// IRI, not by the order rows arrive in).
	counts := make([]int32, 0, len(seq.subjects)*np)
	err := w.each(func(_, _, pi int, k int32) error {
		run := int(k)*np + int(r.plans[pi].pred)
		for len(counts) <= run {
			counts = append(counts, 0)
		}
		counts[run]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(counts) == 0 {
		return seq, nil
	}
	nruns := len(seq.subjects) * np
	seq.runs = make([]int32, nruns+1)
	for k, c := range counts {
		seq.runs[k+1] = seq.runs[k] + c
	}
	for k := len(counts) + 1; k <= nruns; k++ {
		seq.runs[k] = seq.runs[k-1]
	}
	total := seq.runs[nruns]
	seq.elems = make([]int32, total)
	if r.objects {
		seq.iriOf = make([]int32, total)
	}
	// counts becomes each run's cursor.
	counts = append(counts[:0], seq.runs[:nruns]...)
	// Pass 2: place every element at its run's cursor.
	err = w.each(func(pos, i, pi int, k int32) error {
		p := &r.plans[pi]
		run := int(k)*np + int(p.pred)
		at := counts[run]
		counts[run]++
		seq.elems[at] = int32(pos)*r.fan[p.pred] + p.rank
		if !p.m.IsClass && p.objData < 0 {
			iri, err := w.object(pi, i)
			if err != nil {
				return err
			}
			seq.iriOf[at] = iri
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seq.plans = r.sources(cb)
	return seq, nil
}

// states lists the window's states: the distinct timestamps in visiting
// order and the visiting position each state starts at.
func (w *windowRead) states() {
	seq, n := w.seq, w.cb.Len()
	count := 0
	var prev int64
	for pos := 0; pos < n; pos++ {
		if t := w.ts(seq.row(int32(pos))); pos == 0 || t != prev {
			count++
			prev = t
		}
	}
	seq.ts = make([]int64, 0, count)
	seq.starts = make([]int32, 0, count+1)
	for pos := 0; pos < n; pos++ {
		if t := w.ts(seq.row(int32(pos))); pos == 0 || t != prev {
			seq.ts = append(seq.ts, t)
			seq.starts = append(seq.starts, int32(pos))
			prev = t
		}
	}
	seq.starts = append(seq.starts, int32(n))
}

// sources resolves where each predicate's elements read their values in
// one window's columns.
func (r *StreamReader) sources(cb *relation.ColBatch) [][]elemPlan {
	src := make([][]elemPlan, len(r.preds))
	plans := make([]elemPlan, len(r.plans))
	off := int32(0)
	for p := range src {
		f := r.fan[p]
		src[p] = plans[off : off+f : off+f]
		off += f
	}
	for _, pl := range r.plans {
		ep := elemPlan{class: pl.m.IsClass}
		if pl.objData >= 0 {
			ep.col = cb.Col(pl.objData)
		}
		src[pl.pred][pl.rank] = ep
	}
	return src
}

// each visits every (row, plan) assertion of the window that survives
// the subject restriction and the plan's source filter, rows in state
// order (rows outer, plans inner), with the row's visiting position, the
// row and the subject ordinal. The cheap subject probe runs first, so
// the filter is evaluated only on the task's own rows (and a filter that
// errors only fails windows where it is evaluated).
func (w *windowRead) each(fn func(pos, i, pi int, k int32) error) error {
	for pos := 0; pos < w.cb.Len(); pos++ {
		i := w.seq.row(int32(pos))
		for pi := range w.r.plans {
			p := &w.r.plans[pi]
			subj, err := w.subject(pi, i)
			if err != nil {
				return err
			}
			if subj < 0 {
				continue
			}
			if p.where != nil {
				v, err := p.where(w.tuple(i))
				if err != nil {
					return err
				}
				if !v.Truthy() {
					continue
				}
			}
			if err := fn(pos, i, pi, subj); err != nil {
				return err
			}
		}
	}
	return nil
}

// tuple returns row i in the scratch tuple, filled once per row.
func (w *windowRead) tuple(i int) relation.Tuple {
	if w.row == nil {
		w.row = make(relation.Tuple, w.cb.Arity())
	}
	if w.filled != i {
		for c := range w.row {
			w.row[c] = w.cb.Col(c).Value(i)
		}
		w.filled = i
	}
	return w.row
}

// subject resolves row i's subject under plan pi to its ordinal (-1 =
// not a task subject): one typed probe of the bound-subject index per
// row, or the IRI rendered once per distinct key per window.
func (w *windowRead) subject(pi, i int) (int32, error) {
	p := &w.r.plans[pi]
	if ix := p.index; ix != nil {
		pr := &w.probes[ix.id]
		if pr.row != int32(i) {
			pr.row, pr.subj = int32(i), ix.probe(w.cb.Col(p.subjCols[0]), i)
		}
		return pr.subj, nil
	}
	// Render path (unbound subjects or a multi-column template): the
	// IRI is rendered once per distinct raw key per window.
	if w.memoInt == nil {
		w.memoInt = make([]map[int64]int32, len(w.r.plans))
		w.memoStr = make([]map[string]int32, len(w.r.plans))
	}
	var intKey int64
	var strKey string
	v := w.cb.Col(p.subjCols[0])
	isInt := len(p.subjCols) == 1 && v.ElemType() == relation.TInt && !v.IsNull(i)
	if isInt {
		intKey = v.Ints()[i]
		if k, ok := w.memoInt[pi][intKey]; ok {
			return k, nil
		}
		w.segs = append(w.segs[:0], strconv.FormatInt(intKey, 10))
	} else {
		w.segs = w.segs[:0]
		for _, c := range p.subjCols {
			w.segs = append(w.segs, rawString(w.cb.Col(c).Value(i)))
		}
		strKey = strings.Join(w.segs, "\x1f")
		if k, ok := w.memoStr[pi][strKey]; ok {
			return k, nil
		}
	}
	iri, err := p.m.Subject.Render(w.segs)
	if err != nil {
		return -1, err
	}
	k := int32(-1)
	if w.r.subjects != nil {
		if o, ok := w.r.subjects[iri]; ok {
			k = o
		}
	} else if o, ok := w.seq.subjects[iri]; ok {
		k = o
	} else {
		k = int32(len(w.seq.subjects))
		w.seq.subjects[iri] = k
	}
	if isInt {
		if w.memoInt[pi] == nil {
			w.memoInt[pi] = map[int64]int32{}
		}
		w.memoInt[pi][intKey] = k
	} else {
		if w.memoStr[pi] == nil {
			w.memoStr[pi] = map[string]int32{}
		}
		w.memoStr[pi][strKey] = k
	}
	return k, nil
}

// object renders row i's object IRI under object-property plan pi,
// once per distinct key per window, into the sequence's IRI table and
// returns its index there.
func (w *windowRead) object(pi, i int) (int32, error) {
	p := &w.r.plans[pi]
	s := w.segs[:0]
	for _, c := range p.objCols {
		s = append(s, rawString(w.cb.Col(c).Value(i)))
	}
	w.segs = s
	key := strings.Join(s, "\x1f")
	if w.objMemo == nil {
		w.objMemo = make([]map[string]int32, len(w.r.plans))
	}
	if at, ok := w.objMemo[pi][key]; ok {
		return at, nil
	}
	iri, err := p.m.Object.Render(s)
	if err != nil {
		return 0, err
	}
	if w.objMemo[pi] == nil {
		w.objMemo[pi] = map[string]int32{}
	}
	at := int32(len(w.seq.iris))
	w.seq.iris = append(w.seq.iris, iri)
	w.objMemo[pi][key] = at
	return at, nil
}

// rawString is a value's template segment: the string itself, or the
// SQL rendering of any other value without literal quotes.
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
