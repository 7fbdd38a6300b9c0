package relation

import "sort"

// ColLog is the columnar half of a window operator's row log: an
// append-only store of rows, one typed column per attribute, from which
// any [lo, hi) range is served as a read-only ColBatch view without
// copying. Each column fixes a typed backing on its first non-NULL
// value and degrades to the generic layout on the first type mismatch
// (VectorBuilder is one such column).
//
// Views alias the log's arrays, so the log never writes an element a
// view can see: appends land past every view's capped end, dropping a
// prefix only reslices, and growth copies the live rows into a new
// array of twice their count. A view therefore stays valid, unchanged,
// for as long as its holder keeps it.
//
// A view reports exactly what Transpose reports for the same rows —
// element type, layout and NULLs — whichever of the two built a
// batch's columns: Transpose's builders are log columns too, and a
// range of a log column that mixed types earlier but not within the
// range is rebuilt typed.
type ColLog struct {
	cols   []logCol
	n      int  // live rows
	off    int  // rows dropped so far: the absolute index of live row 0
	ragged bool // a row's arity differed from the first live row's
}

// logCol is one column of a ColLog.
type logCol struct {
	typ     Type
	typed   bool // a typed backing has been chosen
	ints    []int64
	floats  []float64
	strs    []string
	bools   []bool
	generic []Value // non-nil once the column degraded
	nulls   []int   // absolute row indexes of the NULLs, ascending
	hint    int     // capacity the typed backing starts with (a builder's); 0 in a log
}

// Append adds one row. The first row after the log was empty fixes the
// arity; a row of any other arity makes the log ragged until it next
// empties, and View serves no columns meanwhile.
func (l *ColLog) Append(row Tuple) {
	if l.n == 0 {
		l.ragged = false
		if len(l.cols) != len(row) {
			l.cols = make([]logCol, len(row))
		}
	}
	abs := l.off + l.n
	l.n++
	if l.ragged || len(row) != len(l.cols) {
		l.ragged = true
		return
	}
	for j := range l.cols {
		l.cols[j].append(row[j], abs, l.n)
	}
}

// DropPrefix forgets the k oldest live rows by reslicing only: views
// over them stay valid, and their memory is reclaimed when the log next
// grows into a new array.
func (l *ColLog) DropPrefix(k int) {
	if k <= 0 {
		return
	}
	l.n -= k
	l.off += k
	if l.ragged {
		if l.n == 0 {
			l.cols = nil // the columns stopped at the ragged row
		}
		return
	}
	for j := range l.cols {
		l.cols[j].dropPrefix(k, l.off, l.n)
	}
}

// View returns rows [lo, hi) of the live log in columnar form. Typed
// and generic backings are sliced, capped to the view; a null bitmap is
// built only when the view has NULLs. It returns nil when the log is
// ragged (callers transpose the rows instead). An empty range yields
// the zero-column batch Transpose gives an empty row set.
func (l *ColLog) View(lo, hi int) *ColBatch {
	if l.ragged {
		return nil
	}
	if hi <= lo {
		return &ColBatch{}
	}
	cols := make([]*Vector, len(l.cols))
	vecs := make([]Vector, len(l.cols))
	for j := range l.cols {
		l.cols[j].view(&vecs[j], l.off+lo, lo, hi)
		cols[j] = &vecs[j]
	}
	return &ColBatch{cols: cols, n: hi - lo}
}

// GrowLog is the growth rule of append-only logs that hand out views:
// it returns s ready for one more append without touching an element
// that s or any slice of its array can see. When s is full, the live
// elements move to a new array of twice their count (an explicit
// doubling, so growth stays amortised however much prefix was dropped).
func GrowLog[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	out := make([]T, len(s), max(2*len(s), 8))
	copy(out, s)
	return out
}

// append adds v as the column's element abs (absolute row index); n is
// the live row count including it.
func (c *logCol) append(v Value, abs, n int) {
	if v.Type == TNull {
		c.nulls = append(GrowLog(c.nulls), abs)
		c.pad()
		return
	}
	if !c.typed && c.generic == nil {
		// The first non-NULL value fixes the type; backfill the
		// leading NULLs.
		c.typed = true
		c.typ = v.Type
		c.reserve()
		for k := 0; k < n-1; k++ {
			c.pad()
		}
	}
	if c.generic == nil && c.typ != v.Type {
		c.degrade(n-1, abs-(n-1))
	}
	if c.generic != nil {
		c.generic = append(GrowLog(c.generic), v)
		return
	}
	switch c.typ {
	case TInt, TTime:
		c.ints = append(GrowLog(c.ints), v.Int)
	case TFloat:
		c.floats = append(GrowLog(c.floats), v.Float)
	case TString:
		c.strs = append(GrowLog(c.strs), v.Str)
	case TBool:
		c.bools = append(GrowLog(c.bools), v.Bool)
	}
}

// reserve gives the just-chosen typed backing the hinted capacity, so a
// builder of known length fills it without growing.
func (c *logCol) reserve() {
	if c.hint <= 0 {
		return
	}
	switch c.typ {
	case TInt, TTime:
		c.ints = make([]int64, 0, c.hint)
	case TFloat:
		c.floats = make([]float64, 0, c.hint)
	case TString:
		c.strs = make([]string, 0, c.hint)
	case TBool:
		c.bools = make([]bool, 0, c.hint)
	}
}

// pad appends a placeholder for a NULL so the backing stays index
// aligned with the rows; before a backing is chosen it is a no-op.
func (c *logCol) pad() {
	if c.generic != nil {
		c.generic = append(GrowLog(c.generic), Null)
		return
	}
	if !c.typed {
		return
	}
	switch c.typ {
	case TInt, TTime:
		c.ints = append(GrowLog(c.ints), 0)
	case TFloat:
		c.floats = append(GrowLog(c.floats), 0)
	case TString:
		c.strs = append(GrowLog(c.strs), "")
	case TBool:
		c.bools = append(GrowLog(c.bools), false)
	}
}

// degrade moves the column's m typed elements into a new generic
// backing, NULLs as Null (the typed arrays stay as they are for the
// views over them); off is the absolute index of live element 0.
func (c *logCol) degrade(m, off int) {
	g := make([]Value, m, max(2*m, 8, c.hint))
	for i := range g {
		g[i] = c.value(i)
	}
	for _, p := range c.nulls {
		g[p-off] = Null
	}
	c.generic = g
	c.ints, c.floats, c.strs, c.bools = nil, nil, nil, nil
	c.typ = TNull
	c.typed = false
}

// value reads live element i of a typed column (a NULL's placeholder
// reads as the type's zero value).
func (c *logCol) value(i int) Value {
	var v Value
	switch c.typ {
	case TInt, TTime:
		v = Value{Type: c.typ, Int: c.ints[i]}
	case TFloat:
		v = Value{Type: TFloat, Float: c.floats[i]}
	case TString:
		v = Value{Type: TString, Str: c.strs[i]}
	case TBool:
		v = Value{Type: TBool, Bool: c.bools[i]}
	}
	return v
}

// dropPrefix reslices past the k oldest elements; off is the new
// absolute index of live element 0 and n the remaining live count. An
// emptied column forgets its type, so the next row fixes it afresh the
// way a transpose of the next window would.
func (c *logCol) dropPrefix(k, off, n int) {
	if c.generic != nil {
		c.generic = c.generic[k:]
	} else if c.typed {
		switch c.typ {
		case TInt, TTime:
			c.ints = c.ints[k:]
		case TFloat:
			c.floats = c.floats[k:]
		case TString:
			c.strs = c.strs[k:]
		case TBool:
			c.bools = c.bools[k:]
		}
	}
	i := 0
	for i < len(c.nulls) && c.nulls[i] < off {
		i++
	}
	c.nulls = c.nulls[i:]
	if n == 0 {
		c.typ, c.typed, c.generic = TNull, false, nil
	}
}

// view fills v with live elements [lo, hi) of the column; abs is the
// absolute index of element lo.
func (c *logCol) view(v *Vector, abs, lo, hi int) {
	m := hi - lo
	first := sort.SearchInts(c.nulls, abs)
	last := sort.SearchInts(c.nulls, abs+m)
	var nulls *Bitmap
	if last > first {
		nulls = NewBitmap(m)
		for _, p := range c.nulls[first:last] {
			nulls.Set(p - abs)
		}
	}
	*v = Vector{typ: TNull, nulls: nulls, n: m}
	switch {
	case last-first == m:
		// Only NULLs: Transpose never chooses a backing.
	case c.generic != nil:
		g := c.generic[lo:hi:hi]
		if uniformType(g) {
			// The log mixes types but this range does not: build the
			// typed column Transpose would.
			b := NewVectorBuilder(m)
			for _, val := range g {
				b.Append(val)
			}
			*v = *b.Build()
			return
		}
		v.generic = g
	default:
		v.typ = c.typ
		switch c.typ {
		case TInt, TTime:
			v.ints = c.ints[lo:hi:hi]
		case TFloat:
			v.floats = c.floats[lo:hi:hi]
		case TString:
			v.strs = c.strs[lo:hi:hi]
		case TBool:
			v.bools = c.bools[lo:hi:hi]
		}
	}
}

// uniformType reports whether every non-NULL value of g has one type
// (g holds at least one).
func uniformType(g []Value) bool {
	t := TNull
	for _, v := range g {
		switch {
		case v.Type == TNull:
		case t == TNull:
			t = v.Type
		case v.Type != t:
			return false
		}
	}
	return true
}
