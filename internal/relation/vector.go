package relation

import (
	"math/bits"
	"slices"
)

// This file is the columnar half of the data model: typed column
// vectors with null bitmaps, selection bitmaps, and the batch-of-columns
// container the vectorized window kernels execute over. A Vector stores
// one column of a batch in a typed backing slice (int64/float64/string/
// bool) when every non-NULL value shares a type, or falls back to a
// generic []Value for mixed columns, so kernels can run tight loops on
// the common case without losing row-path semantics on the odd one.

// Bitmap is a fixed-length bitset used for null masks and row
// selections. The zero value is unusable; call NewBitmap.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-clear bitmap of length n.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the bitmap's length in bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetAll sets every bit in [0, Len).
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// trimTail clears the unused bits of the last word so Count stays exact.
func (b *Bitmap) trimTail() {
	if tail := uint(b.n) & 63; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << tail) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Next returns the smallest set bit >= i, or -1 when none remains. It
// lets kernels iterate a selection in ascending row order:
//
//	for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) { ... }
func (b *Bitmap) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	w := i >> 6
	word := b.words[w] >> (uint(i) & 63)
	if word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b.words); w++ {
		if b.words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b.words[w])
		}
	}
	return -1
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{words: append([]uint64(nil), b.words...), n: b.n}
}

// Reset returns an all-clear bitmap of length n, reusing b's backing
// when it fits (b may be nil). Callers own the lifecycle: only reuse a
// bitmap whose previous consumers are done with it.
func (b *Bitmap) Reset(n int) *Bitmap {
	w := (n + 63) / 64
	if b == nil || cap(b.words) < w {
		return NewBitmap(n)
	}
	b.words = b.words[:w]
	clear(b.words)
	b.n = n
	return b
}

// Vector is one column of a batch. When Type is TInt/TTime/TFloat/
// TString/TBool every non-NULL element lives in the matching typed
// slice; TNull marks a mixed-type column backed by Generic. NULLs are
// tracked in the nulls bitmap (nil when the column has none).
type Vector struct {
	typ     Type
	ints    []int64 // TInt and TTime (milliseconds)
	floats  []float64
	strs    []string
	bools   []bool
	generic []Value
	nulls   *Bitmap
	n       int
}

// Len returns the number of elements.
func (v *Vector) Len() int { return v.n }

// ElemType returns the column's element type; TNull means mixed (use
// Value) — a column of only NULLs also reports TNull with no backing.
func (v *Vector) ElemType() Type { return v.typ }

// HasNulls reports whether any element is NULL.
func (v *Vector) HasNulls() bool { return v.nulls != nil && v.nulls.Count() > 0 }

// IsNull reports whether element i is NULL.
func (v *Vector) IsNull(i int) bool {
	if v.nulls != nil && v.nulls.Get(i) {
		return true
	}
	if v.generic != nil {
		return v.generic[i].Type == TNull
	}
	return false
}

// Nulls returns the null bitmap (nil when the column has none).
func (v *Vector) Nulls() *Bitmap { return v.nulls }

// Ints returns the int64 backing slice; valid only when ElemType is
// TInt or TTime. Entries at NULL positions are unspecified.
func (v *Vector) Ints() []int64 { return v.ints }

// Floats returns the float64 backing slice; valid only for TFloat.
func (v *Vector) Floats() []float64 { return v.floats }

// Strs returns the string backing slice; valid only for TString.
func (v *Vector) Strs() []string { return v.strs }

// Bools returns the bool backing slice; valid only for TBool.
func (v *Vector) Bools() []bool { return v.bools }

// Value reconstructs element i as a row-model Value; the round trip is
// exact (a transposed batch materialises back to identical tuples).
func (v *Vector) Value(i int) Value {
	if v.IsNull(i) {
		return Null
	}
	switch v.typ {
	case TInt:
		return Value{Type: TInt, Int: v.ints[i]}
	case TTime:
		return Value{Type: TTime, Int: v.ints[i]}
	case TFloat:
		return Value{Type: TFloat, Float: v.floats[i]}
	case TString:
		return Value{Type: TString, Str: v.strs[i]}
	case TBool:
		return Value{Type: TBool, Bool: v.bools[i]}
	default:
		if v.generic != nil {
			return v.generic[i]
		}
		return Null
	}
}

// VectorBuilder accumulates one column's values, fixing a typed
// backing on the first non-NULL value and degrading to the generic
// layout on the first type mismatch. It is one column of a ColLog that
// never drops a prefix, so a built column and a column-log view of the
// same values have one layout.
type VectorBuilder struct {
	c logCol
	n int
	v Vector
}

// NewVectorBuilder returns a builder; n is a capacity hint.
func NewVectorBuilder(n int) *VectorBuilder {
	return &VectorBuilder{c: logCol{hint: n}}
}

// Append adds one value to the column.
func (b *VectorBuilder) Append(val Value) {
	b.n++
	b.c.append(val, b.n-1, b.n)
}

// Build finalises the column. The builder must not be reused.
func (b *VectorBuilder) Build() *Vector {
	b.c.view(&b.v, 0, 0, b.n)
	return &b.v
}

// NewConstVector returns an n-element vector holding one repeated value
// (compiled constant expressions broadcast into one of these).
func NewConstVector(val Value, n int) *Vector {
	b := NewVectorBuilder(n)
	for i := 0; i < n; i++ {
		b.Append(val)
	}
	return b.Build()
}

// NewGenericVector wraps per-row values (NULLs included, as Null
// entries) as a mixed-layout column.
func NewGenericVector(vals []Value) *Vector {
	return &Vector{typ: TNull, generic: vals, n: len(vals)}
}

// NewIntVector wraps an int64 slice as a TInt column; nulls may be nil.
// Entries at NULL positions are ignored. The slice is retained.
func NewIntVector(vals []int64, nulls *Bitmap) *Vector {
	return &Vector{typ: TInt, ints: vals, nulls: nulls, n: len(vals)}
}

// NewFloatVector wraps a float64 slice as a TFloat column.
func NewFloatVector(vals []float64, nulls *Bitmap) *Vector {
	return &Vector{typ: TFloat, floats: vals, nulls: nulls, n: len(vals)}
}

// Gather returns a fresh vector holding v's elements at idxs, in order:
// element k of the result is element idxs[k] of v, NULL-ness included.
// The layout (typed, generic or all-NULL) is kept, and nil or empty
// idxs yield an empty vector. The result shares no backing with v, so
// later writes to v (kernel scratch) never show through.
func (v *Vector) Gather(idxs []int) *Vector {
	m := len(idxs)
	out := &Vector{typ: v.typ, n: m}
	switch v.typ {
	case TInt, TTime:
		out.ints = make([]int64, m)
		for k, i := range idxs {
			out.ints[k] = v.ints[i]
		}
	case TFloat:
		out.floats = make([]float64, m)
		for k, i := range idxs {
			out.floats[k] = v.floats[i]
		}
	case TString:
		out.strs = make([]string, m)
		for k, i := range idxs {
			out.strs[k] = v.strs[i]
		}
	case TBool:
		out.bools = make([]bool, m)
		for k, i := range idxs {
			out.bools[k] = v.bools[i]
		}
	default:
		if v.generic != nil {
			out.generic = make([]Value, m)
			for k, i := range idxs {
				out.generic[k] = v.generic[i]
			}
		}
	}
	if v.nulls != nil {
		for k, i := range idxs {
			if v.nulls.Get(i) {
				if out.nulls == nil {
					out.nulls = NewBitmap(m)
				}
				out.nulls.Set(k)
			}
		}
	}
	return out
}

// Clone returns an independent copy of v — Gather over every element,
// without building the index list (a full selection is the common
// window result).
func (v *Vector) Clone() *Vector {
	out := &Vector{
		typ:     v.typ,
		ints:    slices.Clone(v.ints),
		floats:  slices.Clone(v.floats),
		strs:    slices.Clone(v.strs),
		bools:   slices.Clone(v.bools),
		generic: slices.Clone(v.generic),
		n:       v.n,
	}
	if v.nulls != nil {
		out.nulls = v.nulls.Clone()
	}
	return out
}

// ResetBool repoints v at a TBool payload in place — a TBool column
// without the header allocation, for kernels that reuse one result
// header across serialized executions. v's previous contents are
// discarded; like Bitmap.Reset, only reuse a header whose previous
// consumers are done with it.
func (v *Vector) ResetBool(vals []bool, nulls *Bitmap) *Vector {
	*v = Vector{typ: TBool, bools: vals, nulls: nulls, n: len(vals)}
	return v
}

// ColBatch is a batch of rows in columnar form: one Vector per column,
// all the same length.
type ColBatch struct {
	cols []*Vector
	n    int
	log  uint64 // the ColLog this is a view of (0 for none)
	pos  int    // the absolute position in it of row 0
}

// Source reports which log the batch is a view of and the absolute
// position in that log of its first row; log is 0 when the batch is no
// log's view (a transpose, a kernel's output). Two views of one log
// hold the same rows exactly where their positions overlap.
func (cb *ColBatch) Source() (log uint64, pos int) { return cb.log, cb.pos }

// NewColBatch wraps pre-built column vectors (all of length n).
func NewColBatch(cols []*Vector, n int) *ColBatch { return &ColBatch{cols: cols, n: n} }

// Transpose converts a row batch into columnar form. An empty batch
// yields a zero-row, zero-column ColBatch (arity is unknowable without
// rows, and no kernel reads columns of an empty batch).
func Transpose(rows []Tuple) *ColBatch {
	if len(rows) == 0 {
		return &ColBatch{}
	}
	arity := len(rows[0])
	builders := make([]*VectorBuilder, arity)
	for j := range builders {
		builders[j] = NewVectorBuilder(len(rows))
	}
	for _, row := range rows {
		for j := 0; j < arity; j++ {
			builders[j].Append(row[j])
		}
	}
	cols := make([]*Vector, arity)
	for j, b := range builders {
		cols[j] = b.Build()
	}
	return &ColBatch{cols: cols, n: len(rows)}
}

// Len returns the row count (0 for a nil batch).
func (cb *ColBatch) Len() int {
	if cb == nil {
		return 0
	}
	return cb.n
}

// Arity returns the column count.
func (cb *ColBatch) Arity() int { return len(cb.cols) }

// Col returns column j.
func (cb *ColBatch) Col(j int) *Vector { return cb.cols[j] }

// Row materialises row i as a tuple.
func (cb *ColBatch) Row(i int) Tuple {
	t := make(Tuple, len(cb.cols))
	for j, c := range cb.cols {
		t[j] = c.Value(i)
	}
	return t
}

// Rows materialises the whole batch back into row form.
func (cb *ColBatch) Rows() []Tuple {
	out := make([]Tuple, cb.n)
	for i := range out {
		out[i] = cb.Row(i)
	}
	return out
}
