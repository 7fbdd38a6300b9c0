package recovery

import (
	"fmt"
	"slices"

	"repro/internal/relation"
	"repro/internal/stream"
	"repro/internal/wire"
)

// A checkpoint blob is one wire frame whose payload is fixed-width
// little-endian, maps in ascending key order (docs/recovery.md has the
// layout). Each window operator is written once, as its log of rows and
// the offset in it of every open window; a query names the operators it
// reads by their index. The staged batches of one stream reference form
// a chain in time order: a batch that repeats its predecessor's rows
// from index skip to the end writes only the rows after them, so each
// staged row is written once per chain, not once per overlapping
// window that holds it.

// Minimum encoded sizes, which bound the element counts a decoder
// accepts for the bytes that remain.
const (
	minQuery    = 37
	minEntry    = 12
	minPending  = 12
	minBatch    = 32
	minOperator = 64
	minOpen     = 28
	minRef      = 4
	minRow      = 2
)

// Encode serializes a checkpoint into its framed wire form.
func Encode(ck *Checkpoint) ([]byte, error) { return appendCheckpoint(nil, ck), nil }

// Decode parses a framed checkpoint, detecting torn (truncated or
// corrupted) writes.
func Decode(b []byte) (*Checkpoint, error) {
	p, err := wire.Check(b)
	if err != nil {
		return nil, fmt.Errorf("recovery: torn checkpoint: %w", err)
	}
	r := wire.NewReader(p)
	ck := &Checkpoint{Node: int(r.I64()), TakenAtMS: r.I64(), Cursors: readMap(r), EmitHWM: readMap(r)}
	if n := r.Count(minOperator); n > 0 {
		ck.Engine.Windows = make([]Window, n)
		for i := range ck.Engine.Windows {
			readWindow(r, &ck.Engine.Windows[i])
		}
	}
	if n := r.Count(minQuery); n > 0 {
		ck.Engine.Queries = make([]QueryState, n)
		for i := range ck.Engine.Queries {
			readQuery(r, &ck.Engine.Queries[i], len(ck.Engine.Windows))
		}
	}
	if r.Len() > 0 {
		r.Fail(wire.ErrMalformed) // trailing bytes
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("recovery: decode checkpoint: %w", err)
	}
	return ck, nil
}

// appendCheckpoint frames the encoded checkpoint onto b.
func appendCheckpoint(b []byte, ck *Checkpoint) []byte {
	b, start := wire.Open(b)
	b = wire.AppendI64(b, int64(ck.Node))
	b = wire.AppendI64(b, ck.TakenAtMS)
	b = appendMap(b, ck.Cursors)
	b = appendMap(b, ck.EmitHWM)
	b = wire.AppendU32(b, uint32(len(ck.Engine.Windows)))
	for i := range ck.Engine.Windows {
		b = appendWindow(b, &ck.Engine.Windows[i])
	}
	b = wire.AppendU32(b, uint32(len(ck.Engine.Queries)))
	for i := range ck.Engine.Queries {
		b = appendQuery(b, &ck.Engine.Queries[i])
	}
	return wire.Seal(b, start)
}

func appendMap(b []byte, m map[string]int64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = wire.AppendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = wire.AppendI64(wire.AppendString(b, k), m[k])
	}
	return b
}

func readMap(r *wire.Reader) map[string]int64 {
	n := r.Count(minEntry)
	if n == 0 {
		return nil
	}
	m := make(map[string]int64, n)
	var last string
	for i := 0; i < n; i++ {
		k := r.String()
		if i > 0 && k <= last {
			r.Fail(wire.ErrMalformed) // keys out of order
		}
		m[k], last = r.I64(), k
	}
	return m
}

// appendWindow writes one window operator: spec and cursors, its log
// and the offset in it of each open window.
func appendWindow(b []byte, w *Window) []byte {
	for _, v := range [...]int64{w.Spec.RangeMS, w.Spec.SlideMS, w.Spec.StartMS, w.NextEmit, w.MaxTS, w.Late, w.Seq} {
		b = wire.AppendI64(b, v)
	}
	b = wire.AppendU32(b, uint32(len(w.Rows)))
	for _, row := range w.Rows {
		b = wire.AppendRow(b, row)
	}
	b = wire.AppendU32(b, uint32(len(w.Open)))
	for _, o := range w.Open {
		b = wire.AppendI64(b, o.ID)
		b = wire.AppendI64(b, o.Start)
		b = wire.AppendI64(b, o.End)
		b = wire.AppendU32(b, uint32(o.Offset))
	}
	return b
}

// readWindow decodes one window operator, rejecting open windows no
// operator could hold (see stream.WindowState.Check).
func readWindow(r *wire.Reader, w *Window) {
	w.Spec = stream.WindowSpec{RangeMS: r.I64(), SlideMS: r.I64(), StartMS: r.I64()}
	w.NextEmit, w.MaxTS, w.Late, w.Seq = r.I64(), r.I64(), r.I64(), r.I64()
	if n := r.Count(minRow); n > 0 {
		w.Rows = make([]relation.Tuple, n)
		for i := range w.Rows {
			w.Rows[i] = r.Row()
		}
	}
	if n := r.Count(minOpen); n > 0 {
		w.Open = make([]stream.OpenWindow, n)
		for i := range w.Open {
			w.Open[i] = stream.OpenWindow{ID: r.I64(), Start: r.I64(), End: r.I64(), Offset: int(r.U32())}
		}
	}
	if r.Err() == nil && w.Check() != nil {
		r.Fail(wire.ErrMalformed)
	}
}

// appendQuery writes one query: its fields, the index of the operator
// each stream reference reads (-1 as 0xffffffff), and its staged
// windows.
func appendQuery(b []byte, q *QueryState) []byte {
	b = wire.AppendString(b, q.ID)
	b = wire.AppendI64(b, int64(q.Failures))
	b = wire.AppendBool(b, q.Suspended)
	b = wire.AppendI64(b, q.Budget)
	b = wire.AppendI64(b, q.Stride)
	b = wire.AppendU32(b, uint32(len(q.Windows)))
	for _, k := range q.Windows {
		b = wire.AppendU32(b, uint32(k))
	}
	b = wire.AppendU32(b, uint32(len(q.Pending)))
	prev := make([][]relation.Tuple, len(q.Windows)) // each chain's last batch
	for _, pw := range q.Pending {
		refs := make([]int, 0, len(pw.Batches))
		for ref := range pw.Batches {
			refs = append(refs, ref)
		}
		slices.Sort(refs)
		b = wire.AppendI64(b, pw.End)
		b = wire.AppendU32(b, uint32(len(refs)))
		for _, ref := range refs {
			var none []relation.Tuple
			chain := &none
			if ref >= 0 && ref < len(prev) {
				chain = &prev[ref]
			}
			b = appendBatch(wire.AppendI64(b, int64(ref)), pw.Batches[ref], chain)
		}
	}
	return b
}

// readQuery decodes one query whose indices may name any of the
// checkpoint's first windows operators.
func readQuery(r *wire.Reader, q *QueryState, windows int) {
	q.ID = r.String()
	q.Failures = int(r.I64())
	q.Suspended = r.Bool()
	q.Budget = r.I64()
	q.Stride = r.I64()
	if n := r.Count(minRef); n > 0 {
		q.Windows = make([]int, n)
		for i := range q.Windows {
			if q.Windows[i] = int(int32(r.U32())); q.Windows[i] < -1 || q.Windows[i] >= windows {
				r.Fail(wire.ErrMalformed) // names no operator
			}
		}
	}
	chains := make([]chain, len(q.Windows))
	if n := r.Count(minPending); n > 0 {
		q.Pending = make([]PendingWindow, n)
	}
	for i := range q.Pending {
		pw := &q.Pending[i]
		pw.End = r.I64()
		n := r.Count(8 + minBatch)
		if n > 0 {
			pw.Batches = make(map[int]stream.Batch, n)
		}
		for j, last := 0, 0; j < n; j++ {
			ref := int(r.I64())
			if j > 0 && ref <= last {
				r.Fail(wire.ErrMalformed) // refs out of order
			}
			c := &chain{}
			if ref >= 0 && ref < len(chains) {
				c = &chains[ref]
			}
			pw.Batches[ref], last = c.read(r), ref
		}
	}
}

// appendBatch writes one batch of a chain whose previous batch is
// *prev, and makes it the chain's previous batch.
func appendBatch(b []byte, bt stream.Batch, prev *[]relation.Tuple) []byte {
	b = wire.AppendI64(b, bt.WindowID)
	b = wire.AppendI64(b, bt.Start)
	b = wire.AppendI64(b, bt.End)
	skip, k := repeated(*prev, bt.Rows)
	b = wire.AppendU32(b, uint32(len(bt.Rows)))
	b = wire.AppendU32(b, uint32(skip))
	for _, row := range bt.Rows[k:] {
		b = wire.AppendRow(b, row)
	}
	*prev = bt.Rows
	return b
}

// repeated finds the run of prev that rows starts with: rows[:k] are
// prev[skip:], the rest of prev. Rows are matched by identity (the
// backing array of a row), which is how overlapping windows share them,
// so a run must start at a non-empty row; no run is k = 0,
// skip = len(prev).
func repeated(prev, rows []relation.Tuple) (skip, k int) {
	if len(rows) > 0 && len(rows[0]) > 0 {
		for q := range prev {
			if len(prev[q]) > 0 && &prev[q][0] == &rows[0][0] {
				if k = len(prev) - q; k <= len(rows) && sameRows(prev[q:], rows[:k]) {
					return q, k
				}
				break
			}
		}
	}
	return len(prev), 0
}

// sameRows reports whether a and b hold the same rows: the same backing
// arrays, or both empty.
func sameRows(a, b []relation.Tuple) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) || len(a[i]) > 0 && &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

// chain is the decoder's state for one stream reference: every row
// decoded so far, of which the previous batch is the last `last`.
type chain struct {
	rows []relation.Tuple
	last int
}

// read decodes one batch. Its rows alias the chain's row table, so the
// overlapping windows of a restored checkpoint share row headers again.
// A batch the encoder could not have written (a repeated run longer
// than the batch, or one that starts at an empty row) is rejected.
func (c *chain) read(r *wire.Reader) stream.Batch {
	b := stream.Batch{WindowID: r.I64(), Start: r.I64(), End: r.I64()}
	n, skip := int(r.U32()), int(r.U32())
	k := c.last - skip
	if skip > c.last || k > n || (n-k)*minRow > r.Len() || k > 0 && len(c.rows[len(c.rows)-k]) == 0 {
		r.Fail(wire.ErrMalformed)
	}
	if r.Err() != nil {
		return b
	}
	c.rows = slices.Grow(c.rows, n-k)
	for i := k; i < n; i++ {
		c.rows = append(c.rows, r.Row())
	}
	if end := len(c.rows); n > 0 {
		b.Rows = c.rows[end-n : end : end]
	}
	c.last = n
	return b
}
