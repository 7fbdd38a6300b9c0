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
// reads by their index. An operator's log is written after its staged
// head: the rows its readers' staged windows hold from before the log's
// first row. Together they are the operator's table, a span of
// positions in its column log. A staged window that views that column
// log within the span, as every window an operator emitted after its
// head began does, names its run by offset and writes no row, so each
// staged row is written once, however many overlapping windows and
// readers hold it; any other staged window writes its rows.

// Minimum encoded sizes, which bound the element counts a decoder
// accepts for the bytes that remain.
const (
	minQuery    = 29
	minEntry    = 12
	minPending  = 12
	minBatch    = 32
	minOperator = 68
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
	var tables []table
	if n := r.Count(minOperator); n > 0 {
		ck.Engine.Windows = make([]Window, n)
		tables = make([]table, n)
		for i := range ck.Engine.Windows {
			tables[i] = readWindow(r, &ck.Engine.Windows[i])
		}
	}
	if n := r.Count(minQuery); n > 0 {
		ck.Engine.Queries = make([]QueryState, n)
		for i := range ck.Engine.Queries {
			readQuery(r, &ck.Engine.Queries[i], tables)
		}
	}
	for _, t := range tables {
		if t.head > 0 && !t.used {
			r.Fail(wire.ErrMalformed) // a head no staged window starts
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
	ts := spans(&ck.Engine)
	b = wire.AppendU32(b, uint32(len(ck.Engine.Windows)))
	for i := range ck.Engine.Windows {
		b = appendWindow(b, &ck.Engine.Windows[i], &ts[i])
	}
	b = wire.AppendU32(b, uint32(len(ck.Engine.Queries)))
	for i := range ck.Engine.Queries {
		b = appendQuery(b, &ck.Engine, i, ts)
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

// span is the encoder's view of one operator's table: the column log
// its staged head and log are views of (0 for none), the absolute
// positions in it of the table's first row, of the log's first row and
// past the log's last, and the staged batch the head is the first rows
// of.
type span struct {
	log            uint64
	start, at, end int
	head           stream.Batch
}

// spans returns each operator's table. Its head is the longest run of
// rows that a staged window of one of its readers holds before the
// operator's log, when the window's other rows begin the log. Queries,
// windows and references go in order, so equal states pick equal
// heads.
func spans(es *EngineState) []span {
	ts := make([]span, len(es.Windows))
	for k := range es.Windows {
		if w := &es.Windows[k]; w.Log.Len() > 0 {
			log, pos := w.Log.Source()
			ts[k] = span{log: log, start: pos, at: pos, end: pos + w.Log.Len()}
		}
	}
	for i := range es.Queries {
		q := &es.Queries[i]
		for _, pw := range q.Pending {
			for ref := range q.Windows {
				if es.Window(q, ref) == nil {
					continue
				}
				t, b := &ts[q.Windows[ref]], pw.Batches[ref]
				log, pos := b.Columns().Source()
				if end := pos + b.Len(); t.log != 0 && log == t.log && pos < t.start && end > t.at && end <= t.end {
					t.start, t.head = pos, b
				}
			}
		}
	}
	return ts
}

// run returns the offset in the table of the run a staged batch's rows
// are, or -1 when they are none: a run is a non-empty view of the
// table's column log within its span.
func (t *span) run(b stream.Batch) int {
	log, pos := b.Columns().Source()
	if t == nil || t.log == 0 || log != t.log || b.Len() == 0 || pos < t.start || pos+b.Len() > t.end {
		return -1
	}
	return pos - t.start
}

// appendWindow writes one window operator: spec and cursors, its staged
// head and log, and the offset in the log of each open window.
func appendWindow(b []byte, w *Window, t *span) []byte {
	for _, v := range [...]int64{w.Spec.RangeMS, w.Spec.SlideMS, w.Spec.StartMS, w.NextEmit, w.MaxTS, w.Late, w.Seq} {
		b = wire.AppendI64(b, v)
	}
	head := t.at - t.start
	b = wire.AppendU32(b, uint32(head))
	b = wire.AppendU32(b, uint32(w.Log.Len()))
	b = wire.AppendColumnsRows(b, t.head.Columns(), head)
	b = wire.AppendColumnsRows(b, w.Log, w.Log.Len())
	b = wire.AppendU32(b, uint32(len(w.Open)))
	for _, o := range w.Open {
		b = wire.AppendI64(b, o.ID)
		b = wire.AppendI64(b, o.Start)
		b = wire.AppendI64(b, o.End)
		b = wire.AppendU32(b, uint32(o.Offset))
	}
	return b
}

// table is the decoder's view of one operator: its staged head and log
// in one column log, which staged runs view, and whether a staged
// window starts at the head and runs into the log, as the window the
// encoder took the head from does.
type table struct {
	rows *relation.ColLog
	head int
	used bool
}

// readWindow decodes one window operator and returns its table,
// rejecting open windows no operator could hold (see
// stream.WindowState.Check).
func readWindow(r *wire.Reader, w *Window) table {
	w.Spec = stream.WindowSpec{RangeMS: r.I64(), SlideMS: r.I64(), StartMS: r.I64()}
	w.NextEmit, w.MaxTS, w.Late, w.Seq = r.I64(), r.I64(), r.I64(), r.I64()
	t := table{head: int(r.U32())}
	n := int(r.U32())
	if t.head+n > 0 {
		t.rows = readRows(r, t.head+n)
		if n > 0 && r.Err() == nil {
			w.Log = t.rows.View(t.head, t.head+n)
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
	return t
}

// readRows decodes n rows into a column log of their own, rejecting
// rows whose arities differ, which no column log holds.
func readRows(r *wire.Reader, n int) *relation.ColLog {
	if n*minRow > r.Len() {
		r.Fail(wire.ErrMalformed)
	}
	log := &relation.ColLog{}
	arity := 0
	for i := 0; i < n && r.Err() == nil; i++ {
		row := r.Row()
		switch {
		case r.Err() != nil:
		case i > 0 && len(row) != arity:
			r.Fail(wire.ErrMalformed)
		default:
			arity = len(row)
			log.Append(row)
		}
	}
	return log
}

// appendQuery writes the i-th query: its fields, the index of the
// operator each stream reference reads (-1 as 0xffffffff), and its
// staged windows.
func appendQuery(b []byte, es *EngineState, i int, ts []span) []byte {
	q := &es.Queries[i]
	b = wire.AppendString(b, q.ID)
	b = wire.AppendI64(b, int64(q.Failures))
	b = wire.AppendBool(b, q.Suspended)
	b = wire.AppendI64(b, q.Budget)
	b = wire.AppendU32(b, uint32(len(q.Windows)))
	for _, k := range q.Windows {
		b = wire.AppendU32(b, uint32(k))
	}
	b = wire.AppendU32(b, uint32(len(q.Pending)))
	for _, pw := range q.Pending {
		refs := make([]int, 0, len(pw.Batches))
		for ref := range pw.Batches {
			refs = append(refs, ref)
		}
		slices.Sort(refs)
		b = wire.AppendI64(b, pw.End)
		b = wire.AppendU32(b, uint32(len(refs)))
		for _, ref := range refs {
			var t *span
			if es.Window(q, ref) != nil {
				t = &ts[q.Windows[ref]]
			}
			b = appendBatch(wire.AppendI64(b, int64(ref)), pw.Batches[ref], t)
		}
	}
	return b
}

// readQuery decodes one query whose indices may name any of the
// operators whose tables are given.
func readQuery(r *wire.Reader, q *QueryState, tables []table) {
	q.ID = r.String()
	q.Failures = int(r.I64())
	q.Suspended = r.Bool()
	q.Budget = r.I64()
	if n := r.Count(minRef); n > 0 {
		q.Windows = make([]int, n)
		for i := range q.Windows {
			if q.Windows[i] = int(int32(r.U32())); q.Windows[i] < -1 || q.Windows[i] >= len(tables) {
				r.Fail(wire.ErrMalformed) // names no operator
			}
		}
	}
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
			var t *table
			if ref >= 0 && ref < len(q.Windows) && q.Windows[ref] >= 0 && r.Err() == nil {
				t = &tables[q.Windows[ref]]
			}
			pw.Batches[ref], last = readBatch(r, t), ref
		}
	}
}

// appendBatch writes one staged batch of a stream reference whose
// operator's table is t (nil for a reference that reads no operator):
// its bounds, its row count, and the offset in the table of the run its
// rows are, or -1 (0xffffffff) followed by the rows.
func appendBatch(b []byte, bt stream.Batch, t *span) []byte {
	b = wire.AppendI64(b, bt.WindowID)
	b = wire.AppendI64(b, bt.Start)
	b = wire.AppendI64(b, bt.End)
	b = wire.AppendU32(b, uint32(bt.Len()))
	at := t.run(bt)
	b = wire.AppendU32(b, uint32(at))
	if at < 0 {
		b = wire.AppendColumnsRows(b, bt.Columns(), bt.Len())
	}
	return b
}

// readBatch decodes one staged batch of a stream reference that reads
// the operator whose table is t (nil for none). A run views the table,
// so the overlapping windows of a restored checkpoint share its
// columns. A batch the encoder could not have written (a run past the
// table or empty, or any run without a table) is rejected.
func readBatch(r *wire.Reader, t *table) stream.Batch {
	id, start, end := r.I64(), r.I64(), r.I64()
	n, at := int(r.U32()), int(int32(r.U32()))
	switch {
	case r.Err() != nil:
	case at == -1 && n > 0:
		if rows := readRows(r, n); r.Err() == nil {
			return stream.NewBatch(id, start, end, rows.View(0, n))
		}
	case at == -1:
	case t == nil || t.rows == nil || at < 0 || n == 0 || at+n > t.rows.Len():
		r.Fail(wire.ErrMalformed)
	default:
		if at == 0 && n > t.head {
			t.used = true
		}
		return stream.NewLogBatch(id, start, end, t.rows, at, at+n)
	}
	return stream.Batch{WindowID: id, Start: start, End: end}
}
