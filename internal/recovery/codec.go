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
// first row. A staged window whose rows are a run of that table, as
// every window an operator emitted after its head began is, names the
// run by offset and writes no row, so each staged row is written once,
// however many overlapping windows and readers hold it; any other
// staged window writes its rows.

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
	heads := stagedHeads(&ck.Engine)
	b = wire.AppendU32(b, uint32(len(ck.Engine.Windows)))
	for i := range ck.Engine.Windows {
		b = appendWindow(b, &ck.Engine.Windows[i], heads[i])
	}
	b = wire.AppendU32(b, uint32(len(ck.Engine.Queries)))
	for i := range ck.Engine.Queries {
		b = appendQuery(b, &ck.Engine, i, heads)
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

// stagedHeads returns, per operator, its staged head: the longest run
// of rows that a staged window of one of its readers holds before the
// operator's log, when the window's other rows begin the log. Queries,
// windows and references go in order, so equal states pick equal heads.
func stagedHeads(es *EngineState) [][]relation.Tuple {
	heads := make([][]relation.Tuple, len(es.Windows))
	for i := range es.Queries {
		q := &es.Queries[i]
		for _, pw := range q.Pending {
			for ref := range q.Windows {
				w, rows := es.Window(q, ref), pw.Batches[ref].Rows
				if w == nil || len(w.Rows) == 0 {
					continue
				}
				h := slices.IndexFunc(rows, func(row relation.Tuple) bool { return same(row, w.Rows[0]) })
				if h > len(heads[q.Windows[ref]]) && runIn(rows[:h], w.Rows, rows) == 0 {
					heads[q.Windows[ref]] = rows[:h:h]
				}
			}
		}
	}
	return heads
}

// appendWindow writes one window operator: spec and cursors, its staged
// head and log, and the offset in the log of each open window.
func appendWindow(b []byte, w *Window, head []relation.Tuple) []byte {
	for _, v := range [...]int64{w.Spec.RangeMS, w.Spec.SlideMS, w.Spec.StartMS, w.NextEmit, w.MaxTS, w.Late, w.Seq} {
		b = wire.AppendI64(b, v)
	}
	b = wire.AppendU32(b, uint32(len(head)))
	b = wire.AppendU32(b, uint32(len(w.Rows)))
	for _, row := range head {
		b = wire.AppendRow(b, row)
	}
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

// table is the decoder's view of one operator: its staged head and log
// in one slice, which staged windows alias, and whether a staged window
// starts at the head and runs into the log, as the window the encoder
// took the head from does.
type table struct {
	rows []relation.Tuple
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
	if (t.head+n)*minRow > r.Len() {
		r.Fail(wire.ErrMalformed)
	}
	if r.Err() == nil && t.head+n > 0 {
		t.rows = make([]relation.Tuple, t.head+n)
		for i := range t.rows {
			t.rows[i] = r.Row()
		}
		if n > 0 {
			w.Rows = t.rows[t.head:]
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

// appendQuery writes the i-th query: its fields, the index of the
// operator each stream reference reads (-1 as 0xffffffff), and its
// staged windows.
func appendQuery(b []byte, es *EngineState, i int, heads [][]relation.Tuple) []byte {
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
			var head, log []relation.Tuple
			if w := es.Window(q, ref); w != nil {
				head, log = heads[q.Windows[ref]], w.Rows
			}
			b = appendBatch(wire.AppendI64(b, int64(ref)), pw.Batches[ref], head, log)
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
// operator's table is head followed by log (both nil for a reference
// that reads no operator): its bounds, its row count, and the offset in
// the table of the run its rows are, or -1 (0xffffffff) followed by the
// rows.
func appendBatch(b []byte, bt stream.Batch, head, log []relation.Tuple) []byte {
	b = wire.AppendI64(b, bt.WindowID)
	b = wire.AppendI64(b, bt.Start)
	b = wire.AppendI64(b, bt.End)
	b = wire.AppendU32(b, uint32(len(bt.Rows)))
	at := runIn(head, log, bt.Rows)
	b = wire.AppendU32(b, uint32(at))
	if at < 0 {
		for _, row := range bt.Rows {
			b = wire.AppendRow(b, row)
		}
	}
	return b
}

// runIn returns the offset at which rows run in the table head followed
// by log, or -1 when they do not. Rows are matched by identity (the
// backing array of a row), which is how overlapping windows share them,
// so a run starts at a non-empty row.
func runIn(head, log, rows []relation.Tuple) int {
	at := func(i int) relation.Tuple {
		if i < len(head) {
			return head[i]
		}
		return log[i-len(head)]
	}
	for lo := 0; len(rows) > 0 && lo+len(rows) <= len(head)+len(log); lo++ {
		if same(at(lo), rows[0]) {
			for i, row := range rows {
				if t := at(lo + i); len(t) != len(row) || len(t) > 0 && &t[0] != &row[0] {
					return -1
				}
			}
			return lo
		}
	}
	return -1
}

// same reports whether two rows are one: non-empty, with one backing
// array.
func same(a, b relation.Tuple) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// readBatch decodes one staged batch of a stream reference that reads
// the operator whose table is t (nil for none). A run aliases the
// table, so the overlapping windows of a restored checkpoint share row
// headers again. A batch the encoder could not have written (a run
// past the table, empty, or starting at an empty row, or any run
// without a table) is rejected.
func readBatch(r *wire.Reader, t *table) stream.Batch {
	b := stream.Batch{WindowID: r.I64(), Start: r.I64(), End: r.I64()}
	n, at := int(r.U32()), int(int32(r.U32()))
	switch {
	case r.Err() != nil:
	case at == -1:
		if n*minRow > r.Len() {
			r.Fail(wire.ErrMalformed)
			break
		}
		if n > 0 {
			b.Rows = make([]relation.Tuple, n)
			for i := range b.Rows {
				b.Rows[i] = r.Row()
			}
		}
	case t == nil || at < 0 || n == 0 || at+n > len(t.rows) || len(t.rows[at]) == 0:
		r.Fail(wire.ErrMalformed)
	default:
		b.Rows = t.rows[at : at+n : at+n]
		if at == 0 && n > t.head && len(t.rows[t.head]) > 0 {
			t.used = true
		}
	}
	return b
}
