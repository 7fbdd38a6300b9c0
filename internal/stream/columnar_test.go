package stream

import (
	"reflect"
	"testing"

	"repro/internal/relation"
)

// TestBatchBytesPinsFlatRowModel pins the byte-accounting model against
// explicit constant arithmetic, so a change to it is a deliberate test
// edit rather than a silent governance-budget shift. A batch is charged
// its flat rows alone, whether a reader took its columns or not and
// whether an operator emitted it or it was built from its rows.
func TestBatchBytesPinsFlatRowModel(t *testing.T) {
	rows := []relation.Tuple{
		{relation.Int(1), relation.String_("abc")},
		{relation.Int(2), relation.Null},
	}
	// Flat model: batch header + per-tuple header + per-value cost
	// (+ string payload).
	flat := int64(batchOverheadBytes) +
		2*(tupleOverheadBytes+2*valueOverheadBytes) +
		int64(len("abc"))

	built := Batch{WindowID: 0, Start: -1000, End: 0, Rows: rows}
	op, err := NewTimeSlidingWindow(WindowSpec{RangeMS: 1000, SlideMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	op.Push(Timestamped{TS: -500, Row: rows[0]})
	op.Push(Timestamped{TS: -400, Row: rows[1]})
	out := op.Push(Timestamped{TS: 10, Row: rows[0]})
	if len(out) != 1 {
		t.Fatalf("emitted %d windows, want 1", len(out))
	}
	for _, b := range []Batch{built, out[0]} {
		if got := b.Bytes(); got != flat {
			t.Fatalf("window %d: Bytes = %d, want %d", b.WindowID, got, flat)
		}
		cb := b.Columns()
		if got := b.Bytes(); got != flat {
			t.Fatalf("window %d: Bytes after Columns = %d, want the flat model %d", b.WindowID, got, flat)
		}
		// The columns hold the rows: column 0 typed TInt without NULLs,
		// column 1 typed TString with row 1 NULL.
		if c := cb.Col(0); c.ElemType() != relation.TInt || c.HasNulls() {
			t.Fatalf("window %d: column 0 is %v nulls=%v, want TInt without NULLs", b.WindowID, c.ElemType(), c.HasNulls())
		}
		if c := cb.Col(1); c.ElemType() != relation.TString || !c.IsNull(1) || c.IsNull(0) {
			t.Fatalf("window %d: column 1 is %v, want TString with row 1 NULL", b.WindowID, c.ElemType())
		}
		if got := cb.Rows(); !reflect.DeepEqual(got, rows) {
			t.Fatalf("window %d: columns hold %v, want %v", b.WindowID, got, rows)
		}
	}
	if got := (Batch{WindowID: 4}).Bytes(); got != batchOverheadBytes {
		t.Fatalf("empty batch Bytes = %d, want %d", got, batchOverheadBytes)
	}
}

// TestEmittedBatchIsOneValue pins what the operator hands out: every
// copy of an emitted batch returns the same columns, reading them
// changes neither the fields a checkpoint writes nor Bytes, and a batch
// rebuilt from those fields, as a decoder builds it, has the same Bytes
// and transposes to the same columns.
func TestEmittedBatchIsOneValue(t *testing.T) {
	op, err := NewTimeSlidingWindow(WindowSpec{RangeMS: 1000, SlideMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	op.Push(Timestamped{TS: 10, Row: relation.Tuple{relation.Int(1), relation.String_("abc")}})
	op.Push(Timestamped{TS: 20, Row: relation.Tuple{relation.Int(2), relation.Null}})
	out := op.Push(Timestamped{TS: 1500, Row: relation.Tuple{relation.Int(3), relation.Float(1.5)}})
	if len(out) != 1 || len(out[0].Rows) != 2 {
		t.Fatalf("emitted %d windows, want one of 2 rows", len(out))
	}
	b := out[0]
	rows := append([]relation.Tuple(nil), b.Rows...)
	bytes := b.Bytes()
	copyA, copyB := b, b
	cb := copyA.Columns()
	if cb == nil || copyB.Columns() != cb || b.Columns() != cb {
		t.Fatal("copies of one emitted batch returned different columns")
	}
	if b.WindowID != 1 || b.Start != 0 || b.End != 1000 || !reflect.DeepEqual(b.Rows, rows) {
		t.Fatal("reading the columns changed a serialized field")
	}
	if got := copyB.Bytes(); got != bytes {
		t.Fatalf("Bytes = %d after Columns, %d before", got, bytes)
	}

	back := Batch{WindowID: b.WindowID, Start: b.Start, End: b.End, Rows: b.Rows}
	if got := back.Bytes(); got != bytes {
		t.Fatalf("rebuilt batch Bytes = %d, emitted %d", got, bytes)
	}
	tc := back.Columns()
	if tc.Len() != cb.Len() || tc.Arity() != cb.Arity() {
		t.Fatalf("rebuilt batch columns %dx%d, emitted %dx%d",
			tc.Len(), tc.Arity(), cb.Len(), cb.Arity())
	}
	for j := 0; j < cb.Arity(); j++ {
		if g, w := cb.Col(j), tc.Col(j); g.ElemType() != w.ElemType() || g.HasNulls() != w.HasNulls() {
			t.Fatalf("column %d is %v nulls=%v, transpose %v nulls=%v", j, g.ElemType(), g.HasNulls(), w.ElemType(), w.HasNulls())
		}
		for r := 0; r < cb.Len(); r++ {
			if g, w := cb.Col(j).Value(r), tc.Col(j).Value(r); g != w {
				t.Fatalf("column %d row %d = %v, transpose %v", j, r, g, w)
			}
		}
	}
}

// TestBatchSharedTranspose pins the sharing contract: empty windows
// share one empty column batch, and a batch built from rows outside an
// operator transposes them privately on each call.
func TestBatchSharedTranspose(t *testing.T) {
	op, err := NewTimeSlidingWindow(WindowSpec{RangeMS: 1000, SlideMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	op.Push(Timestamped{TS: 10, Row: relation.Tuple{relation.Int(1)}})
	out := op.Push(Timestamped{TS: 3500, Row: relation.Tuple{relation.Int(2)}})
	if len(out) != 3 || len(out[1].Rows) != 0 || len(out[2].Rows) != 0 {
		t.Fatalf("emitted %d windows, want one of rows and two empty ones", len(out))
	}
	e1, e2 := out[1].Columns(), out[2].Columns()
	if e1 != e2 || e1.Len() != 0 || e1.Arity() != 0 {
		t.Fatalf("empty windows carry %p (%dx%d) and %p: want one shared empty batch", e1, e1.Len(), e1.Arity(), e2)
	}
	if got := out[1].Bytes(); got != batchOverheadBytes {
		t.Fatalf("empty window Bytes = %d, want %d", got, batchOverheadBytes)
	}

	bare := Batch{WindowID: 3, Rows: []relation.Tuple{{relation.Int(7), relation.Float(1.5)}}}
	cb1, cb2 := bare.Columns(), bare.Columns()
	if cb1 == cb2 {
		t.Error("a built batch cached its transpose")
	}
	if cb1.Len() != 1 || cb1.Arity() != 2 || cb1.Col(0).Value(0) != relation.Int(7) {
		t.Errorf("private transpose %dx%d, first value %v", cb1.Len(), cb1.Arity(), cb1.Col(0).Value(0))
	}
	if (Batch{WindowID: 4}).Columns().Len() != 0 {
		t.Error("empty built batch transpose not empty")
	}
}
