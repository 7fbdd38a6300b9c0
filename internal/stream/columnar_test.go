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
		// The columns keep relation's own byte model. Column 0 (TInt, 2
		// values, no NULLs): header + 8 B per element. Column 1 (TString
		// with one NULL): header + string headers + payload + null bitmap
		// (header + one word).
		col0 := int64(relation.VectorOverheadBytes) + 2*8
		col1 := int64(relation.VectorOverheadBytes) + 2*16 + int64(len("abc")) +
			relation.BitmapOverheadBytes + 8
		if got, want := cb.Bytes(), int64(relation.ColBatchOverheadBytes)+col0+col1; got != want {
			t.Fatalf("window %d: ColBatch.Bytes = %d, want %d", b.WindowID, got, want)
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
	if tc.Len() != cb.Len() || tc.Arity() != cb.Arity() || tc.Bytes() != cb.Bytes() {
		t.Fatalf("rebuilt batch columns %dx%d %d B, emitted %dx%d %d B",
			tc.Len(), tc.Arity(), tc.Bytes(), cb.Len(), cb.Arity(), cb.Bytes())
	}
	for j := 0; j < cb.Arity(); j++ {
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
