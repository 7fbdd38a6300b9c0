package stream

import (
	"reflect"
	"testing"

	"repro/internal/relation"
)

// ensureColumnCell gives a hand-built batch a columnar cell without a
// column-log view, so copies made from it share one transpose.
func (b *Batch) ensureColumnCell() {
	if b.cols == nil {
		b.cols = &colCell{}
	}
}

// TestBatchBytesPinsBothLayouts pins the byte-accounting model for the
// flat and columnar layouts against explicit constant arithmetic, so a
// change to either model is a deliberate test edit rather than a silent
// governance-budget shift.
func TestBatchBytesPinsBothLayouts(t *testing.T) {
	rows := []relation.Tuple{
		{relation.Int(1), relation.String_("abc")},
		{relation.Int(2), relation.Null},
	}
	b := Batch{WindowID: 1, Start: 0, End: 1000, Rows: rows}
	b.ensureColumnCell()

	// Flat model: batch header + per-tuple header + per-value cost
	// (+ string payload).
	flat := int64(batchOverheadBytes) +
		2*(tupleOverheadBytes+2*valueOverheadBytes) +
		int64(len("abc"))
	if got := b.Bytes(); got != flat {
		t.Fatalf("flat Bytes = %d, want %d", got, flat)
	}

	// Materialising the columnar form adds the column vectors on top of
	// the flat rows (both layouts are resident).
	cb := b.Columns()
	if !b.Columnar() {
		t.Fatal("Columnar() = false after Columns()")
	}
	// Column 0 (TInt, 2 values, no NULLs): header + 8 B per element.
	col0 := int64(relation.VectorOverheadBytes) + 2*8
	// Column 1 (TString with one NULL): header + string headers +
	// payload + null bitmap (header + one word).
	col1 := int64(relation.VectorOverheadBytes) + 2*16 + int64(len("abc")) +
		relation.BitmapOverheadBytes + 8
	colBytes := int64(relation.ColBatchOverheadBytes) + col0 + col1
	if got := cb.Bytes(); got != colBytes {
		t.Fatalf("ColBatch.Bytes = %d, want %d", got, colBytes)
	}
	if got := b.Bytes(); got != flat+colBytes {
		t.Fatalf("columnar Bytes = %d, want flat %d + cols %d = %d", got, flat, colBytes, flat+colBytes)
	}

	// The memoized row estimate must agree with a fresh walk: a copy of
	// the batch without the cell reports exactly the flat model.
	bare := Batch{WindowID: 1, Start: 0, End: 1000, Rows: rows}
	if got := bare.Bytes(); got != flat {
		t.Fatalf("cell-less Bytes = %d, want %d", got, flat)
	}
}

// TestBatchTransposeKeepsSerializedFields pins the contract the
// checkpoint codec relies on: the columnar cell is runtime-only state,
// so materializing the transpose leaves every field a checkpoint
// writes (WindowID, Start, End, Rows) as it was, and a batch rebuilt
// from those fields, as a decoder builds it, comes back cell-less with
// the flat byte model.
func TestBatchTransposeKeepsSerializedFields(t *testing.T) {
	rows := func() []relation.Tuple {
		return []relation.Tuple{{relation.Int(1), relation.String_("abc")}, {relation.Int(2), relation.Null}}
	}
	b := Batch{WindowID: 9, Start: 0, End: 1000, Rows: rows()}
	b.ensureColumnCell()
	b.Columns() // materialize the shared transpose
	if !b.Columnar() {
		t.Fatal("transpose did not materialize")
	}
	if b.WindowID != 9 || b.Start != 0 || b.End != 1000 || !reflect.DeepEqual(b.Rows, rows()) {
		t.Fatal("materializing the transpose changed a serialized field")
	}

	back := Batch{WindowID: b.WindowID, Start: b.Start, End: b.End, Rows: b.Rows}
	if back.Columnar() {
		t.Error("decoded batch claims a materialized transpose")
	}
	if got, want := back.Bytes(), b.Bytes()-b.Columns().Bytes(); got != want {
		t.Errorf("decoded batch Bytes = %d, want the flat model %d", got, want)
	}
}

// TestBatchSharedTranspose pins the sharing contract: copies of an
// emitted batch transpose once, and a zero-built batch transposes
// privately without panicking.
func TestBatchSharedTranspose(t *testing.T) {
	rows := []relation.Tuple{{relation.Int(7), relation.Float(1.5)}}
	b := Batch{WindowID: 2, Rows: rows}
	b.ensureColumnCell()
	copyA, copyB := b, b
	if copyA.Columns() != copyB.Columns() {
		t.Error("copies of one batch did not share the transpose")
	}
	if b.Columns().Len() != 1 || b.Columns().Arity() != 2 {
		t.Errorf("transpose shape = %dx%d", b.Columns().Len(), b.Columns().Arity())
	}

	bare := Batch{WindowID: 3, Rows: rows}
	cb1, cb2 := bare.Columns(), bare.Columns()
	if cb1 == cb2 {
		t.Error("cell-less batch unexpectedly cached its transpose")
	}
	if bare.Columnar() {
		t.Error("cell-less batch reports Columnar")
	}
	if got := bare.Columns().Col(0).Value(0); got != relation.Int(7) {
		t.Errorf("private transpose value = %v", got)
	}

	empty := Batch{WindowID: 4}
	empty.ensureColumnCell()
	if empty.Columns().Len() != 0 {
		t.Error("empty batch transpose not empty")
	}
	if got, want := empty.Bytes(), int64(batchOverheadBytes)+relation.ColBatchOverheadBytes; got != want {
		t.Errorf("empty columnar batch Bytes = %d, want %d", got, want)
	}
}
