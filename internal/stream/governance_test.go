package stream

import (
	"testing"

	"repro/internal/relation"
)

func govSpec() WindowSpec { return WindowSpec{RangeMS: 1000, SlideMS: 500} }

func row(v int64) relation.Tuple { return relation.Tuple{relation.Int(v)} }

// Pending-byte accounting must track pushes, emissions, flush, and
// restore exactly (the governance layer subtracts these numbers from a
// budget, so drift would leak or over-shed).
func TestWindowPendingBytesAccounting(t *testing.T) {
	w, err := NewTimeSlidingWindow(govSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := w.PendingBytes(); got != 0 {
		t.Fatalf("empty PendingBytes = %d", got)
	}
	w.Push(Timestamped{TS: 100, Row: row(1)})
	w.Push(Timestamped{TS: 200, Row: row(2)})
	recount := func() int64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		var n int64
		for _, ow := range w.open {
			n += Batch{Rows: w.log[ow.start-w.base:]}.Bytes()
		}
		return n
	}
	if got, want := w.PendingBytes(), recount(); got != want || got == 0 {
		t.Fatalf("PendingBytes = %d, recount = %d", got, want)
	}
	// Advancing time emits windows; the estimate must fall in step.
	w.Push(Timestamped{TS: 2600, Row: row(3)})
	if got, want := w.PendingBytes(), recount(); got != want {
		t.Fatalf("after emit: PendingBytes = %d, recount = %d", got, want)
	}
	// Restore from snapshot recomputes the same estimate.
	st := w.Snapshot()
	r, err := RestoreTimeSlidingWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.PendingBytes(), w.PendingBytes(); got != want {
		t.Fatalf("restored PendingBytes = %d, want %d", got, want)
	}
	if w.Flush(); w.PendingBytes() != 0 {
		t.Fatalf("after Flush: PendingBytes = %d, want 0", w.PendingBytes())
	}
}

// A shed window is gone for good: it frees its bytes, never emits (not
// even as an empty batch), and drops tuples that keep arriving for it.
func TestWindowShedOldestPending(t *testing.T) {
	w, err := NewTimeSlidingWindow(WindowSpec{RangeMS: 1000, SlideMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.ShedOldestPending(); ok {
		t.Fatal("shed from empty operator")
	}
	w.Push(Timestamped{TS: 100, Row: row(1)})
	before := w.PendingBytes()
	freed, ok := w.ShedOldestPending()
	if !ok || freed != before {
		t.Fatalf("shed freed %d (ok=%t), want %d", freed, ok, before)
	}
	if w.PendingBytes() != 0 || w.Shed != 1 {
		t.Fatalf("after shed: bytes=%d shedCount=%d", w.PendingBytes(), w.Shed)
	}
	// A late arrival for the shed window must not resurrect it.
	w.Push(Timestamped{TS: 200, Row: row(2)})
	if w.PendingBytes() != 0 {
		t.Fatal("tuple for shed window was buffered")
	}
	// Window 1 (end 1000) sheds silently; window 2 (end 2000) emits.
	var got []Batch
	got = append(got, w.Push(Timestamped{TS: 1500, Row: row(3)})...)
	got = append(got, w.Push(Timestamped{TS: 2500, Row: row(4)})...)
	got = append(got, w.Flush()...)
	for _, b := range got {
		if b.End == 1000 {
			t.Fatalf("shed window emitted: %+v", b)
		}
	}
	found := false
	for _, b := range got {
		if b.End == 2000 && len(b.Rows) == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("window 2 missing from %+v", got)
	}
}

// A window shed before a snapshot stays shed after restore: tuples that
// keep arriving for it do not re-open it, so it never emits.
func TestRestoreKeepsShedWindowsShed(t *testing.T) {
	w, err := NewTimeSlidingWindow(govSpec()) // 1000/500: two windows per tuple
	if err != nil {
		t.Fatal(err)
	}
	w.Push(Timestamped{TS: 100, Row: row(1)}) // windows 1 and 2
	if _, ok := w.ShedOldestPending(); !ok {  // window 1
		t.Fatal("nothing to shed")
	}
	r, err := RestoreTimeSlidingWindow(w.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got []Batch
	got = append(got, r.Push(Timestamped{TS: 200, Row: row(2)})...)
	got = append(got, r.Push(Timestamped{TS: 2000, Row: row(3)})...)
	got = append(got, r.Flush()...)
	for _, b := range got {
		if b.WindowID == 1 {
			t.Fatalf("shed window re-opened after restore: %+v", b)
		}
	}
	if len(got) == 0 || got[0].WindowID != 2 || len(got[0].Rows) != 2 {
		t.Fatalf("emitted %+v, want window 2 first with both rows", got)
	}
}
