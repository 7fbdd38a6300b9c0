package stream

import (
	"reflect"
	"testing"

	"repro/internal/relation"
)

func tupleAt(ts int64, v float64) Timestamped {
	return Timestamped{TS: ts, Row: relation.Tuple{relation.Time(ts), relation.Float(v)}}
}

// TestWindowSnapshotRestoreEquivalence checks the recovery invariant the
// checkpoint leans on: snapshotting an operator mid-stream and restoring
// it must produce exactly the batches the uninterrupted operator emits
// for the remaining input.
func TestWindowSnapshotRestoreEquivalence(t *testing.T) {
	spec := WindowSpec{RangeMS: 1000, SlideMS: 500}
	cont, err := NewTimeSlidingWindow(spec)
	if err != nil {
		t.Fatal(err)
	}
	var input []Timestamped
	for ts := int64(0); ts <= 4000; ts += 250 {
		input = append(input, tupleAt(ts, float64(ts)))
	}
	cut := len(input) / 2
	var contOut []Batch
	for i, el := range input {
		contOut = append(contOut, cont.Push(el)...)
		if i == cut {
			// Snapshot the same prefix on a second operator.
			pre, err := NewTimeSlidingWindow(spec)
			if err != nil {
				t.Fatal(err)
			}
			var preOut []Batch
			for _, p := range input[:cut+1] {
				preOut = append(preOut, pre.Push(p)...)
			}
			restored, err := RestoreTimeSlidingWindow(pre.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var postOut []Batch
			for _, p := range input[cut+1:] {
				postOut = append(postOut, restored.Push(p)...)
			}
			defer func() {
				got := append(preOut, postOut...)
				if !reflect.DeepEqual(got, contOut) {
					t.Errorf("restored run emitted %d batches, continuous %d (or contents differ)",
						len(got), len(contOut))
				}
			}()
		}
	}
}

// TestWindowSnapshotIsDeepCopy guards against the sharing bug the
// checkpoint path would otherwise have: the live operator keeps
// appending to the log the snapshot views.
func TestWindowSnapshotIsDeepCopy(t *testing.T) {
	spec := WindowSpec{RangeMS: 1000, SlideMS: 1000}
	w, err := NewTimeSlidingWindow(spec)
	if err != nil {
		t.Fatal(err)
	}
	w.Push(tupleAt(100, 1))
	st := w.Snapshot()
	if len(st.Open) != 1 || len(st.Rows) != 1 {
		t.Fatalf("snapshot = %+v, want one open window over one row", st)
	}
	before := st.Rows[0][1]
	w.Push(tupleAt(200, 2))
	w.Push(tupleAt(300, 3))
	if got := st.Rows[0][1]; got != before {
		t.Fatalf("snapshot row mutated by later pushes: %v -> %v", before, got)
	}
	if len(st.Rows) != 1 {
		t.Fatalf("snapshot grew with the live operator: %d rows", len(st.Rows))
	}
}

func TestRestoreSkipsEmittedWindows(t *testing.T) {
	st := WindowState{
		Spec:     WindowSpec{RangeMS: 1000, SlideMS: 1000},
		NextEmit: 2,
		MaxTS:    2500,
		Rows:     []relation.Tuple{tupleAt(1500, 1).Row, tupleAt(2500, 2).Row},
		Open: []OpenWindow{
			{ID: 1, Start: 1000, End: 2000, Offset: 0}, // already emitted: must be dropped
			{ID: 2, Start: 2000, End: 3000, Offset: 1},
		},
	}
	w, err := RestoreTimeSlidingWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	got := w.Snapshot()
	if len(got.Open) != 1 || got.Open[0].ID != 2 || got.Open[0].Offset != 0 || len(got.Rows) != 1 {
		t.Fatalf("restored snapshot = %+v, want only window 2 over its one row", got)
	}
}

func TestRestoreRejectsInvalidSpec(t *testing.T) {
	if _, err := RestoreTimeSlidingWindow(WindowState{}); err == nil {
		t.Fatal("restore of a zero spec succeeded")
	}
}
