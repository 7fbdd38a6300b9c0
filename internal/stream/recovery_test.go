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
// appending to its pending batches' backing arrays after the snapshot.
func TestWindowSnapshotIsDeepCopy(t *testing.T) {
	spec := WindowSpec{RangeMS: 1000, SlideMS: 1000}
	w, err := NewTimeSlidingWindow(spec)
	if err != nil {
		t.Fatal(err)
	}
	w.Push(tupleAt(100, 1))
	st := w.Snapshot()
	if len(st.Pending) != 1 || len(st.Pending[0].Rows) != 1 {
		t.Fatalf("snapshot pending = %+v, want one window with one row", st.Pending)
	}
	before := st.Pending[0].Rows[0][1]
	w.Push(tupleAt(200, 2))
	w.Push(tupleAt(300, 3))
	if got := st.Pending[0].Rows[0][1]; got != before {
		t.Fatalf("snapshot row mutated by later pushes: %v -> %v", before, got)
	}
	if len(st.Pending[0].Rows) != 1 {
		t.Fatalf("snapshot grew with the live operator: %d rows", len(st.Pending[0].Rows))
	}
}

func TestRestoreSkipsEmittedWindows(t *testing.T) {
	st := WindowState{
		Spec:     WindowSpec{RangeMS: 1000, SlideMS: 1000},
		NextEmit: 2,
		MaxTS:    2500,
		Pending: []Batch{
			{WindowID: 1, End: 2000}, // already emitted: must be dropped
			{WindowID: 2, End: 3000},
		},
	}
	w, err := RestoreTimeSlidingWindow(st)
	if err != nil {
		t.Fatal(err)
	}
	got := w.Snapshot()
	if len(got.Pending) != 1 || got.Pending[0].WindowID != 2 {
		t.Fatalf("restored pending = %+v, want only window 2", got.Pending)
	}
}

func TestRestoreRejectsInvalidSpec(t *testing.T) {
	if _, err := RestoreTimeSlidingWindow(WindowState{}); err == nil {
		t.Fatal("restore of a zero spec succeeded")
	}
}
