package stream

import (
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func el(ts int64, v float64) Timestamped {
	return Timestamped{TS: ts, Row: relation.Tuple{relation.Time(ts), relation.Float(v)}}
}

// Replay runs a finite, ordered tuple sequence through a window operator
// and returns all batches (including the flush).
func Replay(spec WindowSpec, els []Timestamped) ([]Batch, error) {
	w, err := NewTimeSlidingWindow(spec)
	if err != nil {
		return nil, err
	}
	var out []Batch
	for _, el := range els {
		out = append(out, w.Push(el)...)
	}
	out = append(out, w.Flush()...)
	return out, nil
}

func TestSchemaValidate(t *testing.T) {
	s := Schema{Name: "m", Tuple: relation.NewSchema(relation.Col("ts", relation.TTime)), TSCol: "ts"}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Schema{Name: "m", Tuple: s.Tuple, TSCol: "nope"}).Validate(); err == nil {
		t.Error("bad ts column accepted")
	}
	if err := (Schema{TSCol: "ts", Tuple: s.Tuple}).Validate(); err == nil {
		t.Error("empty name accepted")
	}
}

func TestWindowsFor(t *testing.T) {
	// Range 10s, slide 1s, start 0: pulse times 0,1000,2000,...
	spec := WindowSpec{RangeMS: 10000, SlideMS: 1000}
	lo, hi, ok := spec.WindowsFor(500)
	if !ok {
		t.Fatal("no windows for ts=500")
	}
	// Windows i with 1000i >= 500 and 1000i - 10000 <= 500: i in [1, 10].
	if lo != 1 || hi != 10 {
		t.Fatalf("WindowsFor(500) = [%d,%d]", lo, hi)
	}
	// Exact pulse boundary belongs to the window ending at it, not the
	// one starting at it (half-open start).
	lo, hi, _ = spec.WindowsFor(1000)
	if lo != 1 || hi != 10 {
		t.Fatalf("WindowsFor(1000) = [%d,%d]", lo, hi)
	}
	// Tumbling window (range == slide).
	spec2 := WindowSpec{RangeMS: 1000, SlideMS: 1000}
	lo, hi, _ = spec2.WindowsFor(1500)
	if lo != 2 || hi != 2 {
		t.Fatalf("tumbling WindowsFor(1500) = [%d,%d]", lo, hi)
	}
}

func TestWindowSpecValidate(t *testing.T) {
	if err := (WindowSpec{RangeMS: 0, SlideMS: 1}).Validate(); err == nil {
		t.Error("zero range accepted")
	}
	if err := (WindowSpec{RangeMS: 1, SlideMS: -1}).Validate(); err == nil {
		t.Error("negative slide accepted")
	}
}

func TestTumblingWindowReplay(t *testing.T) {
	spec := WindowSpec{RangeMS: 1000, SlideMS: 1000}
	var els []Timestamped
	for ts := int64(100); ts <= 3500; ts += 500 {
		els = append(els, el(ts, float64(ts)))
	}
	batches, err := Replay(spec, els)
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple must appear in exactly one batch for a tumbling window.
	total := 0
	for _, b := range batches {
		total += b.Len()
		for _, r := range b.Columns().Rows() {
			ts := r[0].Int
			if ts <= b.Start || ts > b.End {
				t.Errorf("tuple ts=%d outside window (%d,%d]", ts, b.Start, b.End)
			}
		}
	}
	if total != len(els) {
		t.Fatalf("tuples in batches = %d, want %d", total, len(els))
	}
}

func TestSlidingWindowOverlap(t *testing.T) {
	// Range 10s slide 1s: each tuple lands in 10 windows.
	spec := WindowSpec{RangeMS: 10000, SlideMS: 1000}
	count := func(ts int64) int {
		batches, err := Replay(spec, []Timestamped{el(ts, 1)})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, b := range batches {
			n += b.Len()
		}
		return n
	}
	// Half-open windows: boundary and off-boundary tuples both land in
	// exactly range/slide windows.
	if n := count(5000); n != 10 {
		t.Fatalf("boundary tuple appeared in %d windows, want 10", n)
	}
	// Off-boundary tuples land in exactly range/slide = 10 windows.
	if n := count(5500); n != 10 {
		t.Fatalf("tuple appeared in %d windows, want 10", n)
	}
}

func TestWindowEmissionOrderAndCompleteness(t *testing.T) {
	spec := WindowSpec{RangeMS: 2000, SlideMS: 1000}
	w, err := NewTimeSlidingWindow(spec)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []Batch
	for ts := int64(0); ts <= 10000; ts += 250 {
		emitted = append(emitted, w.Push(el(ts, 0))...)
	}
	emitted = append(emitted, w.Flush()...)
	for i := 1; i < len(emitted); i++ {
		if emitted[i].WindowID != emitted[i-1].WindowID+1 {
			t.Fatalf("window ids not consecutive: %d then %d", emitted[i-1].WindowID, emitted[i].WindowID)
		}
	}
	if len(emitted) == 0 {
		t.Fatal("no windows emitted")
	}
}

func TestLateTuplesDropped(t *testing.T) {
	spec := WindowSpec{RangeMS: 1000, SlideMS: 1000}
	w, _ := NewTimeSlidingWindow(spec)
	w.Push(el(5000, 1))
	w.Push(el(1000, 2)) // late
	if w.Late != 1 {
		t.Fatalf("Late = %d", w.Late)
	}
}

func TestEmptyWindowsEmitted(t *testing.T) {
	spec := WindowSpec{RangeMS: 1000, SlideMS: 1000}
	w, _ := NewTimeSlidingWindow(spec)
	w.Push(el(500, 1))
	batches := w.Push(el(5500, 2)) // jump: windows 1..4 complete, some empty
	foundEmpty := false
	for _, b := range batches {
		if b.Len() == 0 {
			foundEmpty = true
		}
	}
	if !foundEmpty {
		t.Error("gap did not produce empty windows")
	}
}

// Property: for random range/slide and timestamps, every emitted batch
// contains exactly the tuples with Start <= ts <= End, and a tuple at ts
// appears in the number of windows predicted by WindowsFor.
func TestWindowAssignmentProperty(t *testing.T) {
	f := func(rangeSlots, slideSlots uint8, offsets []uint16) bool {
		rng := int64(rangeSlots%20+1) * 100
		slide := int64(slideSlots%10+1) * 100
		spec := WindowSpec{RangeMS: rng, SlideMS: slide}
		var els []Timestamped
		ts := int64(0)
		for _, o := range offsets {
			ts += int64(o % 500)
			els = append(els, el(ts, 1))
		}
		batches, err := Replay(spec, els)
		if err != nil {
			return false
		}
		// Count appearances per timestamp.
		appear := map[int64]int64{}
		for _, b := range batches {
			for _, r := range b.Columns().Rows() {
				rts := r[0].Int
				if rts <= b.Start || rts > b.End {
					return false
				}
				appear[rts]++
			}
		}
		counts := map[int64]int64{}
		for _, e := range els {
			counts[e.TS]++
		}
		for uts, n := range counts {
			lo, hi, ok := spec.WindowsFor(uts)
			want := int64(0)
			if ok {
				want = (hi - lo + 1) * n
			}
			if appear[uts] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPulseValidate(t *testing.T) {
	if err := (Pulse{FrequencyMS: 1000}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Pulse{FrequencyMS: 0}).Validate(); err == nil {
		t.Error("zero frequency accepted")
	}
}

// TestWindowLogHoldsOneRangeSpan checks the operator's memory bound: the
// log holds each open row once — exactly the oldest open window's rows
// — however long the stream runs (TestColLogArraysHoldTwiceTheLiveRows
// bounds its arrays by the live rows).
func TestWindowLogHoldsOneRangeSpan(t *testing.T) {
	w, err := NewTimeSlidingWindow(WindowSpec{RangeMS: 10000, SlideMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	maxLive := 0
	for ts := int64(0); ts < 200000; ts += 50 {
		w.Push(Timestamped{TS: ts, Row: relation.Tuple{relation.Time(ts)}})
		if len(w.open) > 0 {
			if want := w.tail() - w.open[0].start; w.log.Len() != want {
				t.Fatalf("ts %d: log holds %d rows, the oldest open window %d", ts, w.log.Len(), want)
			}
		}
		maxLive = max(maxLive, w.log.Len())
	}
	if maxLive > 201 { // one 10 s range at 20 tuples/s, plus the closing tuple
		t.Fatalf("log peaked at %d rows, want one range span", maxLive)
	}
}
