package stream_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/recovery"
	"repro/internal/relation"
	"repro/internal/stream"
)

// randomSpec draws a tumbling, a gapped (Range < Slide) or an
// overlapping window of up to 30 slides, on a random start.
func randomSpec(rng *rand.Rand) stream.WindowSpec {
	slide := int64(1 + rng.Intn(40))
	var rng_ int64
	switch rng.Intn(4) {
	case 0:
		rng_ = slide
	case 1:
		rng_ = 1 + rng.Int63n(slide)
	case 2:
		rng_ = slide * int64(1+rng.Intn(30))
	default:
		rng_ = 1 + rng.Int63n(slide*30)
	}
	return stream.WindowSpec{RangeMS: rng_, SlideMS: slide, StartMS: rng.Int63n(50)}
}

// randomValue draws a cell of column j: an int, float, string or time
// column with NULLs, one that mixes ints and floats (so column logs
// degrade to the generic layout and recover), and one that is NULL most
// of the time.
func randomValue(rng *rand.Rand, j int, ts int64) relation.Value {
	if rng.Intn(8) == 0 {
		return relation.Null
	}
	switch j {
	case 0:
		return relation.Time(ts)
	case 1:
		return relation.Int(rng.Int63n(6))
	case 2:
		return relation.Float(rng.NormFloat64())
	case 3:
		return relation.String_(fmt.Sprint("s", rng.Intn(5)))
	case 4:
		if rng.Intn(30) == 0 {
			return relation.Int(rng.Int63n(4))
		}
		return relation.Float(float64(rng.Intn(9)) / 2)
	default:
		if rng.Intn(6) == 0 {
			return relation.Bool_(rng.Intn(2) == 0)
		}
		return relation.Null
	}
}

// randomInput draws a non-decreasing stream with repeated timestamps,
// gaps longer than a slide (empty windows) and a few late tuples.
func randomInput(rng *rand.Rand, n int, spec stream.WindowSpec) []stream.Timestamped {
	out := make([]stream.Timestamped, 0, n)
	ts := rng.Int63n(spec.SlideMS * 3)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(40); {
		case r == 0:
			ts += spec.SlideMS * int64(2+rng.Intn(4)) // empty windows
		case r == 1 && ts > 0:
			ts -= 1 + rng.Int63n(ts) // late
		case r < 20:
			ts += rng.Int63n(spec.SlideMS + 1)
		}
		row := make(relation.Tuple, 6)
		for j := range row {
			row[j] = randomValue(rng, j, ts)
		}
		out = append(out, stream.Timestamped{TS: ts, Row: row})
	}
	return out
}

func sameValue(a, b relation.Value) bool {
	return a.Type == b.Type && a.Int == b.Int && math.Float64bits(a.Float) == math.Float64bits(b.Float) && a.Str == b.Str && a.Bool == b.Bool
}

// checkBatches compares one emission of the operator with the
// reference's: ids, bounds, rows, the flat byte estimate, and the
// columns (layout, NULLs and values, against a transpose of the
// reference's rows). Bytes is checked before and after the columns are
// read, and again when a batch is re-checked.
func checkBatches(t *testing.T, where string, got, want []stream.Batch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d batches, reference %d", where, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		at := fmt.Sprintf("%s: batch %d (window %d)", where, i, w.WindowID)
		if g.WindowID != w.WindowID || g.Start != w.Start || g.End != w.End {
			t.Fatalf("%s: got window %d (%d, %d], want %d (%d, %d]", at, g.WindowID, g.Start, g.End, w.WindowID, w.Start, w.End)
		}
		if len(g.Rows) != len(w.Rows) {
			t.Fatalf("%s: %d rows, reference %d", at, len(g.Rows), len(w.Rows))
		}
		for r := range g.Rows {
			if len(g.Rows[r]) != len(w.Rows[r]) {
				t.Fatalf("%s: row %d arity %d, reference %d", at, r, len(g.Rows[r]), len(w.Rows[r]))
			}
			for j := range g.Rows[r] {
				if !sameValue(g.Rows[r][j], w.Rows[r][j]) {
					t.Fatalf("%s: row %d = %v, reference %v", at, r, g.Rows[r], w.Rows[r])
				}
			}
		}
		if g.Bytes() != w.Bytes() {
			t.Fatalf("%s: Bytes %d, reference %d", at, g.Bytes(), w.Bytes())
		}
		gc, wc := g.Columns(), relation.Transpose(w.Rows)
		if gc.Len() != wc.Len() || gc.Arity() != wc.Arity() {
			t.Fatalf("%s: columns %dx%d, transpose %dx%d", at, gc.Len(), gc.Arity(), wc.Len(), wc.Arity())
		}
		for j := 0; j < gc.Arity(); j++ {
			gv, wv := gc.Col(j), wc.Col(j)
			if gv.ElemType() != wv.ElemType() || gv.HasNulls() != wv.HasNulls() || gv.Len() != wv.Len() {
				t.Fatalf("%s: column %d is %v/nulls=%v/len %d, transpose %v/nulls=%v/len %d", at, j,
					gv.ElemType(), gv.HasNulls(), gv.Len(), wv.ElemType(), wv.HasNulls(), wv.Len())
			}
			for r := 0; r < gv.Len(); r++ {
				if gv.IsNull(r) != wv.IsNull(r) || !sameValue(gv.Value(r), wv.Value(r)) {
					t.Fatalf("%s: column %d row %d = %v, transpose %v", at, j, r, gv.Value(r), wv.Value(r))
				}
			}
		}
		if g.Bytes() != w.Bytes() {
			t.Fatalf("%s: Bytes %d after Columns, reference %d", at, g.Bytes(), w.Bytes())
		}
	}
}

// viaCheckpoint round-trips a window snapshot through the checkpoint
// codec, as failover does.
func viaCheckpoint(t *testing.T, st stream.WindowState) stream.WindowState {
	t.Helper()
	ck, err := recovery.Decode(checkpointOf(st))
	if err != nil {
		t.Fatal(err)
	}
	return ck.Engine.Window(&ck.Engine.Queries[0], 0).WindowState
}

// checkpointOf encodes a checkpoint of one query reading one operator.
func checkpointOf(st stream.WindowState) []byte {
	blob, _ := recovery.Encode(&recovery.Checkpoint{Engine: recovery.EngineState{
		Windows: []recovery.Window{{WindowState: st}},
		Queries: []recovery.QueryState{{ID: "q", Windows: []int{0}}},
	}})
	return blob
}

// TestWindowOperatorMatchesReference is the window operator's
// differential: over seeded random specs and inputs (late tuples,
// empty windows, sheds at random points, mid-stream snapshot→restore in
// memory and through the checkpoint codec, a final flush) the
// operator's every emission and its PendingBytes after every step equal
// the per-window-copy reference's.
func TestWindowOperatorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		input := randomInput(rng, 50+rng.Intn(400), spec)
		op, err := stream.NewTimeSlidingWindow(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefWindow(spec)
		var got, want []stream.Batch
		emit := func(where string, g, w []stream.Batch) {
			checkBatches(t, where, g, w)
			got, want = append(got, g...), append(want, w...)
		}
		where := func(i int, what string) string {
			return fmt.Sprintf("seed %d spec %+v tuple %d %s", seed, spec, i, what)
		}
		for i, el := range input {
			emit(where(i, "push"), op.Push(el), ref.push(el))
			switch r := rng.Intn(60); {
			case r < 2:
				freed, ok := op.ShedOldestPending()
				rfreed, rok := ref.shedOldest()
				if freed != rfreed || ok != rok {
					t.Fatalf("%s: shed freed %d (%v), reference %d (%v)", where(i, "shed"), freed, ok, rfreed, rok)
				}
			case r < 4:
				// Restore the operator from its own snapshot, from the
				// reference's, or through the checkpoint codec; the
				// reference restores from its own.
				var st stream.WindowState
				switch rng.Intn(3) {
				case 0:
					st = op.Snapshot()
				case 1:
					st = ref.snapshot()
				default:
					st = viaCheckpoint(t, op.Snapshot())
				}
				if op, err = stream.RestoreTimeSlidingWindow(st); err != nil {
					t.Fatalf("%s: %v", where(i, "restore"), err)
				}
				ref = restoreRefWindow(ref.snapshot())
			}
			if op.PendingBytes() != ref.bytes {
				t.Fatalf("%s: PendingBytes %d, reference %d", where(i, "after"), op.PendingBytes(), ref.bytes)
			}
			if op.Late != ref.late || op.Shed != ref.shedN {
				t.Fatalf("%s: late %d shed %d, reference %d and %d", where(i, "after"), op.Late, op.Shed, ref.late, ref.shedN)
			}
		}
		emit(where(len(input), "flush"), op.Flush(), ref.flush())
		if op.PendingBytes() != 0 {
			t.Fatalf("seed %d: PendingBytes %d after Flush", seed, op.PendingBytes())
		}
		// Every emitted window is a view of a log the operator kept
		// appending to, compacting and growing: none may have changed.
		checkBatches(t, fmt.Sprintf("seed %d spec %+v: at the end", seed, spec), got, want)
	}
}

// TestRestoreRejectsInvalidOpenWindows checks that restore and the
// checkpoint decoder both refuse a snapshot no operator could have
// taken: offsets that decrease or point past the log, and window ids
// that do not increase.
func TestRestoreRejectsInvalidOpenWindows(t *testing.T) {
	row := func(v int64) relation.Tuple { return relation.Tuple{relation.Int(v)} }
	good := stream.WindowState{
		Spec:  stream.WindowSpec{RangeMS: 1000, SlideMS: 500},
		MaxTS: 400,
		Rows:  []relation.Tuple{row(1), row(2)},
		Open:  []stream.OpenWindow{{ID: 1, Start: -500, End: 500, Offset: 0}, {ID: 2, Start: 0, End: 1000, Offset: 1}},
	}
	if _, err := stream.RestoreTimeSlidingWindow(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if _, err := recovery.Decode(checkpointOf(good)); err != nil {
		t.Fatalf("valid snapshot does not decode: %v", err)
	}
	w1, w2 := good.Open[0], good.Open[1]
	at := func(w stream.OpenWindow, offset int) stream.OpenWindow { w.Offset = offset; return w }
	for name, open := range map[string][]stream.OpenWindow{
		"decreasing offsets": {at(w1, 1), at(w2, 0)},
		"offset past rows":   {w1, at(w2, 3)},
		"negative offset":    {at(w1, -1), w2},
		"ids decrease":       {w2, at(w1, 1)},
		"repeated id":        {w1, at(w1, 1)},
	} {
		st := good
		st.Open = open
		if _, err := stream.RestoreTimeSlidingWindow(st); err == nil {
			t.Errorf("%s: snapshot restored", name)
		}
		if _, err := recovery.Decode(checkpointOf(st)); err == nil {
			t.Errorf("%s: checkpoint decoded", name)
		}
	}
}

// TestEmittedWindowsStableUnderConcurrentPush reads emitted windows'
// rows and columns on other goroutines while the operator keeps
// pushing, growing and compacting its log (run it with -race): an
// emitted window must never see a write.
func TestEmittedWindowsStableUnderConcurrentPush(t *testing.T) {
	op, err := stream.NewTimeSlidingWindow(stream.WindowSpec{RangeMS: 100, SlideMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	work := make(chan stream.Batch, 64)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				cb := b.Columns()
				for i, row := range b.Rows {
					if got := cb.Col(0).Value(i); !sameValue(got, row[0]) {
						t.Errorf("window %d row %d: column %v, row %v", b.WindowID, i, got, row[0])
					}
					if row[0].Int <= b.Start || row[0].Int > b.End {
						t.Errorf("window %d (%d, %d] holds ts %d", b.WindowID, b.Start, b.End, row[0].Int)
					}
				}
				_ = b.Bytes()
			}
		}()
	}
	for ts := int64(0); ts < 20000; ts += 3 {
		for _, b := range op.Push(stream.Timestamped{TS: ts, Row: relation.Tuple{relation.Time(ts), relation.Float(float64(ts))}}) {
			work <- b
		}
		if ts%999 == 0 {
			op.ShedOldestPending()
		}
	}
	for _, b := range op.Flush() {
		work <- b
	}
	close(work)
	wg.Wait()
}
