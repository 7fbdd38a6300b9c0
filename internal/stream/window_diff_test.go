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
func checkBatches(t *testing.T, where string, got []stream.Batch, want []refBatch) {
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
		if g.Len() != len(w.Rows) {
			t.Fatalf("%s: %d rows, reference %d", at, g.Len(), len(w.Rows))
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
				if gv.IsNull(r) != wv.IsNull(r) || !sameValue(gv.Value(r), w.Rows[r][j]) {
					t.Fatalf("%s: column %d row %d = %v, reference %v", at, j, r, gv.Value(r), w.Rows[r][j])
				}
			}
		}
		if g.Bytes() != w.Bytes() {
			t.Fatalf("%s: Bytes %d after Columns, reference %d", at, g.Bytes(), w.Bytes())
		}
	}
}

// viaCheckpoint round-trips the snapshots of several operators over one
// stream through the checkpoint codec, as failover does: one query
// reads them all and holds each operator's last emitted window staged,
// so the blob names runs of the operators' logs. It returns the decoded
// snapshots and staged windows.
func viaCheckpoint(t *testing.T, sts []stream.WindowState, staged []stream.Batch) ([]stream.WindowState, []stream.Batch) {
	t.Helper()
	ck := &recovery.Checkpoint{Engine: recovery.EngineState{Queries: []recovery.QueryState{{ID: "q"}}}}
	q := &ck.Engine.Queries[0]
	pw := recovery.PendingWindow{End: 1, Batches: map[int]stream.Batch{}}
	for i, st := range sts {
		ck.Engine.Windows = append(ck.Engine.Windows, recovery.Window{WindowState: st})
		q.Windows = append(q.Windows, i)
		pw.Batches[i] = staged[i]
	}
	q.Pending = []recovery.PendingWindow{pw}
	blob, _ := recovery.Encode(ck)
	back, err := recovery.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	var outSt []stream.WindowState
	var outStaged []stream.Batch
	for i := range sts {
		outSt = append(outSt, back.Engine.Window(&back.Engine.Queries[0], i).WindowState)
		outStaged = append(outStaged, back.Engine.Queries[0].Pending[0].Batches[i])
	}
	return outSt, outStaged
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
// the per-window-copy reference's. Each seed runs up to three specs
// over one stream; a restore through the codec checkpoints all their
// operators in one blob, with each one's last emitted window staged,
// and the staged windows must decode to the rows they held.
func TestWindowOperatorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := make([]stream.WindowSpec, 1+rng.Intn(3))
		for k := range specs {
			specs[k] = randomSpec(rng)
		}
		input := randomInput(rng, 50+rng.Intn(400), specs[0])
		ops := make([]*stream.TimeSlidingWindow, len(specs))
		refs := make([]*refWindow, len(specs))
		last := make([]stream.Batch, len(specs)) // each operator's last emitted window
		lastRef := make([]refBatch, len(specs))  // the reference's
		var got []stream.Batch
		var want []refBatch
		for k, spec := range specs {
			op, err := stream.NewTimeSlidingWindow(spec)
			if err != nil {
				t.Fatal(err)
			}
			ops[k], refs[k] = op, newRefWindow(spec)
		}
		emit := func(k int, where string, g []stream.Batch, w []refBatch) {
			checkBatches(t, where, g, w)
			got, want = append(got, g...), append(want, w...)
			if len(g) > 0 {
				last[k], lastRef[k] = g[len(g)-1], w[len(w)-1]
			}
		}
		where := func(k, i int, what string) string {
			return fmt.Sprintf("seed %d spec %+v tuple %d %s", seed, specs[k], i, what)
		}
		for i, el := range input {
			for k := range specs {
				emit(k, where(k, i, "push"), ops[k].Push(el), refs[k].push(el))
			}
			switch r := rng.Intn(60); {
			case r < 2:
				k := rng.Intn(len(specs))
				freed, ok := ops[k].ShedOldestPending()
				rfreed, rok := refs[k].shedOldest()
				if freed != rfreed || ok != rok {
					t.Fatalf("%s: shed freed %d (%v), reference %d (%v)", where(k, i, "shed"), freed, ok, rfreed, rok)
				}
			case r < 4:
				// Restore every operator from its own snapshot, from the
				// reference's, or through the checkpoint codec; the
				// reference restores from its own.
				sts := make([]stream.WindowState, len(specs))
				mode := rng.Intn(3)
				for k := range specs {
					switch mode {
					case 0, 2:
						sts[k] = ops[k].Snapshot()
					case 1:
						sts[k] = refs[k].snapshot()
					}
				}
				if mode == 2 {
					var staged []stream.Batch
					sts, staged = viaCheckpoint(t, sts, last)
					for k := range specs {
						checkBatches(t, where(k, i, "staged through the codec"), staged[k:k+1], lastRef[k:k+1])
					}
				}
				for k := range specs {
					var err error
					if ops[k], err = stream.RestoreTimeSlidingWindow(sts[k]); err != nil {
						t.Fatalf("%s: %v", where(k, i, "restore"), err)
					}
					refs[k] = restoreRefWindow(refs[k].snapshot())
				}
			}
			for k := range specs {
				op, ref := ops[k], refs[k]
				if op.PendingBytes() != ref.bytes {
					t.Fatalf("%s: PendingBytes %d, reference %d", where(k, i, "after"), op.PendingBytes(), ref.bytes)
				}
				if op.Late != ref.late || op.Shed != ref.shedN {
					t.Fatalf("%s: late %d shed %d, reference %d and %d", where(k, i, "after"), op.Late, op.Shed, ref.late, ref.shedN)
				}
			}
		}
		for k := range specs {
			emit(k, where(k, len(input), "flush"), ops[k].Flush(), refs[k].flush())
			if ops[k].PendingBytes() != 0 {
				t.Fatalf("seed %d: PendingBytes %d after Flush", seed, ops[k].PendingBytes())
			}
		}
		// Every emitted window is a view of a log the operator kept
		// appending to, compacting and growing: none may have changed.
		checkBatches(t, fmt.Sprintf("seed %d: at the end", seed), got, want)
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
		Log:   relation.Transpose([]relation.Tuple{row(1), row(2)}),
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
// columns on other goroutines while the operator keeps
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
				for i := 0; i < b.Len(); i++ {
					ts, val := cb.Col(0).Value(i), cb.Col(1).Value(i)
					if val.Float != float64(ts.Int) {
						t.Errorf("window %d row %d: ts %v beside value %v", b.WindowID, i, ts, val)
					}
					if ts.Int <= b.Start || ts.Int > b.End {
						t.Errorf("window %d (%d, %d] holds ts %d", b.WindowID, b.Start, b.End, ts.Int)
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
