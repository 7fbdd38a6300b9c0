package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// randomValue draws one value of every type the codec carries,
// NULL included.
func randomValue(rng *rand.Rand) relation.Value {
	switch rng.Intn(6) {
	case 0:
		return relation.Null
	case 1:
		return relation.Int(rng.Int63n(1<<40) - 1<<39)
	case 2:
		return relation.Float(rng.NormFloat64())
	case 3:
		return relation.String_(fmt.Sprintf("s%d", rng.Intn(1000)))
	case 4:
		return relation.Bool_(rng.Intn(2) == 1)
	default:
		return relation.Time(rng.Int63n(1 << 41))
	}
}

// windowCheckpoint builds a checkpoint from real window operators: each
// query reads refs streams through 10 s windows sliding by 1 s, pushed
// one row every 100 ms, so every row sits in up to ten open windows.
// The last two windows each operator emitted stay staged as the query's
// pending windows, the way a multi-reference query holds them. Every
// query reads operators of its own; those of every other query carry
// the replay cursor of a restored operator.
func windowCheckpoint(rng *rand.Rand, queries, refs, rows int) *Checkpoint {
	ck := &Checkpoint{Node: 1, TakenAtMS: 99, Cursors: map[string]int64{}, EmitHWM: map[string]int64{}}
	for q := 0; q < queries; q++ {
		id := fmt.Sprintf("q%02d", q)
		ck.EmitHWM[id] = int64(rng.Intn(1 << 20))
		qs := QueryState{ID: id, Failures: q % 3, Suspended: q%2 == 1, Budget: 1 << 20}
		staged := map[int64]map[int]stream.Batch{}
		for ref := 0; ref < refs; ref++ {
			op, err := stream.NewTimeSlidingWindow(stream.WindowSpec{RangeMS: 10_000, SlideMS: 1_000})
			if err != nil {
				panic(err)
			}
			var emitted []stream.Batch
			for i := 0; i < rows; i++ {
				row := relation.Tuple{relation.Time(int64(i) * 100), randomValue(rng), randomValue(rng)}
				if i%50 == 25 {
					row = relation.Tuple{} // never a window's first row, which is i%10 == 1
				}
				emitted = append(emitted, op.Push(stream.Timestamped{TS: int64(i) * 100, Row: row})...)
			}
			for _, b := range emitted[max(0, len(emitted)-2):] {
				if staged[b.End] == nil {
					staged[b.End] = map[int]stream.Batch{}
				}
				staged[b.End][ref] = b
			}
			w := Window{WindowState: op.Snapshot()}
			if q%2 == 0 {
				w.Seq = int64(rows / (ref + 1))
			}
			qs.Windows = append(qs.Windows, len(ck.Engine.Windows))
			ck.Engine.Windows = append(ck.Engine.Windows, w)
			ck.Cursors[fmt.Sprintf("s%d", ref)] = int64(rows)
		}
		for end := int64(0); len(staged) > 0; end += 1_000 {
			if m, ok := staged[end]; ok {
				qs.Pending = append(qs.Pending, PendingWindow{End: end, Batches: m})
				delete(staged, end)
			}
		}
		ck.Engine.Queries = append(ck.Engine.Queries, qs)
	}
	return ck
}

// normalized is the form a decoded checkpoint takes: empty maps and
// slices decode as nil, and a batch carries no columnar cell.
func normalized(ck *Checkpoint) *Checkpoint {
	out := *ck
	out.Cursors, out.EmitHWM = nilIfEmpty(ck.Cursors), nilIfEmpty(ck.EmitHWM)
	out.Engine = EngineState{}
	for _, w := range ck.Engine.Windows {
		if len(w.Rows) == 0 {
			w.Rows = nil
		}
		if len(w.Open) == 0 {
			w.Open = nil
		}
		out.Engine.Windows = append(out.Engine.Windows, w)
	}
	for _, q := range ck.Engine.Queries {
		if len(q.Windows) == 0 {
			q.Windows = nil
		}
		var pws []PendingWindow
		for _, pw := range q.Pending {
			var m map[int]stream.Batch
			for ref, b := range pw.Batches {
				if m == nil {
					m = map[int]stream.Batch{}
				}
				m[ref] = bare(b)
			}
			pws = append(pws, PendingWindow{End: pw.End, Batches: m})
		}
		q.Pending = pws
		out.Engine.Queries = append(out.Engine.Queries, q)
	}
	return &out
}

func nilIfEmpty(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	return m
}

func bare(b stream.Batch) stream.Batch {
	out := stream.Batch{WindowID: b.WindowID, Start: b.Start, End: b.End}
	if len(b.Rows) > 0 {
		out.Rows = b.Rows
	}
	return out
}

// rowArrays counts the distinct row backing arrays across a query's
// staged batches and the given operator logs: rows shared by
// overlapping windows count once.
func rowArrays(q *QueryState, logs ...[]relation.Tuple) int {
	seen := map[*relation.Value]bool{}
	add := func(rows []relation.Tuple) {
		for _, row := range rows {
			if len(row) > 0 {
				seen[&row[0]] = true
			}
		}
	}
	for _, rows := range logs {
		add(rows)
	}
	for _, pw := range q.Pending {
		for _, b := range pw.Batches {
			add(b.Rows)
		}
	}
	return len(seen)
}

// heldRows counts the row references a checkpoint's windows hold: each
// open window's rows and each staged batch's, counted once per window
// that holds them.
func heldRows(ck *Checkpoint) int {
	held := 0
	for _, w := range ck.Engine.Windows {
		for _, o := range w.Open {
			held += len(w.Rows) - o.Offset
		}
	}
	for _, q := range ck.Engine.Queries {
		for _, pw := range q.Pending {
			for _, b := range pw.Batches {
				held += len(b.Rows)
			}
		}
	}
	return held
}

// TestCodecSeededRoundTrip round-trips checkpoints of every value type,
// NULLs, empty rows, empty and nil maps and slices, operators read by
// several queries and by none, rows shared across overlapping staged
// windows, and staged windows overlapping their operator's log: the
// decoded checkpoint equals the original,
// re-encodes to the same bytes, and shares staged rows exactly where
// the original did.
func TestCodecSeededRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ck := windowCheckpoint(rng, 3, 2, 150+rng.Intn(100))
		withTailReader(ck)
		ck.Engine.Queries = append(ck.Engine.Queries,
			QueryState{ID: "empty", Windows: []int{}, Pending: []PendingWindow{}},
			QueryState{ID: "nil"},
			QueryState{ID: "staged-only", Pending: []PendingWindow{{End: 5, Batches: map[int]stream.Batch{
				-1: {End: 5, Rows: []relation.Tuple{{relation.Null}}},
				7:  {End: 5, Rows: []relation.Tuple{}},
			}}}},
			// A second reader of q01's window operators, as shared
			// windows export them, and a reference with no operator.
			QueryState{ID: "shares-q01", Windows: append(slices.Clone(ck.Engine.Queries[1].Windows), -1)},
		)
		// An operator no query reads, with no open window and a cursor.
		ck.Engine.Windows = append(ck.Engine.Windows, Window{WindowState: stream.WindowState{Spec: stream.WindowSpec{RangeMS: 1, SlideMS: 1}, NextEmit: 4, MaxTS: 3}, Seq: 1 << 40})
		blob, err := Encode(ck)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := normalized(ck); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: round trip mismatch:\n got %+v\nwant %+v", seed, got, want)
		}
		again, _ := Encode(got)
		if !bytes.Equal(again, blob) {
			t.Fatalf("seed %d: decoded checkpoint re-encodes differently", seed)
		}
		for i := range ck.Engine.Queries {
			if w, g := rowArrays(&ck.Engine.Queries[i]), rowArrays(&got.Engine.Queries[i]); w != g {
				t.Fatalf("seed %d query %s: %d distinct rows after decode, want %d", seed, ck.Engine.Queries[i].ID, g, w)
			}
		}
	}
}

// TestCodecWritesSharedRowsOnce pins the row sharing: a 10 s window
// sliding by 1 s holds each row in ten windows, and the blob writes
// each distinct row once. It is the blob of the operator alone, plus
// the staged rows the operator's log no longer holds, plus the fixed
// fields of each staged window.
func TestCodecWritesSharedRowsOnce(t *testing.T) {
	ck := windowCheckpoint(rand.New(rand.NewSource(3)), 1, 1, 400)
	blob, _ := Encode(ck)
	held := heldRows(ck)
	q, log := ck.Engine.Queries[0], ck.Engine.Windows[0].Rows
	if once := rowArrays(&q, log); held < 5*once {
		t.Fatalf("fixture holds %d row references over %d rows; want heavy overlap", held, once)
	}
	alone, unstaged := *ck, q
	unstaged.Pending = nil
	alone.Engine.Queries = []QueryState{unstaged}
	want, _ := Encode(&alone)
	size := len(want)
	// Every staged window runs into the log, so the rows the log no
	// longer holds are the longest run before its first row.
	var before []relation.Tuple
	for _, pw := range q.Pending {
		size += 12 // end, batch count
		for _, b := range pw.Batches {
			size += 40 // reference, bounds, row count, run offset
			at := slices.IndexFunc(b.Rows, func(row relation.Tuple) bool { return len(row) > 0 && &row[0] == &log[0][0] })
			if at < 0 {
				t.Fatal("a staged window does not reach the log: the fixture changed")
			}
			if at > len(before) {
				before = b.Rows[:at]
			}
		}
	}
	if len(before) == 0 {
		t.Fatal("the log holds every staged row: the check is vacuous")
	}
	for _, row := range before {
		size += len(wire.AppendRow(nil, row))
	}
	if len(blob) != size {
		t.Fatalf("blob is %d bytes, %d with each distinct row written once", len(blob), size)
	}
}

// withTailReader adds a reader of q00's first operator whose staged
// windows overlap that operator's log: one runs from the staged rows
// before the log into it, one lies inside the log, and one holds a row
// of its own.
func withTailReader(ck *Checkpoint) {
	q0 := &ck.Engine.Queries[0]
	k := q0.Windows[0]
	log := ck.Engine.Windows[k].Rows
	var staged []relation.Tuple // q00's first staged window over the operator
	for _, pw := range q0.Pending {
		if b, ok := pw.Batches[0]; ok {
			staged = b.Rows
			break
		}
	}
	at := slices.IndexFunc(staged, func(row relation.Tuple) bool { return len(row) > 0 && &row[0] == &log[0][0] })
	if at < 2 || len(log) < 8 {
		panic("the fixture has no staged rows before the log")
	}
	from, mid := at-2, 3
	for len(staged[from]) == 0 { // a run starts at a row of its own
		from--
	}
	for len(log[mid]) == 0 {
		mid++
	}
	ck.Engine.Queries = append(ck.Engine.Queries, QueryState{ID: "tail", Windows: []int{k}, Pending: []PendingWindow{
		{End: 1, Batches: map[int]stream.Batch{0: {End: 1, Rows: append(slices.Clip(staged[from:at]), log[:5]...)}}},
		{End: 2, Batches: map[int]stream.Batch{0: {End: 2, Rows: slices.Clip(log[mid : mid+5])}}},
		{End: 3, Batches: map[int]stream.Batch{0: {End: 3, Rows: []relation.Tuple{{relation.Int(7)}}}}},
	}})
}

// TestCodecWritesSharedOperatorOnce pins the window sharing across
// queries: a second query reading the same window operators adds their
// indices, not the operators' rows, and decodes to the same operators.
func TestCodecWritesSharedOperatorOnce(t *testing.T) {
	ck := windowCheckpoint(rand.New(rand.NewSource(4)), 1, 2, 300)
	alone, _ := Encode(ck)
	ck.Engine.Queries = append(ck.Engine.Queries, QueryState{ID: "reader2", Windows: ck.Engine.Queries[0].Windows})
	shared, _ := Encode(ck)
	// The second query costs its fixed fields and two 4-byte references.
	if grew := len(shared) - len(alone); grew > 64 {
		t.Fatalf("a second reader of the same operators grew the blob by %d bytes", grew)
	}
	back, err := Decode(shared)
	if err != nil {
		t.Fatal(err)
	}
	e := &back.Engine
	for ref := range e.Queries[0].Windows {
		first, second := e.Window(&e.Queries[0], ref), e.Window(&e.Queries[1], ref)
		if first == nil || first != second || !reflect.DeepEqual(*first, normalized(ck).Engine.Windows[ck.Engine.Queries[0].Windows[ref]]) {
			t.Fatalf("reference %d: the shared operator decoded differently for its second reader", ref)
		}
	}
}

// TestEncodeDeterministic pins byte-identical blobs for equal
// checkpoints even though every map in them ranges in random order.
func TestEncodeDeterministic(t *testing.T) {
	ck := &Checkpoint{Node: 3, TakenAtMS: 7, Cursors: map[string]int64{}, EmitHWM: map[string]int64{}}
	q := QueryState{ID: "q"}
	pw := PendingWindow{End: 1000, Batches: map[int]stream.Batch{}}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("k%02d", i)
		ck.Cursors[key] = int64(i)
		ck.EmitHWM[key] = int64(100 * i)
		pw.Batches[i] = stream.Batch{WindowID: int64(i), End: 1000, Rows: []relation.Tuple{{relation.Int(int64(i))}}}
	}
	q.Pending = []PendingWindow{pw}
	ck.Engine.Queries = []QueryState{q}
	first, _ := Encode(ck)
	for i := 0; i < 20; i++ {
		if again, _ := Encode(ck); !bytes.Equal(again, first) {
			t.Fatalf("encode %d differs from the first", i+2)
		}
	}
}

// TestEncodeIgnoresColumns checks that a batch's columns, runtime-only
// state, do not reach the blob: a staged batch encodes byte-identically
// before and after a reader takes its columns, and decodes to the same
// rows and byte estimate.
func TestEncodeIgnoresColumns(t *testing.T) {
	op, err := stream.NewTimeSlidingWindow(stream.WindowSpec{RangeMS: 1000, SlideMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	op.Push(stream.Timestamped{TS: 10, Row: relation.Tuple{relation.Int(1), relation.String_("abc")}})
	out := op.Push(stream.Timestamped{TS: 1500, Row: relation.Tuple{relation.Int(2), relation.Null}})
	if len(out) != 1 {
		t.Fatalf("emitted %d windows, want 1", len(out))
	}
	ck := &Checkpoint{Engine: EngineState{Queries: []QueryState{{ID: "q",
		Pending: []PendingWindow{{End: out[0].End, Batches: map[int]stream.Batch{0: out[0]}}}}}}}
	before, _ := Encode(ck)
	if out[0].Columns().Len() != 1 {
		t.Fatal("emitted batch has no columns")
	}
	after, _ := Encode(ck)
	if !bytes.Equal(before, after) {
		t.Fatal("reading the columns changed the blob")
	}
	back, err := Decode(after)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Engine.Queries[0].Pending[0].Batches[0]
	if !reflect.DeepEqual(got.Rows, out[0].Rows) || got.Bytes() != out[0].Bytes() {
		t.Fatalf("decoded batch %v (%d B), staged %v (%d B)", got.Rows, got.Bytes(), out[0].Rows, out[0].Bytes())
	}
}

// TestSaveAllocsIndependentOfRows bounds Save's allocations on a
// multi-window checkpoint: the blob itself (sized from the node's last
// one) plus one sorted-key or chain slice per map, query and staged
// window — never one per row or per window that shares a row.
func TestSaveAllocsIndependentOfRows(t *testing.T) {
	counts := map[int]float64{}
	for _, rows := range []int{200, 2000} {
		ck := windowCheckpoint(rand.New(rand.NewSource(1)), 4, 2, rows)
		c := NewCoordinator(1, 0, nil)
		counts[rows] = testing.AllocsPerRun(20, func() {
			if _, err := c.Save(0, ck, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	// 1 blob, 2 checkpoint maps' keys, and per query its chain slice
	// and one ref slice per staged window (2 each): 3 + 4 + 8 = 15.
	const bound = 16
	if counts[200] != counts[2000] || counts[2000] > bound {
		t.Fatalf("Save allocations = %v per checkpoint size, want equal and <= %d", counts, bound)
	}
}

// corruptions are the torn writes Save must catch: the fault
// injector's halving, a flipped payload bit, and a header announcing the
// wrong length.
var corruptions = map[string]func([]byte) []byte{
	"halved":      func(b []byte) []byte { return b[:len(b)/2] },
	"payload-bit": func(b []byte) []byte { b[len(b)-3] ^= 0x10; return b },
	"header-len":  func(b []byte) []byte { b[0]++; return b },
}

func TestSaveRejectsCorruptBlobs(t *testing.T) {
	for name, corrupt := range corruptions {
		reg := telemetry.NewRegistry()
		c := NewCoordinator(1, 0, reg)
		first := windowCheckpoint(rand.New(rand.NewSource(2)), 1, 1, 50)
		if _, err := c.Save(0, first, nil); err != nil {
			t.Fatal(err)
		}
		c.Log(0).TruncateThrough(first.Cursors) // what the node does after a committed save
		for seq := int64(51); seq <= 60; seq++ {
			c.Log(0).Append(logTuple("s0", seq))
		}
		second := windowCheckpoint(rand.New(rand.NewSource(2)), 1, 1, 60)
		second.TakenAtMS = first.TakenAtMS + 1
		if _, err := c.Save(0, second, corrupt); err == nil {
			t.Fatalf("%s: corrupt save reported no error", name)
		}
		if got := reg.Counter("recovery.torn").Value(); got != 1 {
			t.Fatalf("%s: recovery.torn = %d after the failed save, want 1", name, got)
		}
		if got := c.Log(0).Len(); got != 10 {
			t.Fatalf("%s: log holds %d tuples, want the 10 the failed cut did not cover", name, got)
		}
		if got := c.Latest(0); got == nil || got.TakenAtMS != first.TakenAtMS {
			t.Fatalf("%s: Latest = %+v, want the fallback to the first checkpoint", name, got)
		}
		if got := reg.Counter("recovery.torn").Value(); got != 2 {
			t.Fatalf("%s: recovery.torn = %d after the fallback, want 2", name, got)
		}
	}
}

// framed wraps a payload in a valid frame, so fuzzing reaches the
// payload decoder instead of stopping at the checksum.
func framed(payload []byte) []byte {
	b, start := wire.Open(nil)
	return wire.Seal(append(b, payload...), start)
}

func FuzzDecodeCheckpoint(f *testing.F) {
	// Small seeds keep the minimization of each new input quick.
	for seed := int64(1); seed <= 3; seed++ {
		blob, _ := Encode(windowCheckpoint(rand.New(rand.NewSource(seed)), 1, 2, 14))
		f.Add(blob[wire.HeaderSize:])
		f.Add(blob[wire.HeaderSize : len(blob)/2])
	}
	// Two queries read one operator pair, and each holds staged
	// windows.
	shared := windowCheckpoint(rand.New(rand.NewSource(4)), 1, 2, 14)
	reader := shared.Engine.Queries[0]
	reader.ID = "r"
	shared.Engine.Queries = append(shared.Engine.Queries, reader)
	// A reader whose staged windows overlap its operator's log.
	tail := windowCheckpoint(rand.New(rand.NewSource(5)), 1, 1, 110)
	withTailReader(tail)
	for _, ck := range []*Checkpoint{shared, tail, sampleCheckpoint()} {
		blob, _ := Encode(ck)
		f.Add(blob[wire.HeaderSize:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		blob := framed(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := Decode(blob)
		Decode(payload) // unframed: must fail cleanly, never panic
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(128*len(blob)+64<<10); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(blob), grew, bound)
		}
		if err != nil {
			return
		}
		if again, _ := Encode(ck); !bytes.Equal(again, blob) {
			t.Fatalf("decoded checkpoint re-encodes differently:\n in %x\nout %x", blob, again)
		}
	})
}

// BenchmarkCheckpointSave prices one Save (encode, commit, verify) of a
// four-query checkpoint whose two stream references each hold 500 rows
// in 10 s windows sliding by 1 s.
func BenchmarkCheckpointSave(b *testing.B) {
	ck := windowCheckpoint(rand.New(rand.NewSource(1)), 4, 2, 500)
	c := NewCoordinator(1, 0, nil)
	var n int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if n, err = c.Save(0, ck, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "blob-B")
}
