package recovery

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
// one row every 100 ms, so every row sits in up to ten open windows;
// every fiftieth row is NULL but for its timestamp.
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
					row = relation.Tuple{row[0], relation.Null, relation.Null}
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

// plainCheckpoint is what a checkpoint holds, with every window's rows
// read out and empty maps and slices as nil, so a decoded checkpoint,
// whose windows view logs of their own, compares with the original.
type plainCheckpoint struct {
	Node, TakenAtMS  int64
	Cursors, EmitHWM map[string]int64
	Windows          []plainWindow
	Queries          []plainQuery
}

type plainWindow struct {
	Spec                       stream.WindowSpec
	NextEmit, MaxTS, Late, Seq int64
	Rows                       []relation.Tuple
	Open                       []stream.OpenWindow
}

type plainQuery struct {
	ID        string
	Windows   []int
	Failures  int
	Suspended bool
	Budget    int64
	Pending   []int64
	Batches   []map[int]plainBatch
}

type plainBatch struct {
	WindowID, Start, End, Bytes int64
	Rows                        []relation.Tuple
}

func plain(ck *Checkpoint) plainCheckpoint {
	out := plainCheckpoint{Node: int64(ck.Node), TakenAtMS: ck.TakenAtMS, Cursors: nilIfEmpty(ck.Cursors), EmitHWM: nilIfEmpty(ck.EmitHWM)}
	for _, w := range ck.Engine.Windows {
		pw := plainWindow{Spec: w.Spec, NextEmit: w.NextEmit, MaxTS: w.MaxTS, Late: w.Late, Seq: w.Seq}
		if w.Log.Len() > 0 {
			pw.Rows = w.Log.Rows()
		}
		if len(w.Open) > 0 {
			pw.Open = w.Open
		}
		out.Windows = append(out.Windows, pw)
	}
	for _, q := range ck.Engine.Queries {
		pq := plainQuery{ID: q.ID, Failures: q.Failures, Suspended: q.Suspended, Budget: q.Budget}
		if len(q.Windows) > 0 {
			pq.Windows = q.Windows
		}
		for _, pw := range q.Pending {
			pq.Pending = append(pq.Pending, pw.End)
			var m map[int]plainBatch
			for ref, b := range pw.Batches {
				if m == nil {
					m = map[int]plainBatch{}
				}
				m[ref] = plainOf(b)
			}
			pq.Batches = append(pq.Batches, m)
		}
		out.Queries = append(out.Queries, pq)
	}
	return out
}

func plainOf(b stream.Batch) plainBatch {
	pb := plainBatch{WindowID: b.WindowID, Start: b.Start, End: b.End, Bytes: b.Bytes()}
	if b.Len() > 0 {
		pb.Rows = b.Columns().Rows()
	}
	return pb
}

func nilIfEmpty(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	return m
}

// sharedRows counts the distinct rows across a query's staged batches
// and the given operator logs: rows that views of one log hold at one
// position count once, and every row of a batch that is no log's view
// counts.
func sharedRows(q *QueryState, logs ...*relation.ColBatch) int {
	type at struct {
		log uint64
		pos int
	}
	seen, own := map[at]bool{}, 0
	add := func(log uint64, pos, n int) {
		for i := 0; i < n; i++ {
			if log == 0 {
				own++
			} else {
				seen[at{log, pos + i}] = true
			}
		}
	}
	for _, cb := range logs {
		if cb != nil {
			log, pos := cb.Source()
			add(log, pos, cb.Len())
		}
	}
	for _, pw := range q.Pending {
		for _, b := range pw.Batches {
			log, pos := b.Columns().Source()
			add(log, pos, b.Len())
		}
	}
	return len(seen) + own
}

// heldRows counts the row references a checkpoint's windows hold: each
// open window's rows and each staged batch's, counted once per window
// that holds them.
func heldRows(ck *Checkpoint) int {
	held := 0
	for _, w := range ck.Engine.Windows {
		for _, o := range w.Open {
			held += w.Log.Len() - o.Offset
		}
	}
	for _, q := range ck.Engine.Queries {
		for _, pw := range q.Pending {
			for _, b := range pw.Batches {
				held += b.Len()
			}
		}
	}
	return held
}

// TestCodecSeededRoundTrip round-trips checkpoints of every value type,
// NULLs, empty and nil maps and slices, operators read by
// several queries and by none, rows shared across overlapping staged
// windows, and staged windows overlapping their operator's log: the
// decoded checkpoint equals the original, re-encodes to the same
// bytes, and shares staged rows exactly where the original did.
func TestCodecSeededRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ck := windowCheckpoint(rng, 3, 2, 150+rng.Intn(100))
		withTailReader(ck)
		ck.Engine.Queries = append(ck.Engine.Queries,
			QueryState{ID: "empty", Windows: []int{}, Pending: []PendingWindow{}},
			QueryState{ID: "nil"},
			QueryState{ID: "staged-only", Pending: []PendingWindow{{End: 5, Batches: map[int]stream.Batch{
				-1: stream.NewBatch(0, 0, 5, relation.Transpose([]relation.Tuple{{relation.Null}})),
				7:  {End: 5},
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
		if !reflect.DeepEqual(plain(got), plain(ck)) {
			t.Fatalf("seed %d: round trip mismatch:\n got %+v\nwant %+v", seed, plain(got), plain(ck))
		}
		again, _ := Encode(got)
		if !bytes.Equal(again, blob) {
			t.Fatalf("seed %d: decoded checkpoint re-encodes differently", seed)
		}
		for i := range ck.Engine.Queries {
			logsOf := func(ck *Checkpoint) (logs []*relation.ColBatch) {
				for ref := range ck.Engine.Queries[i].Windows {
					if w := ck.Engine.Window(&ck.Engine.Queries[i], ref); w != nil {
						logs = append(logs, w.Log)
					}
				}
				return logs
			}
			if w, g := sharedRows(&ck.Engine.Queries[i], logsOf(ck)...), sharedRows(&got.Engine.Queries[i], logsOf(got)...); w != g {
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
	q, log := ck.Engine.Queries[0], ck.Engine.Windows[0].Log
	if once := sharedRows(&q, log); held < 5*once {
		t.Fatalf("fixture holds %d row references over %d rows; want heavy overlap", held, once)
	}
	alone, unstaged := *ck, q
	unstaged.Pending = nil
	alone.Engine.Queries = []QueryState{unstaged}
	want, _ := Encode(&alone)
	size := len(want)
	// Every staged window runs into the log, so the rows the log no
	// longer holds are the longest run before its first row.
	_, first := log.Source()
	var before stream.Batch
	longest := 0
	for _, pw := range q.Pending {
		size += 12 // end, batch count
		for _, b := range pw.Batches {
			size += 40 // reference, bounds, row count, run offset
			_, pos := b.Columns().Source()
			at := first - pos
			if at <= 0 || at >= b.Len() {
				t.Fatal("a staged window does not reach the log: the fixture changed")
			}
			if at > longest {
				before, longest = b, at
			}
		}
	}
	if longest == 0 {
		t.Fatal("the log holds every staged row: the check is vacuous")
	}
	size += len(wire.AppendColumnsRows(nil, before.Columns(), longest))
	if len(blob) != size {
		t.Fatalf("blob is %d bytes, %d with each distinct row written once", len(blob), size)
	}
}

// withTailReader adds a reader of q00's first operator whose staged
// windows overlap that operator's log: one runs from the staged rows
// before the log into it from inside the head (the newest window the
// operator emitted), one is the log itself, and one holds a row of its
// own.
func withTailReader(ck *Checkpoint) {
	q0 := &ck.Engine.Queries[0]
	k := q0.Windows[0]
	log := ck.Engine.Windows[k].Log
	var newest stream.Batch // q00's newest staged window over the operator
	for _, pw := range q0.Pending {
		if b, ok := pw.Batches[0]; ok && b.WindowID > newest.WindowID {
			newest = b
		}
	}
	_, first := log.Source()
	if _, pos := newest.Columns().Source(); pos >= first || pos+newest.Len() <= first {
		panic("the fixture has no staged window running into the log")
	}
	ck.Engine.Queries = append(ck.Engine.Queries, QueryState{ID: "tail", Windows: []int{k}, Pending: []PendingWindow{
		{End: 1, Batches: map[int]stream.Batch{0: newest}},
		{End: 2, Batches: map[int]stream.Batch{0: stream.NewBatch(2, 0, 2, log)}},
		{End: 3, Batches: map[int]stream.Batch{0: stream.NewBatch(3, 0, 3, relation.Transpose([]relation.Tuple{{relation.Int(7)}}))}},
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
		if first == nil || first != second || !reflect.DeepEqual(plain(back).Windows[e.Queries[0].Windows[ref]], plain(ck).Windows[ck.Engine.Queries[0].Windows[ref]]) {
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
		pw.Batches[i] = stream.NewBatch(int64(i), 0, 1000, relation.Transpose([]relation.Tuple{{relation.Int(int64(i))}}))
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

// TestEncodeIgnoresColumns checks that reading a batch's columns does
// not reach the blob: a staged batch encodes byte-identically before
// and after a reader takes its columns, and decodes to the same rows
// and byte estimate.
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
	if g, w := plainOf(got), plainOf(out[0]); !reflect.DeepEqual(g, w) {
		t.Fatalf("decoded batch %+v, staged %+v", g, w)
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
	// 1 span slice, 2 checkpoint maps' keys, and per query its chain
	// slice and one ref slice per staged window (2 each): 3 + 4 + 8 =
	// 15. The blob is encoded into the one the commit drops.
	const bound = 15
	if counts[200] != counts[2000] || counts[2000] > bound {
		t.Fatalf("Save allocations = %v per checkpoint size, want equal and <= %d", counts, bound)
	}
}

// TestSaveRecyclesDroppedBlob checks that a steady Save encodes into
// the blob its commit drops, and that a torn blob written into that
// recycled buffer still falls back to the previous checkpoint intact.
func TestSaveRecyclesDroppedBlob(t *testing.T) {
	c := NewCoordinator(1, 0, nil)
	var cks []*Checkpoint
	for i := 0; i < 4; i++ {
		ck := windowCheckpoint(rand.New(rand.NewSource(2)), 1, 1, 60)
		ck.TakenAtMS = int64(100 * (i + 1))
		cks = append(cks, ck)
	}
	for _, ck := range cks[:3] {
		if _, err := c.Save(0, ck, nil); err != nil {
			t.Fatal(err)
		}
	}
	dropped := c.store.prev[0] // the blob the next commit drops
	if _, err := c.Save(0, cks[3], corruptions["payload-bit"]); err == nil {
		t.Fatal("corrupt save reported no error")
	}
	if cur := c.store.cur[0]; &cur[0] != &dropped[0] {
		t.Fatal("the torn blob was not encoded into the dropped one")
	}
	got := c.Latest(0)
	if got == nil || got.TakenAtMS != cks[2].TakenAtMS {
		t.Fatalf("Latest = %+v, want the fallback to checkpoint %d", got, cks[2].TakenAtMS)
	}
	if !reflect.DeepEqual(plain(got), plain(cks[2])) {
		t.Fatal("the fallback checkpoint decoded differently")
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

// TestCheckpointBlobGolden pins the wire form: the checkpoint
// BenchmarkCheckpointSave encodes is byte-identical to the blob the
// row-log encoder wrote for it.
func TestCheckpointBlobGolden(t *testing.T) {
	const want = "761de2b8a998085f10fcb48f2f9e80edccec1175ba1d4cd3e1f16db4793d8ddb"
	blob, _ := Encode(windowCheckpoint(rand.New(rand.NewSource(1)), 4, 2, 500))
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != want || len(blob) != 26_429 {
		t.Fatalf("blob is %d bytes with SHA-256 %s, want 26429 bytes with %s", len(blob), got, want)
	}
}

// TestStagedRunNeedsItsOwnOperatorLog checks that a staged batch whose
// positions fall inside the table of the operator its reference reads,
// but in another column log, is written in full: a window of another
// operator over the same stream, and a window of an operator that was
// since restored, whose log is new.
func TestStagedRunNeedsItsOwnOperatorLog(t *testing.T) {
	push := func(spec stream.WindowSpec) (*stream.TimeSlidingWindow, []stream.Batch) {
		op, err := stream.NewTimeSlidingWindow(spec)
		if err != nil {
			t.Fatal(err)
		}
		var out []stream.Batch
		for i := 0; i < 200; i++ {
			out = append(out, op.Push(stream.Timestamped{TS: int64(i) * 100, Row: relation.Tuple{relation.Time(int64(i) * 100), relation.Int(int64(i))}})...)
		}
		return op, out
	}
	a, fromA := push(stream.WindowSpec{RangeMS: 10_000, SlideMS: 1_000})
	_, fromB := push(stream.WindowSpec{RangeMS: 5_000, SlideMS: 1_000})
	restored, err := stream.RestoreTimeSlidingWindow(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	own, other := fromA[len(fromA)-1], fromB[len(fromB)-1]
	for name, op := range map[string]*stream.TimeSlidingWindow{"live": a, "restored": restored} {
		st := op.Snapshot()
		stage := func(b stream.Batch) *Checkpoint {
			return &Checkpoint{Engine: EngineState{
				Windows: []Window{{WindowState: st}},
				Queries: []QueryState{{ID: "q", Windows: []int{0}, Pending: []PendingWindow{{End: 1, Batches: map[int]stream.Batch{0: b}}}}},
			}}
		}
		full := func(b stream.Batch) stream.Batch {
			return stream.NewBatch(b.WindowID, b.Start, b.End, relation.Transpose(b.Columns().Rows()))
		}
		staged := map[string]stream.Batch{"another operator's window": other}
		if name == "restored" {
			staged["the operator's window before its restore"] = own
		}
		for what, b := range staged {
			blob, _ := Encode(stage(b))
			if want, _ := Encode(stage(full(b))); !bytes.Equal(blob, want) {
				t.Errorf("%s operator: %s was named as a run", name, what)
			}
			back, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := plainOf(back.Engine.Queries[0].Pending[0].Batches[0]), plainOf(b); !reflect.DeepEqual(g, w) {
				t.Errorf("%s operator: %s decoded as %+v, want %+v", name, what, g, w)
			}
		}
		if name == "live" {
			blob, _ := Encode(stage(own))
			if full, _ := Encode(stage(full(own))); len(blob) >= len(full) {
				t.Error("the operator's own window was written in full")
			}
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
