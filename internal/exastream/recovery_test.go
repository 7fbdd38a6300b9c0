package exastream

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/recovery"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stream"
)

func seqTuple(i int) (stream.Timestamped, int64) {
	ts := int64(i) * 250
	return stream.Timestamped{TS: ts, Row: relation.Tuple{
		relation.Int(int64(i%10 + 1)), relation.Time(ts), relation.Float(float64(50 + i%30)),
	}}, int64(i + 1)
}

// TestExportRestoreReplayEquivalence is the engine-level half of the
// exactly-once story: a query restored from an ExportState cut, fed the
// full input again through Replay, must emit exactly the windows the
// uninterrupted engine emits after the cut — the operator's cursor
// silently drops the already-applied prefix, and restored window state
// supplies the rows that arrived before the crash.
func TestExportRestoreReplayEquivalence(t *testing.T) {
	const total, cut = 40, 25
	stmt := sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")

	// Baseline: uninterrupted run.
	base := testRig(t, Options{})
	baseOut := &collector{}
	if err := base.Register("q", stmt, nil, baseOut.sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		el, seq := seqTuple(i)
		if err := base.IngestSeq("msmt", el, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := base.Flush(); err != nil {
		t.Fatal(err)
	}

	// Victim: ingest a prefix, then cut. Ingest is synchronous, so the
	// engine is quiesced between calls and the export is consistent.
	victim := testRig(t, Options{})
	victimOut := &collector{}
	if err := victim.Register("q", stmt, nil, victimOut.sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		el, seq := seqTuple(i)
		if err := victim.IngestSeq("msmt", el, seq); err != nil {
			t.Fatal(err)
		}
	}
	st := victim.ExportState()
	if st.Query("q") == nil {
		t.Fatal("export lost query q")
	}

	// Heir: restore from the cut on a fresh engine, then replay the FULL
	// feed — the operator's cursor must drop seqs 1..cut.
	heir := testRig(t, Options{})
	heirOut := &collector{}
	r := heir.Restore(st, map[string]int64{"msmt": cut})
	if err := r.Query("q", stmt, nil, heirOut.sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		el, seq := seqTuple(i)
		if err := r.Replay("msmt", el, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := heir.Flush(); err != nil {
		t.Fatal(err)
	}

	got := append(victimOut.results, heirOut.results...)
	if !reflect.DeepEqual(got, baseOut.results) {
		t.Fatalf("victim+heir emitted %d windows, baseline %d (or contents differ):\n got %+v\nwant %+v",
			len(got), len(baseOut.results), got, baseOut.results)
	}
	if len(got) == 0 {
		t.Fatal("test vacuous: no windows emitted")
	}
}

// TestRestoreQueryWithoutSnapshotCursorsReplay covers the
// checkpoint-predates-query case: the query restores with a fresh
// operator, cursored at the node's cut, so replay of the covered gap
// is applied exactly once.
func TestRestoreQueryWithoutSnapshotCursorsReplay(t *testing.T) {
	stmt := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	e := testRig(t, Options{})
	out := &collector{}
	r := e.Restore(nil, map[string]int64{"msmt": 5})
	if err := r.Query("q", stmt, nil, out.sink); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		el, seq := seqTuple(i)
		if err := r.Replay("msmt", el, seq); err != nil {
			t.Fatal(err)
		}
	}
	// Replaying the same tuples again must be a no-op.
	for i := 0; i < 12; i++ {
		el, seq := seqTuple(i)
		if err := r.Replay("msmt", el, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, r := range out.results {
		// seqs 1..5 (ts 0..1000) were cut away; the first window that can
		// contain replayed rows ends at 2000.
		if r.end < 2000 && len(r.rows) > 0 {
			t.Fatalf("window ending %d carries %d rows from below the cursor", r.end, len(r.rows))
		}
	}
	if out.totalRows() != 12-5 {
		t.Fatalf("replayed rows delivered = %d, want %d", out.totalRows(), 12-5)
	}
}

func TestRestoreQueryRejectsDuplicateID(t *testing.T) {
	stmt := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	e := testRig(t, Options{})
	sink := func(string, int64, relation.Schema, *relation.ColBatch) {}
	if err := e.Restore(nil, nil).Query("q", stmt, nil, sink); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(nil, nil).Query("q", stmt, nil, sink); err == nil {
		t.Fatal("duplicate restore succeeded")
	}
}

// TestExportStateIgnoresShareWindows pins what a checkpoint carries:
// the per-query window operators and staged windows, nothing keyed on
// the deprecated ShareWindows switch. The same seeded run with the
// switch on and off must encode to byte-identical checkpoints, so a
// checkpoint never carries a second copy of the shared window batches.
func TestExportStateIgnoresShareWindows(t *testing.T) {
	export := func(share bool) []byte {
		e := testRig(t, Options{ShareWindows: share})
		declareMsmt2(t, e)
		out := &collector{}
		for id, text := range map[string]string{
			"avg":     "SELECT m.sid, AVG(m.val) FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m GROUP BY m.sid",
			"export":  "SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m",
			"hot":     "SELECT m.val FROM STREAM msmt [RANGE 2000 SLIDE 500] AS m WHERE m.val > 60",
			"joined":  "SELECT a.sid, b.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS a, msmt2 [RANGE 1000 SLIDE 500] AS b WHERE a.sid = b.sid",
			"sensors": "SELECT m.sid, s.tid FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m, sensors AS s WHERE m.sid = s.sid",
		} {
			if err := e.Register(id, sql.MustParse(text), nil, out.sink); err != nil {
				t.Fatal(err)
			}
		}
		// msmt runs ahead of msmt2, so "joined" holds staged windows at
		// the cut as well as open ones.
		for i := 0; i < 60; i++ {
			el, seq := seqTuple(i)
			if err := e.IngestSeq("msmt", el, seq); err != nil {
				t.Fatal(err)
			}
			if i < 45 {
				if err := e.IngestSeq("msmt2", el, seq); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(out.results) == 0 {
			t.Fatal("no windows executed before the cut: the check is vacuous")
		}
		blob, err := recovery.Encode(&recovery.Checkpoint{Engine: *e.ExportState()})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	on, off := export(true), export(false)
	if !bytes.Equal(on, off) {
		t.Fatalf("checkpoint with ShareWindows on is %d bytes, off %d bytes; want byte-identical", len(on), len(off))
	}
}

// declareMsmt2 declares a second stream with msmt's schema.
func declareMsmt2(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.DeclareStream(stream.Schema{
		Name: "msmt2",
		Tuple: relation.NewSchema(
			relation.Col("sid", relation.TInt),
			relation.Col("ts", relation.TTime),
			relation.Col("val", relation.TFloat),
		),
		TSCol: "ts",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestExportStateListsEachOperatorOnce pins the checkpoint's operator
// table: queries over two shared (stream, window) operators and one
// restored query export exactly one state per operator, every stream
// reference names the operator it reads, and the queries restored from
// the decoded blob share one operator per state again and emit what the
// original goes on to emit — staged windows of a two-stream query
// included.
func TestExportStateListsEachOperatorOnce(t *testing.T) {
	texts := map[string]string{
		"avg":     "SELECT m.sid, AVG(m.val) FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m GROUP BY m.sid",
		"export":  "SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m",
		"hot":     "SELECT b.val FROM STREAM msmt2 [RANGE 1000 SLIDE 500] AS b WHERE b.val > 60",
		"joined":  "SELECT a.sid, b.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS a, msmt2 [RANGE 1000 SLIDE 500] AS b WHERE a.sid = b.sid",
		"private": "SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m WHERE m.val < 40",
	}
	// Seeded input; msmt2 runs 1.5 s behind msmt, so "joined" holds
	// staged msmt windows at any cut.
	type input struct {
		stream string
		el     stream.Timestamped
		seq    int64
	}
	rng := rand.New(rand.NewSource(29))
	var in []input
	seqs := map[string]int64{}
	for i, ts := 0, int64(0); i < 150; i++ {
		ts += rng.Int63n(120)
		for _, s := range []string{"msmt", "msmt2"} {
			at := ts
			if s == "msmt2" {
				if at -= 1500; at < 0 || rng.Intn(3) == 0 {
					continue
				}
			}
			seqs[s]++
			row := relation.Tuple{relation.Int(1 + rng.Int63n(5)), relation.Time(at), relation.Float(float64(rng.Intn(100)))}
			in = append(in, input{s, stream.Timestamped{TS: at, Row: row}, seqs[s]})
		}
	}
	const cut = 180
	orig := testRig(t, Options{})
	declareMsmt2(t, orig)
	origOut := &collector{}
	for id, text := range texts {
		var err error
		if id == "private" {
			err = orig.Restore(nil, nil).Query(id, sql.MustParse(text), nil, origOut.sink)
		} else {
			err = orig.Register(id, sql.MustParse(text), nil, origOut.sink)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	cursors := map[string]int64{}
	for _, x := range in[:cut] {
		if err := orig.IngestSeq(x.stream, x.el, x.seq); err != nil {
			t.Fatal(err)
		}
		cursors[x.stream] = x.seq
	}

	st := orig.ExportState()
	if len(st.Windows) != 3 || len(st.Windows) != len(orig.windows) {
		t.Fatalf("exported %d operator states, engine runs %d operators (want 3)", len(st.Windows), len(orig.windows))
	}
	index := map[*stream.TimeSlidingWindow]int{}
	taken := map[int]bool{}
	for _, qs := range st.Queries {
		q := orig.queries[qs.ID]
		if len(qs.Windows) != len(q.refs) {
			t.Fatalf("query %s: %d operator indices for %d stream references", qs.ID, len(qs.Windows), len(q.refs))
		}
		for i, k := range qs.Windows {
			op := q.ops[i].op
			if want, ok := index[op]; ok && k != want || !ok && taken[k] {
				t.Fatalf("query %s reference %d names operator %d, which another operator holds", qs.ID, i, k)
			}
			index[op], taken[k] = k, true
			if !reflect.DeepEqual(st.Windows[k].WindowState, op.Snapshot()) {
				t.Fatalf("query %s reference %d: operator %d is not the state of the operator it reads", qs.ID, i, k)
			}
		}
	}
	if len(st.Query("joined").Pending) == 0 {
		t.Fatal("no staged window at the cut: the check is vacuous")
	}
	blob, err := recovery.Encode(&recovery.Checkpoint{Cursors: cursors, Engine: *st})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := recovery.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}

	heir := testRig(t, Options{})
	declareMsmt2(t, heir)
	heirOut := &collector{}
	r := heir.Restore(ck.State(), ck.Cursors)
	for id, text := range texts {
		if err := r.Query(id, sql.MustParse(text), nil, heirOut.sink); err != nil {
			t.Fatal(err)
		}
	}
	if len(heir.windows) != len(st.Windows) {
		t.Fatalf("restored %d operators from a cut of %d", len(heir.windows), len(st.Windows))
	}
	before := len(origOut.results)
	for _, x := range in[cut:] {
		if err := orig.IngestSeq(x.stream, x.el, x.seq); err != nil {
			t.Fatal(err)
		}
		if err := heir.IngestSeq(x.stream, x.el, x.seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := heir.Flush(); err != nil {
		t.Fatal(err)
	}
	got, want := byQuery(heirOut.results), byQuery(origOut.results[before:])
	for id := range texts {
		if len(want[id]) == 0 {
			t.Fatalf("query %s emitted nothing after the cut: the check is vacuous", id)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored queries emitted\n%v\nwant\n%v", got, want)
	}
}

// byQuery groups emitted windows by query, each as its end time and
// its rows in sorted order.
func byQuery(results []collected) map[string][]string {
	out := map[string][]string{}
	for _, r := range results {
		rows := make([]string, len(r.rows))
		for i, row := range r.rows {
			rows[i] = fmt.Sprint(row)
		}
		sort.Strings(rows)
		out[r.qid] = append(out[r.qid], fmt.Sprint(r.end, rows))
	}
	for _, ws := range out {
		sort.Strings(ws)
	}
	return out
}

// TestRestoredOperatorCursorDropsRepeatedFeed restores two readers of
// one operator from one cut and replays the feed once per reader, as
// a restore that replays query by query would: the readers share one
// restored operator, whose cursor drops the second pass, so no window
// advances twice and none is delivered twice. What they emit is what
// the uncut engine emits after the cut.
func TestRestoredOperatorCursorDropsRepeatedFeed(t *testing.T) {
	const total, cut = 60, 25
	texts := map[string]string{
		"all": "SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m",
		"hot": "SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 500] AS m WHERE m.val > 60",
	}
	orig := testRig(t, Options{})
	origOut := &collector{}
	for id, text := range texts {
		if err := orig.Register(id, sql.MustParse(text), nil, origOut.sink); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cut; i++ {
		el, seq := seqTuple(i)
		if err := orig.IngestSeq("msmt", el, seq); err != nil {
			t.Fatal(err)
		}
	}
	st := orig.ExportState()
	before := len(origOut.results)

	heir := testRig(t, Options{})
	heirOut := &collector{}
	r := heir.Restore(st, map[string]int64{"msmt": cut})
	for id, text := range texts {
		if err := r.Query(id, sql.MustParse(text), nil, heirOut.sink); err != nil {
			t.Fatal(err)
		}
	}
	if len(heir.windows) != 1 {
		t.Fatalf("two readers of one checkpointed operator restored %d operators", len(heir.windows))
	}
	replay := func() {
		for i := 0; i < total; i++ {
			el, seq := seqTuple(i)
			if err := r.Replay("msmt", el, seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	replay()
	built := heir.Stats().BatchesBuilt
	delivered := len(heirOut.results)
	replay()
	if got := heir.Stats().BatchesBuilt; got != built {
		t.Fatalf("the second replay built %d more windows", got-built)
	}
	if got := len(heirOut.results); got != delivered {
		t.Fatalf("the second replay delivered %d more windows", got-delivered)
	}

	for i := cut; i < total; i++ {
		el, seq := seqTuple(i)
		if err := orig.IngestSeq("msmt", el, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := heir.Flush(); err != nil {
		t.Fatal(err)
	}
	got, want := byQuery(heirOut.results), byQuery(origOut.results[before:])
	if len(want["all"]) == 0 || len(want["hot"]) == 0 {
		t.Fatal("a query emitted nothing after the cut: the check is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored readers emitted\n%v\nwant\n%v", got, want)
	}
}

// TestRestoredOperatorAcceptsResendAfterCatchUp restores a query whose
// operator is cursored at seq 100. The first live tuple above the
// cursor makes the operator a live one, so a later partition-salvage
// resend, whose seq lies below the old cursor, is applied like any
// live tuple instead of being dropped as already seen.
func TestRestoredOperatorAcceptsResendAfterCatchUp(t *testing.T) {
	stmt := sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	e := testRig(t, Options{})
	out := &collector{}
	r := e.Restore(nil, map[string]int64{"msmt": 100})
	if err := r.Query("q", stmt, nil, out.sink); err != nil {
		t.Fatal(err)
	}
	for _, x := range []struct {
		ts, seq int64
	}{{1000, 101}, {1100, 50}} {
		el := stream.Timestamped{TS: x.ts, Row: relation.Tuple{relation.Int(x.seq), relation.Time(x.ts), relation.Float(1)}}
		if err := e.IngestSeq("msmt", el, x.seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := out.totalRows(); got != 2 {
		t.Fatalf("the restored operator took %d of the live tuple and the resend, want both", got)
	}
}

// TestRegistrationAfterRestoreJoinsRestoredOperator registers a query
// over the same (stream, window) as a restored one once live traffic
// has passed the restored operator's cursor: it reads that operator,
// not a second one beside it, and both queries see the same windows.
func TestRegistrationAfterRestoreJoinsRestoredOperator(t *testing.T) {
	stmt := sql.MustParse("SELECT m.sid, m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	e := testRig(t, Options{})
	out := &collector{}
	r := e.Restore(nil, map[string]int64{"msmt": 5})
	if err := r.Query("restored", stmt, nil, out.sink); err != nil {
		t.Fatal(err)
	}
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			el, seq := seqTuple(i)
			if err := e.IngestSeq("msmt", el, seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(5, 8)
	before := len(out.results)
	if err := e.Register("late", stmt, nil, out.sink); err != nil {
		t.Fatal(err)
	}
	if len(e.windows) != 1 {
		t.Fatalf("a registration after the restore runs beside it: %d operators", len(e.windows))
	}
	ingest(8, 20)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	got := byQuery(out.results[before:])
	if len(got["late"]) == 0 || !reflect.DeepEqual(got["late"], got["restored"]) {
		t.Fatalf("the readers of one operator saw different windows:\nrestored %v\nlate     %v", got["restored"], got["late"])
	}
}
