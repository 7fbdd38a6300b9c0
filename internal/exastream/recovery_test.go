package exastream

import (
	"reflect"
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
// full input again through ReplayFor, must emit exactly the windows the
// uninterrupted engine emits after the cut — the cursor silently drops
// the already-applied prefix, and restored window state supplies the
// rows that arrived before the crash.
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
	var qs *recovery.QueryState
	for i := range st.Queries {
		if st.Queries[i].ID == "q" {
			qs = &st.Queries[i]
		}
	}
	if qs == nil {
		t.Fatal("export lost query q")
	}

	// Heir: restore from the cut on a fresh engine, then replay the FULL
	// feed — the cursor must drop seqs 1..cut.
	heir := testRig(t, Options{})
	heirOut := &collector{}
	heir.ImportWCache(st.WCache)
	if err := heir.RestoreQuery("q", stmt, nil, heirOut.sink, qs, map[string]int64{"msmt": cut}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		el, seq := seqTuple(i)
		if err := heir.ReplayFor("q", "msmt", el, seq); err != nil {
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
// checkpoint-predates-query case: the query restores with fresh windows
// but still inherits the node cut as its cursor, so replay of the
// covered gap is applied exactly once.
func TestRestoreQueryWithoutSnapshotCursorsReplay(t *testing.T) {
	stmt := sql.MustParse("SELECT m.val FROM STREAM msmt [RANGE 1000 SLIDE 1000] AS m")
	e := testRig(t, Options{})
	out := &collector{}
	if err := e.RestoreQuery("q", stmt, nil, out.sink, nil, map[string]int64{"msmt": 5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		el, seq := seqTuple(i)
		if err := e.ReplayFor("q", "msmt", el, seq); err != nil {
			t.Fatal(err)
		}
	}
	// Replaying the same tuples again must be a no-op.
	for i := 0; i < 12; i++ {
		el, seq := seqTuple(i)
		if err := e.ReplayFor("q", "msmt", el, seq); err != nil {
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
	if err := e.RestoreQuery("q", stmt, nil, sink, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreQuery("q", stmt, nil, sink, nil, nil); err == nil {
		t.Fatal("duplicate RestoreQuery succeeded")
	}
}
