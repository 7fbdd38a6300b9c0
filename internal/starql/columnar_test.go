package starql

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// sameSequence compares two sequences state-by-state (nil-vs-empty
// state slices are equal; the row and columnar builders may differ in
// that representation only).
func sameSequence(a, b *Sequence) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.States {
		if a.States[i].TS != b.States[i].TS {
			return false
		}
		if !reflect.DeepEqual(a.States[i].props, b.States[i].props) {
			return false
		}
	}
	return true
}

// TestBuildColumnarMatchesBuild is the sequence-builder differential:
// the columnar build over a window batch must produce exactly the
// sequence the row build produces, for random batches, subject
// filters, NULL-bearing rows, and empty windows.
func TestBuildColumnarMatchesBuild(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	s7 := "http://siemens.com/data/sensor/7"
	rng := rand.New(rand.NewSource(31))
	randRows := func(n int) []relation.Tuple {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = row(int64(rng.Intn(4)+6), int64(rng.Intn(5))*1000, float64(rng.Intn(40)+50), int64(rng.Intn(2)))
			if rng.Intn(6) == 0 {
				rows[i][2] = relation.Null // NULL measurement value
			}
		}
		return rows
	}
	subjectsPool := []map[string]bool{nil, {s7: true}, {}}
	for trial := 0; trial < 60; trial++ {
		batch := batchOf(randRows(rng.Intn(30))...)
		if rng.Intn(2) == 0 {
			batch.Columns() // pre-materialise the shared transpose
		}
		subjects := subjectsPool[rng.Intn(len(subjectsPool))]
		want, err1 := sb.Build(batch, subjects)
		got, err2 := sb.BuildColumnar(batch, subjects)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error disagreement: row=%v columnar=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !sameSequence(want, got) {
			t.Fatalf("trial %d: sequences differ\nrow:      %+v\ncolumnar: %+v", trial, want, got)
		}
	}
}

// TestBuildColumnarErrorParity pins the timestamp-error contract: a row
// whose timestamp column is not an integer fails both builders.
func TestBuildColumnarErrorParity(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	bad := batchOf(
		row(7, 1000, 70, 0),
		relation.Tuple{relation.Int(7), relation.Null, relation.Float(70), relation.Int(0)},
	)
	if _, err := sb.Build(bad, nil); err == nil {
		t.Fatal("row build accepted a NULL timestamp")
	}
	if _, err := sb.BuildColumnar(bad, nil); err == nil {
		t.Fatal("columnar build accepted a NULL timestamp")
	}
}

// TestBuildColumnarGatheredBatch extends the differential to the
// engine boundary: the window sink feeds BuildColumns the compacted
// columns of a window result (typed vectors gathered by selection
// index), never a transposed row batch. For random windows, random
// selections (empty, partial, reordered, full) and subject filters, the
// sequence built from the gathered columns must equal Build over the
// equivalent rows. Trials vary the column layouts too: integer vs
// TTime timestamps (the typed fast path and its fallback) and a value
// column degraded to the generic layout.
func TestBuildColumnarGatheredBatch(t *testing.T) {
	set := testMappings(t)
	sb, err := NewSequenceBuilder(msmtStreamSchema(), set.set)
	if err != nil {
		t.Fatal(err)
	}
	s7 := "http://siemens.com/data/sensor/7"
	subjectsPool := []map[string]bool{nil, {s7: true}, {}}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		n := rng.Intn(30)
		intTS, generic := rng.Intn(2) == 0, rng.Intn(4) == 0
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = row(int64(rng.Intn(4)+6), int64(rng.Intn(5))*1000, float64(rng.Intn(40)+50), int64(rng.Intn(2)))
			if intTS {
				rows[i][1] = relation.Int(rows[i][1].Int)
			}
			switch {
			case rng.Intn(6) == 0:
				rows[i][2] = relation.Null
			case generic && rng.Intn(2) == 0:
				rows[i][2] = relation.Int(int64(rng.Intn(40) + 50))
			}
		}
		var idxs []int
		switch rng.Intn(4) {
		case 0: // zero selection
		case 1: // full selection
			for i := range rows {
				idxs = append(idxs, i)
			}
		default: // partial, in arbitrary order
			for _, i := range rng.Perm(n) {
				if rng.Intn(2) == 0 {
					idxs = append(idxs, i)
				}
			}
		}
		src := relation.Transpose(rows)
		cols := make([]*relation.Vector, src.Arity())
		for j := range cols {
			cols[j] = src.Col(j).Gather(idxs)
		}
		gathered := relation.NewColBatch(cols, len(idxs))
		picked := make([]relation.Tuple, len(idxs))
		for k, i := range idxs {
			picked[k] = rows[i]
		}
		subjects := subjectsPool[rng.Intn(len(subjectsPool))]
		want, err1 := sb.Build(batchOf(picked...), subjects)
		got, err2 := sb.BuildColumns(gathered, subjects)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error disagreement: row=%v columns=%v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !sameSequence(want, got) {
			t.Fatalf("trial %d: sequences differ\nrow:     %+v\ncolumns: %+v", trial, want, got)
		}
	}
}
