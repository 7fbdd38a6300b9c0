package relation

import (
	"math/rand"
	"testing"
)

// randomLogValue draws a cell of column j: typed columns with NULLs,
// one that mixes ints and floats in runs, and one mostly NULL.
func randomLogValue(rng *rand.Rand, j int) Value {
	if rng.Intn(6) == 0 {
		return Null
	}
	switch j {
	case 0:
		return Int(rng.Int63n(9))
	case 1:
		return String_(string(rune('a' + rng.Intn(5))))
	case 2:
		if rng.Intn(25) == 0 {
			return Int(rng.Int63n(3))
		}
		return Float(float64(rng.Intn(7)) / 4)
	default:
		if rng.Intn(5) == 0 {
			return Bool_(rng.Intn(2) == 0)
		}
		return Null
	}
}

// wantColumn is the columnar model of one column's values: the element
// type Transpose must choose (the values' one type; TNull when all are
// NULL or types mix, the generic layout). It is written from the
// layout rules, not from the builder.
func wantColumn(vals []Value) Type {
	typ, mixed := TNull, false
	for _, v := range vals {
		switch {
		case v.Type == TNull:
		case typ == TNull:
			typ = v.Type
		case v.Type != typ:
			mixed = true
		}
	}
	if mixed {
		return TNull
	}
	return typ
}

// TestColLogViewMatchesTranspose checks a ColLog over random appends,
// prefix drops and views: every view holds its rows' values and has
// the element type and NULLs of the columnar model
// (wantColumn) and of a transpose of the same rows, and stays so while
// the log keeps appending, dropping and growing.
func TestColLogViewMatchesTranspose(t *testing.T) {
	type kept struct {
		cb   *ColBatch
		rows []Tuple
	}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var log ColLog
		var live []Tuple
		var views []kept
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(10); {
			case r < 6:
				row := make(Tuple, 4)
				for j := range row {
					row[j] = randomLogValue(rng, j)
				}
				log.Append(row)
				live = append(live, row)
			case r < 8 && len(live) > 0:
				k := rng.Intn(len(live) + 1)
				log.DropPrefix(k)
				live = live[k:]
			default:
				lo := rng.Intn(len(live) + 1)
				hi := lo + rng.Intn(len(live)-lo+1)
				views = append(views, kept{log.View(lo, hi), append([]Tuple(nil), live[lo:hi]...)})
			}
		}
		for i, v := range views {
			want := Transpose(v.rows)
			if v.cb.Len() != want.Len() || v.cb.Arity() != want.Arity() {
				t.Fatalf("seed %d view %d: %dx%d, transpose %dx%d", seed, i,
					v.cb.Len(), v.cb.Arity(), want.Len(), want.Arity())
			}
			for j := 0; j < want.Arity(); j++ {
				g, w := v.cb.Col(j), want.Col(j)
				vals := make([]Value, len(v.rows))
				hasNull := false
				for r, row := range v.rows {
					vals[r] = row[j]
					hasNull = hasNull || row[j].IsNull()
				}
				typ := wantColumn(vals)
				if g.ElemType() != typ || g.HasNulls() != hasNull {
					t.Fatalf("seed %d view %d column %d: %v nulls=%v, model %v nulls=%v", seed, i, j,
						g.ElemType(), g.HasNulls(), typ, hasNull)
				}
				if w.ElemType() != typ || w.HasNulls() != hasNull {
					t.Fatalf("seed %d view %d column %d: transpose %v nulls=%v, model %v nulls=%v", seed, i, j, w.ElemType(), w.HasNulls(), typ, hasNull)
				}
				for r, val := range vals {
					if g.Value(r) != val || g.IsNull(r) != val.IsNull() {
						t.Fatalf("seed %d view %d column %d row %d: %v, row %v", seed, i, j, r, g.Value(r), val)
					}
				}
			}
		}
	}
}

// TestColLogRagged checks that a row of another arity stops the log
// serving columns until it empties, then it serves them again.
func TestColLogRagged(t *testing.T) {
	var log ColLog
	log.Append(Tuple{Int(1), Int(2)})
	log.Append(Tuple{Int(3)})
	if log.View(0, 2) != nil {
		t.Fatal("ragged log served a view")
	}
	log.DropPrefix(2)
	log.Append(Tuple{Int(4)})
	cb := log.View(0, 1)
	if cb == nil || cb.Arity() != 1 || cb.Col(0).Value(0) != Int(4) {
		t.Fatalf("emptied log serves %v, want one column holding 4", cb)
	}
}
