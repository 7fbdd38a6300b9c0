package relation

import (
	"math/rand"
	"testing"
)

func TestVectorBuilderRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		vals []Value
		typ  Type
	}{
		{"typed ints", []Value{Int(1), Int(2), Int(3)}, TInt},
		{"leading nulls backfilled", []Value{Null, Null, Float(1.5), Float(2.5)}, TFloat},
		{"interior null", []Value{String_("a"), Null, String_("b")}, TString},
		{"bools", []Value{Bool_(true), Bool_(false)}, TBool},
		{"times", []Value{Time(100), Time(200)}, TTime},
		{"all null", []Value{Null, Null, Null}, TNull},
		{"mixed degrades to generic", []Value{Int(1), String_("x"), Int(2)}, TNull},
		{"empty", nil, TNull},
	}
	for _, c := range cases {
		b := NewVectorBuilder(len(c.vals))
		for _, v := range c.vals {
			b.Append(v)
		}
		vec := b.Build()
		if vec.Len() != len(c.vals) {
			t.Errorf("%s: Len = %d, want %d", c.name, vec.Len(), len(c.vals))
		}
		if vec.ElemType() != c.typ {
			t.Errorf("%s: ElemType = %v, want %v", c.name, vec.ElemType(), c.typ)
		}
		for i, want := range c.vals {
			if got := vec.Value(i); got != want {
				t.Errorf("%s[%d]: Value = %v, want %v", c.name, i, got, want)
			}
			if vec.IsNull(i) != want.IsNull() {
				t.Errorf("%s[%d]: IsNull = %v", c.name, i, vec.IsNull(i))
			}
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n, arity := rng.Intn(20), 1+rng.Intn(4)
		rows := make([]Tuple, n)
		for i := range rows {
			row := make(Tuple, arity)
			for j := range row {
				switch rng.Intn(5) {
				case 0:
					row[j] = Null
				case 1:
					row[j] = Int(int64(rng.Intn(9)))
				case 2:
					row[j] = Float(float64(rng.Intn(9)))
				case 3:
					row[j] = String_("s")
				default:
					row[j] = Bool_(rng.Intn(2) == 0)
				}
			}
			rows[i] = row
		}
		cb := Transpose(rows)
		if cb.Len() != n {
			t.Fatalf("trial %d: Len = %d, want %d", trial, cb.Len(), n)
		}
		back := cb.Rows()
		for i := range rows {
			for j := range rows[i] {
				if back[i][j] != rows[i][j] {
					t.Fatalf("trial %d: round trip [%d][%d] = %v, want %v",
						trial, i, j, back[i][j], rows[i][j])
				}
			}
		}
	}
	if Transpose(nil).Arity() != 0 {
		t.Error("empty transpose has columns")
	}
}

func TestBitmapOps(t *testing.T) {
	b := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d", b.Count())
	}
	b.Clear(63)
	if b.Get(63) || !b.Get(64) {
		t.Error("Clear/Get wrong")
	}
	var got []int
	for i := b.Next(0); i >= 0; i = b.Next(i + 1) {
		got = append(got, i)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Errorf("Next iteration = %v", got)
	}
	cl := b.Clone()
	cl.Set(1)
	if b.Get(1) {
		t.Error("Clone aliases the original")
	}
	b.SetAll()
	if b.Count() != 130 {
		t.Errorf("SetAll Count = %d", b.Count())
	}
}

func TestBitmapReset(t *testing.T) {
	var nilB *Bitmap
	r := nilB.Reset(10)
	if r == nil || r.Len() != 10 || r.Count() != 0 {
		t.Fatal("nil Reset did not allocate")
	}
	r.Set(3)
	r2 := r.Reset(8) // fits in the same word backing
	if r2 != r {
		t.Error("Reset did not reuse the backing")
	}
	if r2.Len() != 8 || r2.Count() != 0 {
		t.Errorf("Reset left stale bits: len=%d count=%d", r2.Len(), r2.Count())
	}
	r3 := r2.Reset(1000) // outgrows the backing
	if r3 == r2 {
		t.Error("Reset reused a too-small backing")
	}
	if r3.Len() != 1000 || r3.Count() != 0 {
		t.Errorf("grown Reset: len=%d count=%d", r3.Len(), r3.Count())
	}
}

func TestConstAndResetBoolVectors(t *testing.T) {
	cv := NewConstVector(Bool_(true), 4)
	if cv.ElemType() != TBool || cv.Len() != 4 || !cv.Bools()[3] {
		t.Errorf("const bool vector = %v len %d", cv.ElemType(), cv.Len())
	}
	nv := NewConstVector(Null, 3)
	if !nv.IsNull(0) || !nv.IsNull(2) {
		t.Error("const null vector not null")
	}

	var v Vector
	got := v.ResetBool([]bool{true, false}, nil)
	if got != &v || got.ElemType() != TBool || got.Len() != 2 || got.IsNull(0) {
		t.Errorf("ResetBool = %v", got)
	}
	nulls := NewBitmap(1)
	nulls.Set(0)
	got = v.ResetBool([]bool{false}, nulls)
	if got.Len() != 1 || !got.IsNull(0) {
		t.Error("ResetBool dropped the null bitmap")
	}
}

// buildVector appends vals through a VectorBuilder.
func buildVector(vals []Value) *Vector {
	b := NewVectorBuilder(len(vals))
	for _, v := range vals {
		b.Append(v)
	}
	return b.Build()
}

// TestVectorGatherAndClone pins the compaction helpers the engine hands
// window results out through: for every element layout (each typed
// backing, TTime, generic, all-NULL) with and without NULLs, Gather
// returns exactly the indexed elements in index order — repeats and
// reordering included — keeps the layout, and nil or empty index lists
// give an empty vector; Clone equals Gather over every index. Neither
// result shares a backing with its source.
func TestVectorGatherAndClone(t *testing.T) {
	cases := []struct {
		name string
		vals []Value
	}{
		{"ints", []Value{Int(4), Int(5), Int(6), Int(7)}},
		{"ints with nulls", []Value{Int(4), Null, Int(6), Null}},
		{"times", []Value{Time(100), Null, Time(300), Time(400)}},
		{"floats", []Value{Float(0.5), Float(1.5), Null, Float(3.5)}},
		{"strings", []Value{String_("a"), Null, String_(""), String_("d")}},
		{"bools", []Value{Bool_(true), Bool_(false), Null, Bool_(true)}},
		{"generic", []Value{Int(1), String_("x"), Null, Float(2)}},
		{"all null", []Value{Null, Null, Null, Null}},
	}
	idxLists := [][]int{nil, {}, {0, 1, 2, 3}, {2}, {3, 1}, {1, 1, 0}}
	for _, c := range cases {
		src := buildVector(c.vals)
		for _, idxs := range idxLists {
			g := src.Gather(idxs)
			if g.Len() != len(idxs) {
				t.Fatalf("%s Gather(%v): Len = %d", c.name, idxs, g.Len())
			}
			if len(idxs) > 0 && g.ElemType() != src.ElemType() {
				t.Errorf("%s Gather(%v): ElemType = %v, want %v", c.name, idxs, g.ElemType(), src.ElemType())
			}
			nulls := 0
			for k, i := range idxs {
				if got := g.Value(k); got != c.vals[i] {
					t.Errorf("%s Gather(%v)[%d] = %v, want %v", c.name, idxs, k, got, c.vals[i])
				}
				if g.IsNull(k) {
					nulls++
				}
			}
			if g.HasNulls() != (nulls > 0) {
				t.Errorf("%s Gather(%v): HasNulls = %v with %d NULLs", c.name, idxs, g.HasNulls(), nulls)
			}
		}
		cl := src.Clone()
		if cl.Len() != src.Len() || cl.ElemType() != src.ElemType() || cl.HasNulls() != src.HasNulls() {
			t.Fatalf("%s Clone: len/type/nulls = %d/%v/%v, want %d/%v/%v", c.name,
				cl.Len(), cl.ElemType(), cl.HasNulls(), src.Len(), src.ElemType(), src.HasNulls())
		}
		for i, want := range c.vals {
			if got := cl.Value(i); got != want {
				t.Errorf("%s Clone[%d] = %v, want %v", c.name, i, got, want)
			}
		}
	}

	// Independence: overwriting the source's backing and null bitmap
	// (as a kernel reusing its scratch does) leaves the copies intact.
	vals := []bool{true, false, true}
	nb := NewBitmap(3)
	nb.Set(1)
	var scratch Vector
	src := scratch.ResetBool(vals, nb)
	g, cl := src.Gather([]int{2, 1}), src.Clone()
	vals[2] = false
	nb.Clear(1)
	if g.Value(0) != Bool_(true) || !g.IsNull(1) {
		t.Errorf("Gather shares the source backing: %v %v", g.Value(0), g.Value(1))
	}
	if cl.Value(2) != Bool_(true) || !cl.IsNull(1) {
		t.Errorf("Clone shares the source backing: %v %v", cl.Value(2), cl.Value(1))
	}
}
