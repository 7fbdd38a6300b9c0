package relation

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTypeStringAndParse(t *testing.T) {
	for _, tt := range []Type{TNull, TInt, TFloat, TString, TBool, TTime} {
		parsed, err := ParseType(tt.String())
		if err != nil || parsed != tt {
			t.Errorf("round trip %v: got %v, %v", tt, parsed, err)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("unknown type accepted")
	}
	if got, _ := ParseType("varchar"); got != TString {
		t.Error("case-insensitive parse failed")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v, ok := Int(7).AsFloat(); !ok || v != 7 {
		t.Error("Int.AsFloat")
	}
	if v, ok := Float(2.5).AsInt(); !ok || v != 2 {
		t.Error("Float.AsInt truncation")
	}
	if _, ok := String_("x").AsFloat(); ok {
		t.Error("String.AsFloat should fail")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull")
	}
	if v, ok := Time(99).AsInt(); !ok || v != 99 {
		t.Error("Time.AsInt")
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Bool_(true), Int(1), Float(0.5), String_("x"), Time(1)}
	falsy := []Value{Null, Bool_(false), Int(0), Float(0), String_("")}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should be falsy", v)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":   Null,
		"42":     Int(42),
		"2.5":    Float(2.5),
		"'a''b'": String_("a'b"),
		"TRUE":   Bool_(true),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Float(2.0), 0, true},
		{Float(3.5), Int(3), 1, true},
		{Time(5), Int(5), 0, true},
		{String_("a"), String_("b"), -1, true},
		{Bool_(false), Bool_(true), -1, true},
		{Null, Int(1), -1, true},
		{Int(1), Null, 1, true},
		{Null, Null, 0, true},
		{String_("a"), Int(1), 0, false},
	}
	for i, c := range cases {
		got, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("case %d: Compare(%v,%v) = %d,%t want %d,%t", i, c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

// TestCompareNaN pins the float ordering: NaN equals NaN, equals no
// number, and sorts above every number, so Compare is a total order
// that agrees with AppendKey.
func TestCompareNaN(t *testing.T) {
	nan := Float(math.NaN())
	if Equal(nan, Float(1)) || Equal(Float(1), nan) || Equal(nan, Int(0)) {
		t.Error("NaN compares equal to a number")
	}
	if !Equal(nan, Float(math.Float64frombits(0x7ff8000000000001))) {
		t.Error("NaN payloads compare unequal")
	}
	if c, _ := Compare(nan, Float(math.Inf(1))); c != 1 {
		t.Errorf("Compare(NaN, +Inf) = %d, want 1", c)
	}
	if c, _ := Compare(Int(1), nan); c != -1 {
		t.Errorf("Compare(1, NaN) = %d, want -1", c)
	}
	vals := []Value{nan, Float(2), Int(-1), nan, Float(math.Inf(1)), Null}
	sort.SliceStable(vals, func(i, j int) bool {
		c, _ := Compare(vals[i], vals[j])
		return c < 0
	})
	want := "[NULL -1 2 +Inf NaN NaN]"
	if got := fmtValues(vals); got != want {
		t.Errorf("sorted = %s, want %s", got, want)
	}
}

// TestCompareExactAboveFloatPrecision checks integers against integers
// and floats exactly where float64 rounds (beyond 2^53 and at the ends
// of int64), against math/big, and that AppendKey gives two numbers the
// same key exactly when Equal calls them equal.
func TestCompareExactAboveFloatPrecision(t *testing.T) {
	const p = 1 << 53
	if Equal(Int(p), Int(p+1)) || Equal(Time(p+1), Int(p)) || Equal(Int(p+1), Float(p)) {
		t.Error("2^53 and 2^53+1 compare equal")
	}
	if !Equal(Int(p+2), Float(p+2)) || !Equal(Int(math.MinInt64), Float(-(1<<63))) {
		t.Error("an integral float does not equal its integer")
	}
	rng := rand.New(rand.NewSource(53))
	ints := []int64{0, 1, -1, p, p + 1, -p - 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	floats := []float64{0, math.Copysign(0, -1), 0.5, -0.5, p, p + 2, 1 << 63, -(1 << 63), math.Inf(1), math.Inf(-1), 2.5e18}
	for i := 0; i < 200; i++ {
		n := rng.Int63n(1<<60) - 1<<59
		ints = append(ints, n)
		floats = append(floats, float64(n), float64(n)+0.5, math.Nextafter(float64(n), 0))
	}
	for _, i := range ints {
		for _, f := range floats {
			want := new(big.Float).SetInt64(i).Cmp(new(big.Float).SetFloat64(f))
			if got := CompareIntFloat(i, f); got != want {
				t.Fatalf("CompareIntFloat(%d, %v) = %d, want %d", i, f, got, want)
			}
			if got, _ := Compare(Float(f), Int(i)); got != -want {
				t.Fatalf("Compare(%v, %d) = %d, want %d", f, i, got, -want)
			}
			sameKey := bytes.Equal(AppendKey(nil, Int(i)), AppendKey(nil, Float(f)))
			if sameKey != (want == 0) {
				t.Fatalf("AppendKey(%d) == AppendKey(%v) is %t, Equal is %t", i, f, sameKey, want == 0)
			}
		}
	}
}

func fmtValues(vals []Value) string {
	s := "["
	for i, v := range vals {
		if i > 0 {
			s += " "
		}
		s += v.String()
	}
	return s + "]"
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null, Null) {
		t.Error("NULL = NULL should be false in SQL semantics")
	}
	if !Equal(Int(3), Float(3)) {
		t.Error("cross-numeric equality")
	}
	if Equal(String_("1"), Int(1)) {
		t.Error("string/int equality")
	}
}

func TestArithInt(t *testing.T) {
	cases := []struct {
		op   byte
		a, b int64
		want Value
	}{
		{'+', 2, 3, Int(5)},
		{'-', 2, 3, Int(-1)},
		{'*', 4, 3, Int(12)},
		{'/', 6, 3, Int(2)},
		{'/', 7, 2, Float(3.5)},
		{'%', 7, 2, Int(1)},
	}
	for _, c := range cases {
		got, err := Arith(c.op, Int(c.a), Int(c.b))
		if err != nil || got != c.want {
			t.Errorf("Arith(%c,%d,%d) = %v, %v; want %v", c.op, c.a, c.b, got, err, c.want)
		}
	}
}

func TestArithErrorsAndNull(t *testing.T) {
	if _, err := Arith('/', Int(1), Int(0)); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := Arith('%', Float(1), Float(2)); err == nil {
		t.Error("float modulo accepted")
	}
	if _, err := Arith('+', String_("a"), Int(1)); err == nil {
		t.Error("string arithmetic accepted")
	}
	if v, err := Arith('+', Null, Int(1)); err != nil || !v.IsNull() {
		t.Error("NULL propagation failed")
	}
}

func TestArithFloatMix(t *testing.T) {
	v, err := Arith('*', Int(2), Float(1.5))
	if err != nil || v != Float(3) {
		t.Errorf("mixed arithmetic = %v, %v", v, err)
	}
}

// Property: Compare is antisymmetric over ints and consistent with Equal.
func TestComparePropertyInts(t *testing.T) {
	f := func(a, b int64) bool {
		c1, _ := Compare(Int(a), Int(b))
		c2, _ := Compare(Int(b), Int(a))
		if a == b {
			return c1 == 0 && Equal(Int(a), Int(b))
		}
		return c1 == -c2 && !Equal(Int(a), Int(b)) == (c1 != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: integer addition via Arith matches native addition (within range).
func TestArithAddProperty(t *testing.T) {
	f := func(a, b int32) bool {
		v, err := Arith('+', Int(int64(a)), Int(int64(b)))
		return err == nil && v == Int(int64(a)+int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
