// Package relation provides the relational data model underneath
// ExaStream: typed values, schemas, tuples, in-memory tables with hash
// indexes, and a catalog. It corresponds to the storage layer of the
// SQLite-based engine the paper extends.
package relation

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the column types supported by the engine.
type Type uint8

const (
	// TNull is the type of the SQL NULL value.
	TNull Type = iota
	// TInt is a 64-bit signed integer.
	TInt
	// TFloat is a 64-bit IEEE float.
	TFloat
	// TString is a UTF-8 string.
	TString
	// TBool is a boolean.
	TBool
	// TTime is a timestamp in milliseconds since the epoch; the stream
	// layer uses it for window arithmetic.
	TTime
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "INTEGER"
	case TFloat:
		return "REAL"
	case TString:
		return "TEXT"
	case TBool:
		return "BOOLEAN"
	case TTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType converts a SQL type name to a Type.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "NULL":
		return TNull, nil
	case "INT", "INTEGER", "BIGINT":
		return TInt, nil
	case "REAL", "FLOAT", "DOUBLE":
		return TFloat, nil
	case "TEXT", "VARCHAR", "STRING", "CHAR":
		return TString, nil
	case "BOOL", "BOOLEAN":
		return TBool, nil
	case "TIMESTAMP", "TIME", "DATETIME":
		return TTime, nil
	default:
		return TNull, fmt.Errorf("relation: unknown type %q", s)
	}
}

// Value is a single typed SQL value. Hash structures that implement SQL
// `=` key on AppendKey, not on Value itself: Go's == on Values tells 1
// from 1.0 and NaN from NaN.
type Value struct {
	Type  Type
	Int   int64 // also holds TTime milliseconds
	Float float64
	Str   string
	Bool  bool
}

// Null is the SQL NULL value.
var Null = Value{Type: TNull}

// Int returns an integer value.
func Int(v int64) Value { return Value{Type: TInt, Int: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{Type: TFloat, Float: v} }

// String_ returns a string value. The underscore avoids colliding with the
// fmt.Stringer method on Value.
func String_(v string) Value { return Value{Type: TString, Str: v} }

// Bool_ returns a boolean value.
func Bool_(v bool) Value { return Value{Type: TBool, Bool: v} }

// Time returns a timestamp value (milliseconds since epoch).
func Time(ms int64) Value { return Value{Type: TTime, Int: ms} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Type == TNull }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Type {
	case TInt, TTime:
		return float64(v.Int), true
	case TFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// AsInt converts numeric values to int64, truncating floats.
func (v Value) AsInt() (int64, bool) {
	switch v.Type {
	case TInt, TTime:
		return v.Int, true
	case TFloat:
		return int64(v.Float), true
	default:
		return 0, false
	}
}

// Truthy reports whether the value counts as true in a WHERE context.
// NULL is not truthy.
func (v Value) Truthy() bool {
	switch v.Type {
	case TBool:
		return v.Bool
	case TInt, TTime:
		return v.Int != 0
	case TFloat:
		return v.Float != 0
	case TString:
		return v.Str != ""
	default:
		return false
	}
}

// String renders the value in SQL literal syntax.
func (v Value) String() string {
	switch v.Type {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.Int, 10)
	case TFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case TString:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	case TBool:
		return strings.ToUpper(strconv.FormatBool(v.Bool))
	case TTime:
		return fmt.Sprintf("TIMESTAMP %d", v.Int)
	default:
		return fmt.Sprintf("Value(%d)", v.Type)
	}
}

// numeric reports whether the type participates in arithmetic.
func (t Type) numeric() bool { return t == TInt || t == TFloat || t == TTime }

// CompareFloat is the one float ordering behind Compare and the
// vectorized comparison kernels: the usual order on numbers (-0 equals
// +0), with NaN equal to NaN and above every number. It is a total
// order, so sorting, filtering and hashing agree on NaN.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a == a: // b is NaN
		return -1
	case b == b: // a is NaN
		return 1
	default:
		return 0
	}
}

// CompareIntFloat orders an integer against a float exactly, without
// rounding the integer to a float64: 2^53+1 is above 2^53 as a REAL.
// NaN is above every number, as in CompareFloat.
func CompareIntFloat(i int64, f float64) int {
	t, r := IntPivot(f)
	if c := cmp.Compare(i, t); c != 0 {
		return c
	}
	return r
}

// IntPivot reduces a float to an integer comparison: for every int64 i,
// CompareIntFloat(i, f) is cmp.Compare(i, t), or r where that is 0. A
// column of integers compares against a REAL constant with one integer
// comparison per row.
func IntPivot(f float64) (t int64, r int) {
	switch {
	case f != f, f >= 1<<63:
		return math.MaxInt64, -1
	case f < -(1 << 63):
		return math.MinInt64, 1
	}
	tf := math.Trunc(f) // in int64 range, so the conversion is exact
	return int64(tf), CompareFloat(tf, f)
}

// Compare orders two values. NULL sorts before everything; numeric types
// compare by exact value across int/float/time (two integers as int64,
// an integer and a float by CompareIntFloat, two floats by
// CompareFloat); otherwise values must share a type. The second result
// is false for incomparable values.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, true
		case a.IsNull():
			return -1, true
		default:
			return 1, true
		}
	}
	if a.Type.numeric() && b.Type.numeric() {
		switch {
		case a.Type != TFloat && b.Type != TFloat:
			return cmp.Compare(a.Int, b.Int), true
		case a.Type != TFloat:
			return CompareIntFloat(a.Int, b.Float), true
		case b.Type != TFloat:
			return -CompareIntFloat(b.Int, a.Float), true
		}
		return CompareFloat(a.Float, b.Float), true
	}
	if a.Type != b.Type {
		return 0, false
	}
	switch a.Type {
	case TString:
		return strings.Compare(a.Str, b.Str), true
	case TBool:
		switch {
		case a.Bool == b.Bool:
			return 0, true
		case !a.Bool:
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

// Equal reports whether two values are equal under SQL comparison
// semantics (NULL equals nothing, numeric cross-type equality allowed).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Equality-key type tags (see AppendKey).
const (
	keyNull byte = iota + 1
	keyNumeric
	keyString
	keyFalse
	keyTrue
	keyBigInt
)

// AppendKey appends v's equality key to buf and returns the extended
// buffer. It is the one encoding behind every hash structure that
// implements SQL `=` (table indexes, hash joins, GROUP BY, DISTINCT,
// COUNT(DISTINCT), partition routing, NDV counts): two non-NULL values
// get the same key exactly when Equal calls them equal. A number that
// is an integer of magnitude above 2^53 within int64 range (INTEGER,
// TIMESTAMP, or a REAL, which is integral there) is keyed by its int64
// value; every other number (INTEGER, REAL, TIMESTAMP) by its float64
// bits, exact for such integers, with -0 folded to +0 and every NaN
// folded to one NaN. So 1 and 1.0 share a key, and 2^53 and 2^53+1 do
// not.
// Strings are length-prefixed, so keys concatenate into an unambiguous
// multi-column key whatever bytes a string holds. Each kind carries its
// own tag, so incomparable values never share a key. NULL has a tag of
// its own, which groups NULLs together for GROUP BY and DISTINCT; joins
// and lookups, where NULL equals nothing, skip NULLs before encoding.
func AppendKey(buf []byte, v Value) []byte {
	switch v.Type {
	case TNull:
		return append(buf, keyNull)
	case TString:
		buf = append(buf, keyString)
		buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
		return append(buf, v.Str...)
	case TBool:
		if v.Bool {
			return append(buf, keyTrue)
		}
		return append(buf, keyFalse)
	}
	x, _ := v.AsFloat()
	switch {
	case v.Type != TFloat && (v.Int > 1<<53 || v.Int < -(1<<53)):
		return binary.LittleEndian.AppendUint64(append(buf, keyBigInt), uint64(v.Int))
	case v.Type == TFloat && math.Abs(x) > 1<<53 && x >= -(1<<63) && x < 1<<63:
		return binary.LittleEndian.AppendUint64(append(buf, keyBigInt), uint64(int64(x)))
	case x == 0:
		x = 0 // -0 equals +0
	case x != x:
		x = math.NaN()
	}
	buf = append(buf, keyNumeric)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
}

// Arith applies a binary arithmetic operator (+ - * / %) to two values,
// following SQL NULL propagation. Integer operands yield integers except
// for division by a non-divisor, which yields a float.
func Arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.Type.numeric() || !b.Type.numeric() {
		return Null, fmt.Errorf("relation: %s %c %s: non-numeric operand", a, op, b)
	}
	if a.Type == TInt && b.Type == TInt {
		x, y := a.Int, b.Int
		switch op {
		case '+':
			return Int(x + y), nil
		case '-':
			return Int(x - y), nil
		case '*':
			return Int(x * y), nil
		case '/':
			if y == 0 {
				return Null, fmt.Errorf("relation: division by zero")
			}
			if x%y == 0 {
				return Int(x / y), nil
			}
			return Float(float64(x) / float64(y)), nil
		case '%':
			if y == 0 {
				return Null, fmt.Errorf("relation: modulo by zero")
			}
			return Int(x % y), nil
		}
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case '+':
		return Float(x + y), nil
	case '-':
		return Float(x - y), nil
	case '*':
		return Float(x * y), nil
	case '/':
		if y == 0 {
			return Null, fmt.Errorf("relation: division by zero")
		}
		return Float(x / y), nil
	case '%':
		return Null, fmt.Errorf("relation: modulo on floats")
	}
	return Null, fmt.Errorf("relation: unknown operator %c", op)
}
