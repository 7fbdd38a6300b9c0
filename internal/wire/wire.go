// Package wire is the binary codec shared by the TCP transport's frames
// and the recovery store's checkpoints: one framing (an 8-byte
// little-endian payload length, an 8-byte FNV-1a checksum of the
// payload, then the payload), little-endian fixed-width integers, and
// one typed encoding of relation.Value.
//
// Decoding is strict. Every count is checked against the bytes that
// remain before anything is allocated for it, so a hostile length can
// cost at most a constant factor of the input's size, and a byte the
// encoder never writes (a boolean other than 0 or 1, an unknown value
// type) is rejected, so anything that decodes re-encodes to the same
// bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/relation"
)

// HeaderSize is the fixed frame prefix: payload length + checksum.
const HeaderSize = 16

// Decoding errors.
var (
	// ErrMalformed rejects a payload the encoder could not have produced.
	ErrMalformed = errors.New("wire: malformed payload")
	// ErrTorn rejects a framed blob whose length or checksum does not
	// match its payload: a truncated, extended or bit-flipped write.
	ErrTorn = errors.New("wire: torn frame")
)

// Sum is the 64-bit FNV-1a hash of b: the frame checksum, and the
// cluster's partition hash of a value's key.
func Sum[B ~string | ~[]byte](b B) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// Open reserves a frame header at the end of buf; the payload is
// appended after it and Seal fills the header in.
func Open(buf []byte) (out []byte, start int) {
	return append(buf, make([]byte, HeaderSize)...), len(buf)
}

// Seal writes the length and checksum of the payload that follows the
// header Open reserved at start.
func Seal(buf []byte, start int) []byte {
	payload := buf[start+HeaderSize:]
	binary.LittleEndian.PutUint64(buf[start:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[start+8:], Sum(payload))
	return buf
}

// Header splits a frame header into the announced payload length and
// checksum.
func Header(h []byte) (n, sum uint64) {
	return binary.LittleEndian.Uint64(h), binary.LittleEndian.Uint64(h[8:])
}

// Check verifies a whole framed blob and returns its payload.
func Check(blob []byte) ([]byte, error) {
	if len(blob) < HeaderSize {
		return nil, ErrTorn
	}
	n, sum := Header(blob)
	payload := blob[HeaderSize:]
	if n != uint64(len(payload)) || Sum(payload) != sum {
		return nil, ErrTorn
	}
	return payload, nil
}

// AppendU32 appends a little-endian uint32 (the codec's count width).
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendI64 appends a little-endian int64.
func AppendI64(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

// AppendBool appends a boolean as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a uint32 length and the string's bytes.
func AppendString(b []byte, s string) []byte {
	return append(AppendU32(b, uint32(len(s))), s...)
}

// AppendValue appends one typed relational value: a type tag followed
// by a type-dependent payload (none for NULL).
func AppendValue(b []byte, v relation.Value) []byte {
	b = append(b, byte(v.Type))
	switch v.Type {
	case relation.TInt, relation.TTime:
		b = AppendI64(b, v.Int)
	case relation.TFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float))
	case relation.TString:
		b = AppendString(b, v.Str)
	case relation.TBool:
		b = AppendBool(b, v.Bool)
	}
	return b
}

// AppendRow appends a uint16 arity and the row's values.
func AppendRow(b []byte, row relation.Tuple) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(row)))
	for _, v := range row {
		b = AppendValue(b, v)
	}
	return b
}

// Reader decodes a payload. The first malformed or missing field sets a
// sticky error; every later read returns a zero value, so a decoder
// reads straight through and checks Err once at the end (or before an
// allocation it sizes from a count).
type Reader struct {
	b   []byte
	err error
}

// NewReader reads p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Fail records err (keeping the first one) for a decoder-level check.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.b = nil
	}
}

// take returns the next n bytes. Past the end it records the error and
// returns zero bytes for the fixed-width read (at most 8) that asked:
// String's larger reads are checked by Count first.
func (r *Reader) take(n int) []byte {
	if r.err == nil && n <= len(r.b) {
		p := r.b[:n]
		r.b = r.b[n:]
		return p
	}
	r.Fail(ErrMalformed)
	return zero[:n]
}

var zero [8]byte

// U8 reads one byte.
func (r *Reader) U8() byte { return r.take(1)[0] }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(ErrMalformed)
	return false
}

// Count reads a uint32 element count and rejects it unless that many
// elements of at least minSize encoded bytes each fit in what remains.
func (r *Reader) Count(minSize int) int {
	n := int(r.U32())
	if n*minSize > len(r.b) {
		r.Fail(ErrMalformed)
		return 0
	}
	return n
}

// String reads a uint32 length and that many bytes.
func (r *Reader) String() string {
	return string(r.take(r.Count(1)))
}

// Value reads one typed relational value.
func (r *Reader) Value() relation.Value {
	v := relation.Value{Type: relation.Type(r.U8())}
	switch v.Type {
	case relation.TNull:
	case relation.TInt, relation.TTime:
		v.Int = r.I64()
	case relation.TFloat:
		v.Float = math.Float64frombits(r.U64())
	case relation.TString:
		v.Str = r.String()
	case relation.TBool:
		v.Bool = r.Bool()
	default:
		r.Fail(ErrMalformed)
	}
	return v
}

// Row reads a uint16 arity and that many values (every value is at
// least its one-byte tag, so the arity is checked against that).
func (r *Reader) Row() relation.Tuple {
	n := int(r.U16())
	if n > len(r.b) {
		r.Fail(ErrMalformed)
	}
	if r.err != nil {
		return nil
	}
	row := make(relation.Tuple, n)
	for i := range row {
		row[i] = r.Value()
	}
	return row
}
