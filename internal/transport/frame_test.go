package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/wire"
)

func dataFrame(seq uint64) frame {
	return frame{
		Kind:    frameData,
		Session: 7,
		Seq:     seq,
		Msg: Msg{
			Stream: "s0",
			TS:     12345,
			Seq:    int64(seq),
			Row: relation.Tuple{
				relation.Int(42),
				relation.Time(12345),
				relation.Float(3.5),
				relation.String_("sensor-a"),
				relation.Bool_(true),
				{Type: relation.TNull},
			},
		},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		dataFrame(9),
		{Kind: frameHello, Session: 3, Node: 2},
		{Kind: frameHelloAck, Session: 3, Seq: 17},
		{Kind: frameFlush, Session: 3, Seq: 18},
		{Kind: frameAck, Session: 3, Seq: 18},
		{Kind: frameFlushAck, Session: 3, Seq: 18, Code: flushErr, Err: "window failed"},
		{Kind: frameHeartbeat, Session: 3},
		{Kind: frameHeartbeatAck, Session: 3},
	}
	for _, want := range cases {
		buf := appendFrame(nil, &want)
		got, err := readFrame(bytes.NewReader(buf), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("kind %d: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("kind %d round-trip:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
}

// TestFrameTornWrite truncates an encoded frame at every possible
// offset: a cut at a frame boundary is a clean EOF, anything else is
// an unexpected EOF — never a misdecoded frame.
func TestFrameTornWrite(t *testing.T) {
	f := dataFrame(1)
	buf := appendFrame(nil, &f)
	for cut := 0; cut < len(buf); cut++ {
		_, err := readFrame(bytes.NewReader(buf[:cut]), DefaultMaxFrame)
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut at 0: got %v, want io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestFrameChecksumCorruption flips each payload byte in turn; every
// corruption must surface as ErrChecksum, not as a decoded frame.
func TestFrameChecksumCorruption(t *testing.T) {
	f := dataFrame(2)
	buf := appendFrame(nil, &f)
	for i := wire.HeaderSize; i < len(buf); i++ {
		corrupt := append([]byte(nil), buf...)
		corrupt[i] ^= 0x40
		if _, err := readFrame(bytes.NewReader(corrupt), DefaultMaxFrame); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: got %v, want ErrChecksum", i, err)
		}
	}
}

// TestFrameMaxSizeRejected rejects an oversized announced payload
// before allocating it (a corrupt or hostile length field must not OOM
// the receiver).
func TestFrameMaxSizeRejected(t *testing.T) {
	f := dataFrame(3)
	buf := appendFrame(nil, &f)
	max := len(buf) - wire.HeaderSize - 1
	if _, err := readFrame(bytes.NewReader(buf), max); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// A huge announced length with no payload behind it must fail on the
	// length check alone.
	hdr := make([]byte, wire.HeaderSize)
	binary.LittleEndian.PutUint64(hdr, 1<<40)
	if _, err := readFrame(bytes.NewReader(hdr), DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	// At exactly the limit the frame still decodes.
	if _, err := readFrame(bytes.NewReader(buf), max+1); err != nil {
		t.Fatalf("frame at the size limit rejected: %v", err)
	}
}

func TestFrameUnknownKindRejected(t *testing.T) {
	f := frame{Kind: 99, Session: 1, Seq: 1}
	buf := appendFrame(nil, &f)
	if _, err := readFrame(bytes.NewReader(buf), DefaultMaxFrame); !errors.Is(err, errBadFrame) {
		t.Fatalf("got %v, want errBadFrame", err)
	}
}

// TestFrameStreamed reads several frames back-to-back from one reader,
// as the connection loops do.
func TestFrameStreamed(t *testing.T) {
	var buf []byte
	for seq := uint64(1); seq <= 3; seq++ {
		f := dataFrame(seq)
		buf = appendFrame(buf, &f)
	}
	r := bytes.NewReader(buf)
	for seq := uint64(1); seq <= 3; seq++ {
		f, err := readFrame(r, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != seq {
			t.Fatalf("got seq %d, want %d", f.Seq, seq)
		}
	}
	if _, err := readFrame(r, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// TestFrameGoldenBytes pins the data and control frame encodings byte
// for byte, so a change to the shared codec cannot move the wire format.
func TestFrameGoldenBytes(t *testing.T) {
	cases := []struct {
		f    frame
		want string
	}{
		{dataFrame(9), "54000000000000002ee4ea40c8f672b80307000000000000000900000000000000393000000000000009000000000000000200000073300600012a00000000000000053930000000000000020000000000000c40030800000073656e736f722d61040100"},
		{frame{Kind: frameFlushAck, Session: 3, Seq: 18, Code: flushErr, Err: "window failed"}, "23000000000000002fcd4bc3ebe090e90603000000000000001200000000000000010d00000077696e646f77206661696c6564"},
		{frame{Kind: frameHello, Session: 3, Node: 2}, "15000000000000003d4b79048d7ac775010300000000000000000000000000000002000000"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(appendFrame(nil, &c.f)); got != c.want {
			t.Errorf("kind %d frame:\n got %s\nwant %s", c.f.Kind, got, c.want)
		}
	}
}

func FuzzReadFrame(f *testing.F) {
	for _, fr := range []frame{
		dataFrame(1),
		{Kind: frameHello, Session: 3, Node: 2},
		{Kind: frameFlushAck, Session: 3, Seq: 18, Code: flushErr, Err: "window failed"},
		{Kind: frameAck, Session: 3, Seq: 18},
	} {
		f.Add(appendFrame(nil, &fr)[wire.HeaderSize:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The payload framed with a valid header reaches the decoder; the
		// raw bytes exercise the header checks.
		b, start := wire.Open(nil)
		in := wire.Seal(append(b, payload...), start)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readFrame(bytes.NewReader(in), DefaultMaxFrame)
		readFrame(bytes.NewReader(payload), DefaultMaxFrame)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(in)+16<<10); grew > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(in), grew, bound)
		}
		if err != nil {
			return
		}
		if again := appendFrame(nil, &got); !bytes.Equal(again, in) {
			t.Fatalf("decoded frame re-encodes differently:\n in %x\nout %x", in, again)
		}
	})
}
