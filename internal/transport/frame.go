// Frame codec for the TCP transport. The framing and the value
// encoding are package wire's, shared with the recovery store's
// checkpoints: an 8-byte little-endian payload length, an 8-byte FNV-1a
// checksum of the payload, then the payload. A torn write fails the
// length/payload read, a corrupt payload fails the checksum, and an
// oversized length is rejected before any allocation — all three tear
// down the connection, and the session-resume path retransmits
// whatever the peer never acknowledged.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/wire"
)

// Frame kinds. Hello/HelloAck carry the session handshake, Data and
// Flush carry the sequenced payload stream, Ack/FlushAck flow back
// from the receiver, Heartbeat/HeartbeatAck keep failure detection fed
// on idle links.
const (
	frameHello byte = iota + 1
	frameHelloAck
	frameData
	frameFlush
	frameAck
	frameFlushAck
	frameHeartbeat
	frameHeartbeatAck
)

// DefaultMaxFrame bounds one frame's payload (1 MiB); a peer
// announcing more is corrupt or hostile and the connection is cut.
const DefaultMaxFrame = 1 << 20

// Codec errors, distinguishable by errors.Is for tests and link
// accounting.
var (
	// ErrFrameTooLarge rejects a frame whose announced payload exceeds
	// the transport's maximum frame size.
	ErrFrameTooLarge = errors.New("transport: frame exceeds max size")
	// ErrChecksum rejects a frame whose payload bytes do not match the
	// header checksum (corruption on the wire).
	ErrChecksum = errors.New("transport: frame checksum mismatch")
	// errBadFrame rejects a structurally invalid payload.
	errBadFrame = wire.ErrMalformed
)

// Flush-ack result codes. Typed peer-side outcomes survive the wire
// as codes, not error text, so errors.Is keeps working across the hop.
const (
	flushOK byte = iota
	flushErr
	flushNodeDown     // the peer's node is dead (maps to ErrLinkDown)
	flushSessionReset // the peer lost the flush's fate (ErrSessionReset)
)

// frame is one decoded wire frame. Session and Seq are present on
// every kind; the remaining fields are kind-specific.
type frame struct {
	Kind    byte
	Session uint64
	Seq     uint64 // data/flush: frame seq; ack/helloAck: cumulative seq
	Node    int    // hello: target node id
	Msg     Msg    // data
	Code    byte   // flushAck: result code
	Err     string // flushAck: flush error text ("" = ok)
}

// appendFrame encodes f (header + payload) onto buf and returns the
// extended slice. The caller writes the result in one Write so a torn
// write can only truncate, never interleave.
func appendFrame(buf []byte, f *frame) []byte {
	buf, start := wire.Open(buf)
	buf = append(buf, f.Kind)
	buf = binary.LittleEndian.AppendUint64(buf, f.Session)
	buf = binary.LittleEndian.AppendUint64(buf, f.Seq)
	switch f.Kind {
	case frameHello:
		buf = wire.AppendU32(buf, uint32(f.Node))
	case frameData:
		buf = wire.AppendI64(buf, f.Msg.TS)
		buf = wire.AppendI64(buf, f.Msg.Seq)
		buf = wire.AppendString(buf, f.Msg.Stream)
		buf = wire.AppendRow(buf, f.Msg.Row)
	case frameFlushAck:
		buf = append(buf, f.Code)
		buf = wire.AppendString(buf, f.Err)
	}
	return wire.Seal(buf, start)
}

// readFrame reads and verifies one frame. Torn streams surface as
// io.ErrUnexpectedEOF (or io.EOF at a frame boundary), corruption as
// ErrChecksum, oversized announcements as ErrFrameTooLarge. The payload
// buffer grows with the bytes that actually arrive, so a corrupt length
// under the size limit costs no more memory than the stream delivers.
func readFrame(r io.Reader, maxFrame int) (frame, error) {
	var hdr [wire.HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n, sum := wire.Header(hdr[:])
	if n > uint64(maxFrame) {
		return frame{}, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	payload := make([]byte, 0, min(int(n), 4096))
	for len(payload) < int(n) {
		payload = slices.Grow(payload, min(int(n)-len(payload), len(payload)))
		end := min(cap(payload), int(n))
		if _, err := io.ReadFull(r, payload[len(payload):end]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, err
		}
		payload = payload[:end]
	}
	if wire.Sum(payload) != sum {
		return frame{}, ErrChecksum
	}
	return decodePayload(payload)
}

func decodePayload(p []byte) (frame, error) {
	r := wire.NewReader(p)
	f := frame{Kind: r.U8(), Session: r.U64(), Seq: r.U64()}
	switch f.Kind {
	case frameHello:
		f.Node = int(int32(r.U32()))
	case frameData:
		f.Msg.TS = r.I64()
		f.Msg.Seq = r.I64()
		f.Msg.Stream = r.String()
		f.Msg.Row = r.Row()
	case frameFlushAck:
		f.Code = r.U8()
		f.Err = r.String()
	case frameHelloAck, frameFlush, frameAck, frameHeartbeat, frameHeartbeatAck:
		// no extra payload
	default:
		if r.Err() == nil {
			return f, fmt.Errorf("%w: unknown kind %d", errBadFrame, f.Kind)
		}
	}
	if r.Err() != nil || r.Len() > 0 {
		return f, errBadFrame
	}
	return f, nil
}
