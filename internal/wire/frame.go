package wire

import (
	"encoding/binary"
	"fmt"
)

// FramePrefixLen is the size of the transport's length prefix: a 4-byte
// big-endian payload length precedes every encoded message on a TCP
// stream.
const FramePrefixLen = 4

// Frame is one message's immutable on-the-wire representation: the
// transport's length prefix followed by the codec payload, in a single
// contiguous allocation. Frames are shareable by reference — multicast
// fan-out encodes a message once and hands the same Frame to every
// peer's send queue, the same discipline SharedRow applies to gossiped
// rows. Nothing may mutate the underlying bytes after NewFrame returns.
type Frame struct {
	data []byte
}

// NewFrame validates and serializes m with the sender address stamped as
// from. The source Message is read, never written — stamping the sender
// into the frame instead of into msg.From is what makes concurrent
// fan-out of one shared *Message race-free.
func NewFrame(m *Message, from string) (Frame, error) {
	if err := m.Validate(); err != nil {
		return Frame{}, err
	}
	data, err := encodeBinary(m, from, FramePrefixLen)
	if err != nil {
		return Frame{}, err
	}
	n := len(data) - FramePrefixLen
	if uint64(n) > uint64(^uint32(0)) {
		return Frame{}, fmt.Errorf("wire: frame payload %d bytes overflows length prefix", n)
	}
	binary.BigEndian.PutUint32(data[:FramePrefixLen], uint32(n))
	return Frame{data: data}, nil
}

// Bytes returns the complete frame — length prefix plus payload — ready
// to be written to a stream. Callers must treat the slice as read-only.
func (f Frame) Bytes() []byte { return f.data }

// Payload returns the encoded message without the length prefix, i.e.
// exactly what Decode accepts. Read-only, like Bytes.
func (f Frame) Payload() []byte { return f.data[FramePrefixLen:] }

// Len returns the total frame size in bytes, prefix included.
func (f Frame) Len() int { return len(f.data) }

// PayloadLen returns the encoded message size without the prefix.
func (f Frame) PayloadLen() int { return len(f.data) - FramePrefixLen }

// IsZero reports whether f is the zero Frame (no encoded message).
func (f Frame) IsZero() bool { return f.data == nil }
