package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// FramePrefixLen is the size of the transport's length prefix: a 4-byte
// big-endian payload length precedes every encoded message on a TCP
// stream.
const FramePrefixLen = 4

// Frame is one message's immutable on-the-wire representation: the
// transport's length prefix followed by the codec payload. Frames are
// shareable by reference — multicast fan-out builds a forward's frame once
// and hands the same Frame to every peer's send queue, the same discipline
// SharedRow applies to gossiped rows. Nothing may mutate the underlying
// bytes after NewFrame returns.
//
// A frame is one buffer, or two: a forward whose envelope is sealed is a
// small header — prefix, sender, target zone, hop count, flags, ack
// sequence and trace ID, carved from a shared slab — followed by the
// envelope's kept span, which the frame shares with the envelope. The two
// parts together are the bytes one buffer would hold.
type Frame struct {
	data []byte // the prefix and the payload, or a relayed forward's header
	span []byte // a relayed forward's envelope span; nil otherwise
}

// frameHeads is the slab relayed forwards' headers are carved from. A
// header is written once, before its frame escapes, and never again.
var frameHeads Slab[byte]

// NewFrame validates and serializes m with the sender address stamped as
// from. The source Message is read, never written — stamping the sender
// into the frame instead of into msg.From is what makes concurrent
// fan-out of one shared *Message race-free. A Multicast whose envelope is
// sealed is framed as a fresh header followed by the envelope's kept span,
// so relaying an item copies none of it.
func NewFrame(m *Message, from string) (Frame, error) {
	if err := m.Validate(); err != nil {
		return Frame{}, err
	}
	if m.Kind == KindMulticast && m.Multicast.Envelope.span != nil {
		return relayFrame(m.Multicast, from)
	}
	data, err := encodeBinary(m, from, FramePrefixLen)
	if err != nil {
		return Frame{}, err
	}
	if err := putPrefix(data, len(data)-FramePrefixLen); err != nil {
		return Frame{}, err
	}
	return Frame{data: data}, nil
}

// relayFrame frames mc as its header, written into a slab region of
// exactly its size, and its envelope's span. The header is what
// encodeBinary writes before the envelope of a Multicast.
func relayFrame(mc *Multicast, from string) (Frame, error) {
	span := mc.Envelope.span
	size := FramePrefixLen + 2 + sizeStr(from) + multicastHeadSize(mc)
	head := frameHeads.Take(size)[:FramePrefixLen]
	if err := putPrefix(head, size-FramePrefixLen+len(span)); err != nil {
		return Frame{}, err
	}
	head = appendString(append(head, codecMagic, byte(KindMulticast)), from)
	return Frame{data: appendMulticastHead(head, mc), span: span}, nil
}

// putPrefix writes the length prefix of an n-byte payload into data.
func putPrefix(data []byte, n int) error {
	if uint64(n) > uint64(^uint32(0)) {
		return fmt.Errorf("wire: frame payload %d bytes overflows length prefix", n)
	}
	binary.BigEndian.PutUint32(data[:FramePrefixLen], uint32(n))
	return nil
}

// Bytes returns the complete frame — length prefix plus payload — ready
// to be written to a stream. Callers must treat the slice as read-only. A
// two-part frame is joined into a fresh buffer; the transport writes the
// parts as they are (AppendParts).
func (f Frame) Bytes() []byte {
	if f.span == nil {
		return f.data
	}
	return slices.Concat(f.data, f.span)
}

// AppendParts appends the frame's buffers, in order, to bufs: the vector
// a writev sends.
func (f Frame) AppendParts(bufs [][]byte) [][]byte {
	bufs = append(bufs, f.data)
	if f.span != nil {
		bufs = append(bufs, f.span)
	}
	return bufs
}

// Payload returns the encoded message without the length prefix, i.e.
// exactly what Decode accepts. Read-only, like Bytes.
func (f Frame) Payload() []byte { return f.Bytes()[FramePrefixLen:] }

// Len returns the total frame size in bytes, prefix included.
func (f Frame) Len() int { return len(f.data) + len(f.span) }

// PayloadLen returns the encoded message size without the prefix.
func (f Frame) PayloadLen() int { return f.Len() - FramePrefixLen }

// IsZero reports whether f is the zero Frame (no encoded message).
func (f Frame) IsZero() bool { return f.data == nil }
