package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strconv"
	"testing"
	"time"
)

// gobStreamHead is how every frame of the retired encoding/gob codec began:
// the stream's first segment, describing the Message type. Decode rejects
// it on its first byte.
const gobStreamHead = "\xff\xb8\x7f\x03\x01\x01\aMessage\x01\xff\x80\x00\x01\v\x01\x04Kind\x01\x06\x00\x01\x04From\x01\f\x00" +
	"\x01\x06Gossip\x01\xff\x82\x00\x01\vGossipReply\x01\xff\x8e\x00\x01\fGossipDigest\x01\xff\x90\x00" +
	"\x01\vGossipDelta\x01\xff\x96\x00\x01\tMulticast\x01\xff\x9c\x00\x01\fMulticastAck\x01\xff\xa4\x00" +
	"\x01\fStateRequest\x01\xff\xa6\x00\x01\nStateReply\x01\xff\xaa\x00\x01\tClockSync\x01\xff\xae\x00\x00\x00"

// fuzzSeeds returns one encoded frame per message kind, frames of the
// retired kinds 1 and 2, and a frame that does not start with the codec
// magic, so both fuzz targets start from every decoder path and from the
// rejection paths.
func fuzzSeeds(t interface{ Fatal(...any) }) [][]byte {
	msgs := []*Message{
		sampleGossipMessage(),
		sampleDigestMessage(),
		sampleDeltaMessage(),
		sampleStampedDeltaMessage(),
		sampleSectionDeltaMessage(),
		{
			Kind:      KindClockPing,
			From:      "n1:9000",
			ClockSync: &ClockSync{Seq: 3, T1: 1017619200123456789},
		},
		{
			Kind:      KindClockPong,
			From:      "n2:9000",
			ClockSync: &ClockSync{Seq: 3, T1: 1017619200123456789, T2: 1017619200123459999},
		},
		{
			Kind: KindGossipDelta,
			From: "n2:9000",
			GossipDelta: &GossipDelta{
				FromZone: "/usa/ny",
				Rows:     sampleGossipMessage().GossipDelta.Rows,
				Stamps:   sampleStampedDeltaMessage().GossipDelta.Stamps,
			},
		},
		{
			Kind: KindMulticast,
			From: "rep-1:9000",
			Multicast: &Multicast{
				TargetZone: "/asia",
				Hops:       2,
				Deliver:    true,
				AckSeq:     7,
				Envelope: ItemEnvelope{
					Publisher:   "reuters",
					ItemID:      "item-42",
					Revision:    1,
					Subjects:    []string{"world/asia"},
					SubjectBits: []uint32{17, 403},
					ScopeZone:   "/asia",
					Predicate:   "premium",
					Published:   time.Unix(1017619300, 0).UTC(),
					Payload:     []byte("<nitf/>"),
					Signer:      "reuters",
					Sig:         []byte{9, 9},
				},
			},
		},
		// An envelope whose payload and signature are empty: the decoder's
		// views past the subjects are all of zero length.
		{
			Kind: KindMulticast,
			From: "rep-1:9000",
			Multicast: &Multicast{
				TargetZone: "/",
				Envelope:   ItemEnvelope{Publisher: "ap", ItemID: "it-0", Subjects: []string{"tech"}},
			},
		},
		{
			Kind:         KindMulticastAck,
			From:         "leaf-3:9000",
			MulticastAck: &MulticastAck{Seq: 7, Key: "reuters/item-42#1", TargetZone: "/asia"},
		},
		{
			Kind: KindStateRequest,
			From: "n9:9000",
			StateRequest: &StateRequest{
				Since:    time.Unix(1017619200, 0).UTC(),
				Subjects: []string{"tech/linux", "world"},
				MaxItems: 64,
			},
		},
		// Summaries the decoder must pass through as sent and the responder
		// must survive: out of order, and with repeats.
		{
			Kind:         KindStateRequest,
			From:         "n9:9000",
			StateRequest: &StateRequest{MaxItems: 256, Salt: 0xfeedface, Have: []uint64{9, 3, 1 << 63, 1}},
		},
		{
			Kind:         KindStateRequest,
			From:         "n9:9000",
			StateRequest: &StateRequest{Subjects: []string{"world"}, Salt: 7, Have: []uint64{4, 4, 4, 8, 8}},
		},
		{
			Kind: KindStateReply,
			From: "n2:9000",
			StateReply: &StateReply{
				Envelopes: []ItemEnvelope{{
					Publisher: "ap",
					ItemID:    "it-1",
					Subjects:  []string{"tech"},
					Published: time.Unix(1017619200, 0).UTC(),
					Payload:   bytes.Repeat([]byte{0, 0, 0, 1}, 8),
				}},
				Truncated: true,
			},
		},
	}
	var seeds [][]byte
	for _, m := range msgs {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	// Hand-built delta frames for the string table, which the encoder
	// never emits in these shapes: one that repeats a name, and one with
	// more distinct names than value's intern table holds (1<<14), so the
	// decoder crosses from interned hits to first sightings to the
	// pass-through beyond the cap.
	tableFrame := func(names []string) []byte {
		b := []byte{codecMagic, byte(KindGossipDelta), 2, 'n', '1'}
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, s := range names {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		return append(b, 0, 0, 0) // FromZone = entry 0, no rows, no wants
	}
	seeds = append(seeds, tableFrame([]string{"/usa/ny", "subs", "/usa/ny", "subs", ""}))
	capNames := make([]string, 1<<14+2)
	for i := range capNames {
		capNames[i] = "fz" + strconv.Itoa(i)
	}
	seeds = append(seeds, tableFrame(capNames))
	// A summary whose count runs past the input.
	seeds = append(seeds, overlongSummaryFrame())
	for _, frames := range [][]namedFrame{hostileSectionFrames(), oddSectionFrames(), hostileEnvelopeFrames(t), hostileRowFrames(t), sealedEnvelopeFrames(t)} {
		for _, frame := range frames {
			seeds = append(seeds, frame.data)
		}
	}
	for _, h := range retiredGossipFrames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	return append(seeds, []byte(gobStreamHead))
}

type namedFrame struct {
	name string
	data []byte
}

// sectionFrame is a digest of one section built by hand: head, hash 7,
// newest 1000 s, then whatever rows writes.
func sectionFrame(head uint64, rows func(b []byte) []byte) []byte {
	b := []byte{codecMagic, byte(KindGossipDigest), 2, 'n', '1', 2, '/', 'z'}
	b = append(b, 1) // one section
	b = binary.AppendUvarint(b, head)
	b = binary.LittleEndian.AppendUint64(b, 7)
	b = appendTime(b, time.Unix(1000, 0))
	return rows(b)
}

// stampFrame is a rowless delta with one stamped zone built by hand.
func stampFrame(depth uint64, stamps func(b []byte) []byte) []byte {
	b := []byte{codecMagic, byte(KindGossipDelta), 2, 'n', '1', 1, 2, '/', 'z', 0, 0, 0}
	b = append(b, 1) // one stamped zone
	b = binary.AppendUvarint(b, depth)
	b = binary.LittleEndian.AppendUint64(b, 7)
	b = appendTime(b, time.Unix(1000, 0))
	return stamps(b)
}

func namedRow(b []byte, lag uint64, name string) []byte {
	b = binary.AppendUvarint(b, lag)
	b = appendString(b, name)
	return binary.LittleEndian.AppendUint64(b, 9)
}

// hostileSectionFrames are sections and stamps no encoder writes and the
// decoder must refuse.
func hostileSectionFrames() []namedFrame {
	return []namedFrame{
		{"row count larger than the bytes left", sectionFrame(2, func(b []byte) []byte {
			b = binary.AppendUvarint(b, 1<<30)
			return append(b, 0, 0, 0)
		})},
		{"lag beyond any duration", sectionFrame(2, func(b []byte) []byte {
			return binary.AppendUvarint(append(b, 1), 1<<63)
		})},
		{"duplicate names in a named section", sectionFrame(3, func(b []byte) []byte {
			return namedRow(namedRow(append(b, 2), 0, "node-1"), 5, "node-1")
		})},
		{"names out of order", sectionFrame(3, func(b []byte) []byte {
			return namedRow(namedRow(append(b, 2), 0, "node-2"), 5, "node-1")
		})},
		{"named section without rows", sectionFrame(3, func(b []byte) []byte {
			return append(b, 0)
		})},
		{"stamp position beyond 32 bits", stampFrame(1, func(b []byte) []byte {
			return append(binary.AppendUvarint(append(b, 1), 1<<32), 0)
		})},
		{"zone depth beyond 31 bits", stampFrame(1<<31, func(b []byte) []byte {
			return append(b, 0)
		})},
	}
}

// hostileEnvelopeFrames are envelopes cut short, which the decoder must
// refuse without copying past the frame: a Multicast whose payload length
// runs past the frame, and a StateReply whose second envelope stops
// halfway.
func hostileEnvelopeFrames(t interface{ Fatal(...any) }) []namedFrame {
	env := func(id string) ItemEnvelope {
		return ItemEnvelope{Publisher: "ap", ItemID: id, Subjects: []string{"tech"}, Payload: bytes.Repeat([]byte{'x'}, 32)}
	}
	mc, err := Encode(&Message{Kind: KindMulticast, From: "n1", Multicast: &Multicast{TargetZone: "/", Envelope: env("it-1")}})
	if err != nil {
		t.Fatal(err)
	}
	second := env("it-2")
	reply, err := Encode(&Message{Kind: KindStateReply, From: "n2", StateReply: &StateReply{
		Envelopes: []ItemEnvelope{env("it-1"), second},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return []namedFrame{
		// Signer, signature and 8 payload bytes gone: the length claims 32.
		{"multicast payload overruns the frame", mc[:len(mc)-10]},
		{"state reply with its second envelope truncated", reply[:len(reply)-1-envelopeSize(&second)/2]},
	}
}

// sealedEnvelopeFrames are forwards as a relay sends them — a header in
// front of a kept span — and one the decoder must refuse:
//   - a publisher's sealed envelope, framed;
//   - a decoded envelope relayed behind another header, with more subjects
//     and bits than a forward's block holds inline;
//   - a span with an overlong varint, which decodes and is relayed as it
//     came, though a re-encode would be shorter;
//   - a size bomb: a sealed span whose declared payload length runs past
//     the frame.
func sealedEnvelopeFrames(t interface{ Fatal(...any) }) []namedFrame {
	frame := func(mc *Multicast) []byte {
		f, err := NewFrame(&Message{Kind: KindMulticast, Multicast: mc}, "relay:1")
		if err != nil {
			t.Fatal(err)
		}
		return f.Payload()
	}
	env := ItemEnvelope{
		Publisher: "ap", ItemID: "it-7", Revision: 2,
		Subjects:    []string{"tech", "world", "sport"},
		SubjectBits: []uint32{1, 2, 3, 4, 5, 1 << 20},
		ScopeZone:   "/", Urgency: 2,
		Published: time.Unix(1017619200, 5).UTC(),
		Payload:   bytes.Repeat([]byte("y"), 40),
		Signer:    "ap", Sig: []byte{4, 5, 6},
	}
	env.Seal()
	sealed := frame(&Multicast{TargetZone: "/", Hops: 1, AckSeq: 9, TraceID: 77, Envelope: env})
	got, err := Decode(sealed)
	if err != nil {
		t.Fatal(err)
	}
	relayed := frame(&Multicast{TargetZone: "/eu", Hops: 2, Deliver: true, Envelope: got.Multicast.Envelope})

	// The span's revision (2) as a two-byte varint.
	head := sealed[:len(sealed)-len(env.span)]
	span := env.span[:0:0]
	span = appendString(span, env.Publisher)
	span = appendString(span, env.ItemID)
	span = append(span, 0x84, 0x00)
	overlong := append(append(bytes.Clone(head), span...), env.span[len(span)-1:]...)

	bomb := append([]byte(nil), head...)
	bomb = appendString(bomb, "ap")
	bomb = appendString(bomb, "it-8")
	bomb = append(bomb, 2, 0, 0)                      // revision, no subjects, no bits
	bomb = append(bomb, 0, 0, 0)                      // scope, predicate, urgency
	bomb = appendTime(bomb, time.Unix(1017619200, 0)) // published
	bomb = binary.AppendUvarint(bomb, 1<<31)          // payload length
	bomb = append(bomb, bytes.Repeat([]byte("z"), 8)...)
	return []namedFrame{
		{"sealed envelope", sealed},
		{"relayed decoded envelope", relayed},
		{"overlong revision varint", overlong},
		{"size bomb", bomb},
	}
}

// TestSealedEnvelopeFrames decodes the sealed seeds: the size bomb is
// refused; the others decode, and the overlong span keeps its bytes.
func TestSealedEnvelopeFrames(t *testing.T) {
	for _, f := range sealedEnvelopeFrames(t) {
		m, err := Decode(f.data)
		if f.name == "size bomb" {
			if err == nil {
				t.Errorf("%s: decoded", f.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		env := &m.Multicast.Envelope
		if env.Key() != "ap/it-7#2" || len(env.Subjects) != 3 || len(env.SubjectBits) != 6 {
			t.Errorf("%s: decoded %q with %d subjects and %d bits", f.name, env.Key(), len(env.Subjects), len(env.SubjectBits))
		}
		if !bytes.HasSuffix(f.data, env.span) {
			t.Errorf("%s: the kept span is not the frame's envelope bytes", f.name)
		}
	}
}

// oddSectionFrames decode, and it is the agent that must make nothing of
// them: a stamp older than the epoch, a position past any table, a zone
// nobody replicates.
func oddSectionFrames() []namedFrame {
	return []namedFrame{
		{"lag larger than newest", sectionFrame(2, func(b []byte) []byte {
			return binary.AppendUvarint(append(b, 1), uint64(5000*time.Second))
		})},
		{"stamp position out of range", stampFrame(1, func(b []byte) []byte {
			return append(binary.AppendUvarint(append(b, 1), 1<<20), 0)
		})},
		{"hash echo for a zone forty levels down", stampFrame(40, func(b []byte) []byte {
			return append(b, 1, 0, 0)
		})},
	}
}

// FuzzDecode feeds arbitrary bytes to Decode: it must never panic, never
// allocate absurdly, and anything it accepts must re-encode cleanly.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{codecMagic})
	f.Add([]byte{codecMagic, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		m, err := Decode(data)
		if err != nil {
			return
		}
		if _, err := Encode(m); err != nil {
			t.Fatalf("decoded message fails to re-encode: %v", err)
		}
	})
}

// FuzzRelay checks the relay path on every Multicast Decode accepts: framed
// again as a forwarder frames it — a fresh header in front of the
// envelope's kept span — it decodes to the same envelope under the new
// header, and when the input was canonical the relayed bytes equal a
// re-encode from the fields.
func FuzzRelay(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		m, err := Decode(data)
		if err != nil || m.Kind != KindMulticast {
			return
		}
		in := m.Multicast
		out := Multicast{TargetZone: "/relay", Hops: in.Hops + 1, Deliver: !in.Deliver,
			AckSeq: in.AckSeq + 1, TraceID: in.TraceID, Envelope: in.Envelope}
		fr, err := NewFrame(&Message{Kind: KindMulticast, Multicast: &out}, "relay:1")
		if err != nil {
			t.Fatalf("relay frame: %v", err)
		}
		if fr.span == nil {
			t.Fatal("a decoded envelope was framed without its kept span")
		}
		if size := binary.BigEndian.Uint32(fr.Bytes()); int(size) != fr.PayloadLen() {
			t.Fatalf("prefix says %d bytes, payload is %d", size, fr.PayloadLen())
		}
		got, err := Decode(fr.Payload())
		if err != nil {
			t.Fatalf("relayed frame does not decode: %v\nframe: %x", err, fr.Payload())
		}
		g := got.Multicast
		if got.From != "relay:1" || g.TargetZone != out.TargetZone || g.Hops != out.Hops ||
			g.Deliver != out.Deliver || g.AckSeq != out.AckSeq || g.TraceID != out.TraceID {
			t.Fatalf("relayed header decodes to %+v from %q, want %+v", *g, got.From, out)
		}
		if !sameEnvelope(&g.Envelope, &in.Envelope) {
			t.Fatalf("relayed envelope decodes to\n %+v\nwant\n %+v", g.Envelope, in.Envelope)
		}
		fields := func(mc Multicast, from string) []byte {
			mc.Envelope.span = nil
			b, err := encodeBinary(&Message{Kind: KindMulticast, Multicast: &mc}, from, 0)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			return b
		}
		if bytes.Equal(fields(*in, m.From), data) && !bytes.Equal(fr.Payload(), fields(out, "relay:1")) {
			t.Fatalf("relay of canonical input differs from a re-encode:\n got %x\nwant %x", fr.Payload(), fields(out, "relay:1"))
		}
	})
}

// sameEnvelope reports whether two decoded envelopes have equal fields,
// kept spans included.
func sameEnvelope(a, b *ItemEnvelope) bool {
	return a.Publisher == b.Publisher && a.ItemID == b.ItemID && a.Revision == b.Revision &&
		slices.Equal(a.Subjects, b.Subjects) && slices.Equal(a.SubjectBits, b.SubjectBits) &&
		a.ScopeZone == b.ScopeZone && a.Predicate == b.Predicate && a.Urgency == b.Urgency &&
		a.Published.Equal(b.Published) && bytes.Equal(a.Payload, b.Payload) &&
		a.Signer == b.Signer && bytes.Equal(a.Sig, b.Sig) && a.Key() == b.Key() &&
		bytes.Equal(a.span, b.span)
}

// FuzzRoundTrip checks the codec is canonical on everything it accepts:
// decode → encode → decode → encode must be a fixed point, so a frame's
// meaning never drifts as it is relayed.
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		m1, err := Decode(data)
		if err != nil {
			return
		}
		enc1, err := Encode(m1)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		m2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v\nframe: %x", err, enc1)
		}
		enc2, err := Encode(m2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("codec not canonical:\n first  %x\n second %x", enc1, enc2)
		}
	})
}
