package wire

import (
	"bytes"
	"encoding/binary"
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

// fuzzSeeds returns one encoded frame per message kind plus a frame that
// does not start with the codec magic, so both fuzz targets start from
// every decoder path and from the rejection path.
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
			Kind: KindGossipReply,
			From: "n2:9000",
			GossipReply: &GossipReply{
				FromZone: "/usa/ny",
				Rows:     sampleGossipMessage().Gossip.Rows,
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
	for _, frames := range [][]namedFrame{hostileSectionFrames(), oddSectionFrames(), hostileEnvelopeFrames(t), hostileRowFrames(t)} {
		for _, frame := range frames {
			seeds = append(seeds, frame.data)
		}
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
