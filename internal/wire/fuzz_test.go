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
	// Hand-built digest frames for the string table, which the encoder
	// never emits in these shapes: one that repeats a name, and one with
	// more distinct names than value's intern table holds (1<<14), so the
	// decoder crosses from interned hits to first sightings to the
	// pass-through beyond the cap.
	tableFrame := func(names []string) []byte {
		b := []byte{codecMagic, byte(KindGossipDigest), 2, 'n', '1'}
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, s := range names {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		return append(b, 0, 0) // FromZone = entry 0, no digests
	}
	seeds = append(seeds, tableFrame([]string{"/usa/ny", "subs", "/usa/ny", "subs", ""}))
	capNames := make([]string, 1<<14+2)
	for i := range capNames {
		capNames[i] = "fz" + strconv.Itoa(i)
	}
	seeds = append(seeds, tableFrame(capNames))
	// A summary whose count runs past the input.
	seeds = append(seeds, overlongSummaryFrame())
	return append(seeds, []byte(gobStreamHead))
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
