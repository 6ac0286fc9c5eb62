package wire

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

func sampleMulticastMessage() *Message {
	return &Message{
		Kind: KindMulticast,
		From: "publisher:9000",
		Multicast: &Multicast{
			TargetZone: "/usa/ny",
			Hops:       2,
			Deliver:    true,
			Envelope: ItemEnvelope{
				Publisher: "reuters",
				ItemID:    "item-42",
				Revision:  1,
				Subjects:  []string{"tech/linux"},
				Urgency:   3,
				Published: time.Unix(1017619200, 0).UTC(),
				Payload:   []byte("<nitf>frame round-trip</nitf>"),
			},
		},
	}
}

// TestFrameRoundTrip frames a multicast message, checks the length prefix
// and decodes the payload back.
func TestFrameRoundTrip(t *testing.T) {
	m := sampleMulticastMessage()
	f, err := NewFrame(m, "hub:1")
	if err != nil {
		t.Fatalf("NewFrame: %v", err)
	}
	if f.IsZero() {
		t.Fatal("frame is zero")
	}
	if f.Len() != FramePrefixLen+f.PayloadLen() {
		t.Fatalf("Len %d != prefix %d + payload %d", f.Len(), FramePrefixLen, f.PayloadLen())
	}
	size := binary.BigEndian.Uint32(f.Bytes()[:FramePrefixLen])
	if int(size) != f.PayloadLen() {
		t.Fatalf("prefix says %d bytes, payload is %d", size, f.PayloadLen())
	}

	got, err := Decode(f.Payload())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.From != "hub:1" {
		t.Errorf("From = %q, want the stamped sender %q", got.From, "hub:1")
	}
	if got.Multicast == nil || got.Multicast.Envelope.Key() != m.Multicast.Envelope.Key() {
		t.Error("envelope did not round-trip")
	}
	if !bytes.Equal(got.Multicast.Envelope.Payload, m.Multicast.Envelope.Payload) {
		t.Error("payload did not round-trip")
	}

	// The frame payload must equal what the peer-facing Encode path
	// would produce for the stamped sender, so readers cannot tell
	// the shared-frame and per-peer-encode paths apart.
	mm := *m
	mm.From = "hub:1"
	want, err := Encode(&mm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload(), want) {
		t.Error("frame payload differs from Encode output")
	}
}

// TestFrameStampsWithoutMutatingSource is the regression test for the
// transport data race this frame type fixed: TCP.Send used to write
// msg.From before encoding, racing when one message fanned out to many
// peers. NewFrame must stamp the sender into the encoded bytes only.
func TestFrameStampsWithoutMutatingSource(t *testing.T) {
	m := sampleMulticastMessage()
	m.From = "original-sender"
	f, err := NewFrame(m, "hub:1")
	if err != nil {
		t.Fatalf("NewFrame: %v", err)
	}
	if m.From != "original-sender" {
		t.Fatalf("NewFrame mutated msg.From to %q", m.From)
	}
	got, err := Decode(f.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "hub:1" {
		t.Errorf("decoded From = %q, want %q", got.From, "hub:1")
	}
}

// TestFrameConcurrentEncodeSameMessage fans one shared message out to
// many concurrent NewFrame calls; run with -race it proves the encoder
// never writes to the source message.
func TestFrameConcurrentEncodeSameMessage(t *testing.T) {
	m := sampleMulticastMessage()
	want, err := NewFrame(m, "hub:1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := NewFrame(m, "hub:1")
			if err != nil {
				t.Errorf("NewFrame: %v", err)
				return
			}
			if !bytes.Equal(f.Bytes(), want.Bytes()) {
				t.Error("concurrent NewFrame produced different bytes")
			}
		}()
	}
	wg.Wait()
}

func TestFrameRejectsInvalidMessage(t *testing.T) {
	if _, err := NewFrame(&Message{Kind: KindMulticast}, "hub:1"); err == nil {
		t.Fatal("NewFrame accepted a multicast message with no payload")
	}
}
