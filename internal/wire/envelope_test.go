package wire

import (
	"bytes"
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// budgetMulticast is one item's forward as the fan-out carries it: one
// subject, four Bloom positions, a 1.8 KB payload.
func budgetMulticast() *Message {
	return &Message{
		Kind: KindMulticast,
		From: "rep-1:9000",
		Multicast: &Multicast{
			TargetZone: "/asia",
			Hops:       2,
			Deliver:    true,
			TraceID:    99,
			Envelope: ItemEnvelope{
				Publisher:   "reuters",
				ItemID:      "item-42",
				Revision:    1,
				Subjects:    []string{"world/asia"},
				SubjectBits: []uint32{17, 403, 977, 1500},
				Urgency:     4,
				Published:   time.Unix(1017619300, 0).UTC(),
				Payload:     bytes.Repeat([]byte("x"), 1800),
			},
		},
	}
}

// TestMulticastDecodeAllocationBudget holds a received forward to five
// objects: the message and its Multicast in one block, the envelope's own
// copy, its subject and bit slices, and the key. Sender and target zone
// are interned, so they cost nothing once seen. Every fan-out recipient
// pays this per item.
func TestMulticastDecodeAllocationBudget(t *testing.T) {
	data, err := Encode(budgetMulticast())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil { // interns sender and zone
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Decode(data) }); n > 5 {
		t.Errorf("decoding a Multicast frame allocates %v objects, budget 5", n)
	}
}

// TestEnvelopeCodecRejectsShortFrames: an envelope cut short is refused,
// whether it ends a Multicast or sits inside a StateReply.
func TestEnvelopeCodecRejectsShortFrames(t *testing.T) {
	for _, frame := range hostileEnvelopeFrames(t) {
		if _, err := Decode(frame.data); err == nil {
			t.Errorf("%s: decoded", frame.name)
		}
	}
}

// addr returns where s's bytes start.
func addr(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }

// envelopeSpan returns the buffer a decoded envelope views: its encoding,
// which starts with the publisher's length.
func envelopeSpan(env *ItemEnvelope) (lo, hi uintptr) {
	lo = addr(env.Publisher) - uintptr(uvarintLen(uint64(len(env.Publisher))))
	return lo, lo + uintptr(envelopeSize(env))
}

// checkOwnSpan fails unless every string and byte array of env lies inside
// its own span, and Payload and Sig cannot be appended into the bytes
// after them.
func checkOwnSpan(t *testing.T, name string, env *ItemEnvelope) {
	t.Helper()
	lo, hi := envelopeSpan(env)
	inside := func(field string, p uintptr, n int) {
		if n > 0 && (p < lo || p+uintptr(n) > hi) {
			t.Errorf("%s: %s [%#x, +%d) outside the envelope's span [%#x, %#x)", name, field, p, n, lo, hi)
		}
	}
	strs := map[string]string{"Publisher": env.Publisher, "ItemID": env.ItemID,
		"ScopeZone": env.ScopeZone, "Predicate": env.Predicate, "Signer": env.Signer}
	for i, s := range env.Subjects {
		strs[fmt.Sprintf("Subjects[%d]", i)] = s
	}
	for field, s := range strs {
		inside(field, addr(s), len(s))
	}
	for field, b := range map[string][]byte{"Payload": env.Payload, "Sig": env.Sig} {
		if cap(b) != len(b) {
			t.Errorf("%s: %s has capacity %d past its %d bytes", name, field, cap(b), len(b))
		}
		if len(b) > 0 {
			inside(field, uintptr(unsafe.Pointer(&b[0])), cap(b))
		}
	}
	if k := env.Key(); addr(k) >= lo && addr(k) < hi {
		t.Errorf("%s: the key views the envelope's buffer; a logged key would keep the item", name)
	}
}

// TestDecodedEnvelopeOwnsItsBytes decodes from a buffer, overwrites the
// buffer, and finds the envelope unchanged: the decoder keeps none of its
// input (the transport recycles its read buffers the moment Decode
// returns).
func TestDecodedEnvelopeOwnsItsBytes(t *testing.T) {
	want := budgetMulticast()
	want.Multicast.Envelope.ScopeZone = "/asia"
	want.Multicast.Envelope.Predicate = "premium"
	want.Multicast.Envelope.Signer = "reuters"
	want.Multicast.Envelope.Sig = []byte{9, 8, 7}
	frame, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Clone(frame)
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	env := &got.Multicast.Envelope
	if got.From != want.From || got.Multicast.TargetZone != "/asia" {
		t.Errorf("header changed with the input: From %q, TargetZone %q", got.From, got.Multicast.TargetZone)
	}
	if again, err := Encode(got); err != nil || !bytes.Equal(again, frame) {
		t.Errorf("envelope changed with the input (re-encode err %v):\n got %x\nwant %x", err, again, frame)
	}
	if env.Key() != "reuters/item-42#1" {
		t.Errorf("Key() = %q", env.Key())
	}
	checkOwnSpan(t, "multicast", env)
	lo, hi := envelopeSpan(env)
	if in := uintptr(unsafe.Pointer(&buf[0])); lo < in+uintptr(len(buf)) && in < hi {
		t.Error("the envelope views the input buffer")
	}
}

// TestStateReplyEnvelopesOwnTheirSpans decodes a three-envelope reply:
// each envelope views a copy of its own bytes, not the reply frame, so a
// cached envelope never keeps its siblings alive.
func TestStateReplyEnvelopesOwnTheirSpans(t *testing.T) {
	reply := &StateReply{Truncated: true}
	for i := 0; i < 3; i++ {
		reply.Envelopes = append(reply.Envelopes, ItemEnvelope{
			Publisher:   "ap",
			ItemID:      fmt.Sprintf("it-%d", i),
			Subjects:    []string{"tech", "world"},
			SubjectBits: []uint32{uint32(i), 1 << 20},
			Published:   time.Unix(1017619200, int64(i)).UTC(),
			Payload:     bytes.Repeat([]byte{byte('a' + i)}, 100*(i+1)),
			Signer:      "ap",
			Sig:         []byte{byte(i), 1, 2},
		})
	}
	frame, err := Encode(&Message{Kind: KindStateReply, From: "peer:1", StateReply: reply})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	envs := got.StateReply.Envelopes
	if len(envs) != 3 || !got.StateReply.Truncated {
		t.Fatalf("reply lost: %d envelopes, truncated %v", len(envs), got.StateReply.Truncated)
	}
	in := uintptr(unsafe.Pointer(&frame[0]))
	for i := range envs {
		name := fmt.Sprintf("envelope %d", i)
		checkOwnSpan(t, name, &envs[i])
		if !bytes.Equal(envs[i].Payload, reply.Envelopes[i].Payload) || envs[i].Key() != reply.Envelopes[i].Key() {
			t.Errorf("%s decoded as %q", name, envs[i].Key())
		}
		lo, hi := envelopeSpan(&envs[i])
		if lo < in+uintptr(len(frame)) && in < hi {
			t.Errorf("%s views the reply frame", name)
		}
		for j := 0; j < i; j++ {
			if olo, ohi := envelopeSpan(&envs[j]); lo < ohi && olo < hi {
				t.Errorf("envelopes %d and %d share a buffer", j, i)
			}
		}
	}
}
