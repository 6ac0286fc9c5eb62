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

// TestMulticastDecodeAllocationBudget holds a received forward to three
// objects: one block for the message, its Multicast and the envelope's
// first subjects and bits, the envelope's own copy (its kept span), and
// the key. Sender and target zone are interned, so they cost nothing once
// seen. Every fan-out recipient pays this per item.
func TestMulticastDecodeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled decoders on purpose")
	}
	data, err := Encode(budgetMulticast())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil { // interns sender and zone
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Decode(data) }); n > 3 {
		t.Errorf("decoding a Multicast frame allocates %v objects, budget 3", n)
	}
}

// TestSealedEnvelopeViewsItsSpan seals a publisher's envelope: its span is
// the envelope's encoding, its Payload and Sig move into the span, clipped,
// so the envelope holds its bytes once, and a frame of it carries the span.
func TestSealedEnvelopeViewsItsSpan(t *testing.T) {
	m := budgetMulticast()
	env := &m.Multicast.Envelope
	env.Signer, env.Sig = "reuters", []byte{9, 8, 7}
	payload := bytes.Clone(env.Payload)
	want := appendEnvelope(nil, env)
	env.Seal()
	if !bytes.Equal(env.span, want) || cap(env.span) != len(env.span) {
		t.Fatalf("span is not the envelope's exact encoding")
	}
	lo := uintptr(unsafe.Pointer(&env.span[0]))
	for field, b := range map[string][]byte{"Payload": env.Payload, "Sig": env.Sig} {
		if p := uintptr(unsafe.Pointer(&b[0])); p < lo || p+uintptr(len(b)) > lo+uintptr(len(env.span)) || cap(b) != len(b) {
			t.Errorf("%s does not view the span, clipped", field)
		}
	}
	if !bytes.Equal(env.Payload, payload) || !bytes.Equal(env.Sig, []byte{9, 8, 7}) || env.Key() != "reuters/item-42#1" {
		t.Errorf("sealing changed the fields")
	}
	f, err := NewFrame(m, "pub:1")
	if err != nil {
		t.Fatal(err)
	}
	if parts := f.AppendParts(nil); len(parts) != 2 || &parts[1][0] != &env.span[0] {
		t.Error("the frame does not carry the sealed span")
	}
}

// TestRelayedFrameSendsTheKeptSpan frames a decoded forward again, as a
// forwarder does: the frame is a fresh header followed by the envelope's
// own span, not a copy of it, and its bytes are those of a re-encode from
// the fields. Framing it costs no object beyond the frame's slab header.
func TestRelayedFrameSendsTheKeptSpan(t *testing.T) {
	data, err := Encode(budgetMulticast())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	in := got.Multicast
	out := &Message{Kind: KindMulticast, Multicast: &Multicast{
		TargetZone: "/asia/jp", Hops: in.Hops + 1, Deliver: true, AckSeq: 300, TraceID: in.TraceID,
		Envelope: in.Envelope,
	}}
	f, err := NewFrame(out, "relay:1")
	if err != nil {
		t.Fatal(err)
	}
	parts := f.AppendParts(nil)
	if len(parts) != 2 || &parts[1][0] != &in.Envelope.span[0] || len(parts[1]) != len(in.Envelope.span) {
		t.Fatalf("relayed frame has %d parts; want a header and the envelope's own span", len(parts))
	}
	fresh := *out.Multicast
	fresh.Envelope.span = nil
	want, err := NewFrame(&Message{Kind: KindMulticast, Multicast: &fresh}, "relay:1")
	if err != nil {
		t.Fatal(err)
	}
	if want.span != nil || !bytes.Equal(f.Bytes(), want.Bytes()) || f.Len() != want.Len() {
		t.Errorf("relayed frame differs from a re-encode:\n got %x\nwant %x", f.Bytes(), want.Bytes())
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { _, _ = NewFrame(out, "relay:1") }); n > 0 {
			t.Errorf("relaying a forward allocates %v objects, budget 0 amortized", n)
		}
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
