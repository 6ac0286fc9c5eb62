package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"newswire/internal/value"
)

// sampleGossipMessage is a rows-only delta: rows pushed whole, as the
// full-state reference exchange ships every row of a shared table.
func sampleGossipMessage() *Message {
	return &Message{
		Kind: KindGossipDelta,
		From: "node-1:9000",
		GossipDelta: &GossipDelta{
			FromZone: "/usa/ny",
			Rows: []RowUpdate{
				{
					Zone:   "/usa/ny",
					Name:   "node-1",
					Attrs:  value.Map{"load": value.Float(0.3), "subs": value.Bytes([]byte{1, 2})},
					Issued: time.Unix(1017619200, 0).UTC(),
					Owner:  "node-1:9000",
				},
			},
		},
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{Kind(1), "kind(1)"}, // retired: the full-state exchange
		{Kind(2), "kind(2)"},
		{KindMulticast, "multicast"},
		{KindStateRequest, "state-request"},
		{KindStateReply, "state-reply"},
		{KindGossipDigest, "gossip-digest"},
		{KindGossipDelta, "gossip-delta"},
		{KindMulticastAck, "multicast-ack"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestEncodeDecodeGossip(t *testing.T) {
	m := sampleGossipMessage()
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindGossipDelta || got.From != m.From {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.GossipDelta == nil || len(got.GossipDelta.Rows) != 1 {
		t.Fatalf("gossip payload lost: %+v", got.GossipDelta)
	}
	row := got.GossipDelta.Rows[0]
	if row.Zone != "/usa/ny" || row.Name != "node-1" {
		t.Fatalf("row identity lost: %+v", row)
	}
	if !row.Attrs.Equal(m.GossipDelta.Rows[0].Attrs) {
		t.Fatalf("attrs lost: %v", row.Attrs)
	}
	if !row.Issued.Equal(m.GossipDelta.Rows[0].Issued) {
		t.Fatalf("issue time lost: %v", row.Issued)
	}
}

func TestEncodeDecodeMulticast(t *testing.T) {
	m := &Message{
		Kind: KindMulticast,
		From: "rep-1:9000",
		Multicast: &Multicast{
			TargetZone: "/asia",
			Hops:       2,
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
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	env := got.Multicast.Envelope
	if env.Key() != "reuters/item-42#1" {
		t.Fatalf("Key() = %q", env.Key())
	}
	// The decoder sealed the key: reading it is free, on copies too.
	if n := testing.AllocsPerRun(100, func() { _ = env.Key() }); n != 0 {
		t.Fatalf("Key() on a wire-decoded envelope allocates %v objects, want 0", n)
	}
	if unsealed := m.Multicast.Envelope.Key(); unsealed != env.Key() {
		t.Fatalf("unsealed Key() = %q, sealed %q", unsealed, env.Key())
	}
	if env.Predicate != "premium" || env.ScopeZone != "/asia" {
		t.Fatalf("envelope fields lost: %+v", env)
	}
	if len(env.SubjectBits) != 2 || env.SubjectBits[1] != 403 {
		t.Fatalf("subject bits lost: %v", env.SubjectBits)
	}
	if string(env.Payload) != "<nitf/>" {
		t.Fatalf("payload lost: %q", env.Payload)
	}
}

func TestEncodeDecodeMulticastAck(t *testing.T) {
	// A reliable forward round-trips its AckSeq, and the ack echoes it.
	fwd := &Message{
		Kind: KindMulticast,
		From: "rep-1:9000",
		Multicast: &Multicast{
			TargetZone: "/asia",
			AckSeq:     77,
			Envelope:   ItemEnvelope{Publisher: "reuters", ItemID: "item-1"},
		},
	}
	data, err := Encode(fwd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Multicast.AckSeq != 77 {
		t.Fatalf("AckSeq lost: %+v", got.Multicast)
	}

	ack := &Message{
		Kind: KindMulticastAck,
		From: "leaf-3:9000",
		MulticastAck: &MulticastAck{
			Seq:        77,
			Key:        "reuters/item-1#0",
			TargetZone: "/asia",
		},
	}
	data, err = Encode(ack)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	a := got.MulticastAck
	if a == nil || a.Seq != 77 || a.Key != "reuters/item-1#0" || a.TargetZone != "/asia" {
		t.Fatalf("ack payload lost: %+v", a)
	}
	if s := got.EstimateSize(); s <= 0 {
		t.Fatalf("ack EstimateSize = %d", s)
	}
}

func TestEncodeDecodeStateTransfer(t *testing.T) {
	req := &Message{
		Kind: KindStateRequest,
		From: "joiner:1",
		StateRequest: &StateRequest{
			Since:    time.Unix(100, 0).UTC(),
			MaxItems: 50,
			Subjects: []string{"tech/linux"},
		},
	}
	data, err := Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.StateRequest.MaxItems != 50 || got.StateRequest.Subjects[0] != "tech/linux" {
		t.Fatalf("state request lost: %+v", got.StateRequest)
	}

	rep := &Message{
		Kind: KindStateReply,
		From: "peer:1",
		StateReply: &StateReply{
			Envelopes: []ItemEnvelope{{Publisher: "p", ItemID: "i", Revision: 0}},
			Truncated: true,
		},
	}
	data, err = Encode(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.StateReply.Truncated || len(got.StateReply.Envelopes) != 1 {
		t.Fatalf("state reply lost: %+v", got.StateReply)
	}
}

// summaryHashes returns n distinct ascending hashes that use all 8 bytes.
func summaryHashes(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = ItemHash(0x5a17, "pub/item-"+strconv.Itoa(i)+"#0")
	}
	slices.Sort(out)
	return out
}

func TestStateRequestSummaryCodec(t *testing.T) {
	plain := &Message{
		Kind: KindStateRequest,
		From: "n9:9000",
		StateRequest: &StateRequest{
			Since:    time.Unix(1017619200, 0).UTC(),
			Subjects: []string{"tech/linux", "world"},
			MaxItems: 64,
		},
	}
	// Recorded from the commit before requests carried a summary: a request
	// without one must not change by a byte, so old and new nodes agree on
	// it.
	const golden = "b704076e393a39303030808cbdca07008001020a746563682f6c696e757805776f726c64"
	data, err := Encode(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("summary-free request encodes as\n %s, want\n %s", got, golden)
	}
	// A salt alone is not a summary: it does not travel.
	salted := *plain.StateRequest
	salted.Salt = 99
	data, err = Encode(&Message{Kind: KindStateRequest, From: plain.From, StateRequest: &salted})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("request with a salt but no hashes encodes as\n %s, want\n %s", got, golden)
	}

	for _, n := range []int{1, 3, 1024} {
		want := *plain.StateRequest
		want.Salt = 0xfeedfacecafebeef
		want.Have = summaryHashes(n)
		data, err := Encode(&Message{Kind: KindStateRequest, From: "n9:9000", StateRequest: &want})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(*got.StateRequest, want) {
			t.Fatalf("n=%d: round trip lost the request:\n got  %+v\n want %+v", n, *got.StateRequest, want)
		}
	}
}

// TestStateRequestSummaryDecodeTolerance: the decoder hands the responder
// whatever order and repeats the sender chose, and refuses a count the
// frame cannot hold before allocating for it.
func TestStateRequestSummaryDecodeTolerance(t *testing.T) {
	for name, have := range map[string][]uint64{
		"unsorted": {9, 3, 7, 1},
		"repeated": {4, 4, 4, 8, 8},
	} {
		data, err := Encode(&Message{Kind: KindStateRequest, From: "a",
			StateRequest: &StateRequest{Salt: 1, Have: have}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s summary rejected: %v", name, err)
		}
		if !slices.Equal(got.StateRequest.Have, have) {
			t.Fatalf("%s summary decoded as %v, want %v", name, got.StateRequest.Have, have)
		}
	}
	if _, err := Decode(overlongSummaryFrame()); err == nil {
		t.Fatal("summary count past the input accepted")
	}
	// One hash cut short.
	data, err := Encode(&Message{Kind: KindStateRequest, From: "a",
		StateRequest: &StateRequest{Salt: 1, Have: []uint64{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data[:len(data)-3]); err == nil {
		t.Fatal("truncated summary accepted")
	}
}

// overlongSummaryFrame is a state request whose summary claims 2^40 hashes
// and carries two.
func overlongSummaryFrame() []byte {
	b := []byte{codecMagic, byte(KindStateRequest), 1, 'a'}
	b = appendTime(b, time.Time{})
	b = append(b, 0, 0)                        // MaxItems 0, no subjects
	b = binary.LittleEndian.AppendUint64(b, 7) // salt
	b = binary.AppendUvarint(b, 1<<40)         // count
	return append(b, make([]byte, 16)...)
}

// TestEstimateSizeExact pins the byte meter to the codec for every frame
// that carries no gossip rows (those intern attribute names in a string
// table the meter charges as a constant): the simulator's wire bytes (and
// the benchmark's wire_kb_per_item) are EstimateSize sums, so for these
// frames they are what TCP would carry, to the byte.
func TestEstimateSizeExact(t *testing.T) {
	env := ItemEnvelope{
		Publisher: "reuters", ItemID: "item-42", Revision: 3,
		Subjects: []string{"world/asia", "business"}, SubjectBits: []uint32{17, 403, 70000},
		ScopeZone: "/asia", Predicate: "premium", Urgency: 2,
		Published: time.Unix(1017619300, 999).UTC(),
		Payload:   bytes.Repeat([]byte("<nitf/>"), 40),
		Signer:    "reuters", Sig: bytes.Repeat([]byte{9}, 64),
	}
	full := make([]ItemEnvelope, 300)
	for i := range full {
		full[i] = env
		full[i].ItemID = "item-" + strconv.Itoa(i)
	}
	request := func(n int) *Message {
		return &Message{Kind: KindStateRequest, From: "n9:9000", StateRequest: &StateRequest{
			Since: time.Unix(1017619200, 5).UTC(), MaxItems: 256,
			Subjects: []string{"tech/linux", "world"},
			Salt:     0xfeedfacecafebeef, Have: summaryHashes(n),
		}}
	}
	tests := []struct {
		name string
		msg  *Message
	}{
		{"state request, no summary", request(0)},
		{"state request, 1 hash", request(1)},
		{"state request, 1024 hashes", request(1024)},
		{"state request, zero value", &Message{Kind: KindStateRequest, StateRequest: &StateRequest{}}},
		{"state reply, empty", &Message{Kind: KindStateReply, From: "n2:9000", StateReply: &StateReply{}}},
		{"state reply, full", &Message{Kind: KindStateReply, From: "n2:9000",
			StateReply: &StateReply{Envelopes: full, Truncated: true}}},
		{"multicast", &Message{Kind: KindMulticast, From: "rep-1:9000", Multicast: &Multicast{
			TargetZone: "/asia", Hops: 2, Deliver: true, AckSeq: 1 << 40,
			TraceID: 0xabcdef0123456789, Envelope: env}}},
		{"multicast, bare", &Message{Kind: KindMulticast, Multicast: &Multicast{}}},
		{"multicast ack", &Message{Kind: KindMulticastAck, From: "leaf-3:9000",
			MulticastAck: &MulticastAck{Seq: 300, Key: "reuters/item-42#3", TargetZone: "/asia"}}},
		{"clock pong", &Message{Kind: KindClockPong, From: "n1:9000",
			ClockSync: &ClockSync{Seq: 42, T1: 1017619200123456789, T2: -5}}},
		{"digest, bare sections", sampleDigestMessage()},
		{"digest, no sections", &Message{Kind: KindGossipDigest, GossipDigest: &GossipDigest{FromZone: "/"}}},
		{"delta, a named section and stamps", sampleSectionDeltaMessage()},
		{"delta, a named section alone", &Message{Kind: KindGossipDelta, From: "n2:9000",
			GossipDelta: &GossipDelta{FromZone: "/usa/sf", Sections: []ZoneSection{sampleNamedSection()}}}},
		{"delta, stamps only", &Message{Kind: KindGossipDelta, From: "n2:9000",
			GossipDelta: &GossipDelta{FromZone: "/usa/sf", Stamps: sampleStampedDeltaMessage().GossipDelta.Stamps}}},
		{"delta, wants in three zones", &Message{Kind: KindGossipDelta, From: "n2:9000",
			GossipDelta: &GossipDelta{FromZone: "/usa/sf", Want: []RowRef{
				{Zone: "/", Name: "asia"}, {Zone: "/", Name: "europe"}, {Zone: "/usa", Name: "ny"},
				{Zone: "/usa/sf", Name: "node-7"}, {Zone: "/", Name: "africa"}}}}},
		{"delta, empty", &Message{Kind: KindGossipDelta, From: "n2:9000",
			GossipDelta: &GossipDelta{FromZone: "/usa/sf"}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data, err := Encode(tt.msg)
			if err != nil {
				t.Fatal(err)
			}
			if est := tt.msg.EstimateSize(); est != len(data) {
				t.Errorf("EstimateSize = %d, Encode wrote %d bytes", est, len(data))
			}
		})
	}
}

// TestSealSizeRecords: a sealed message's size is recorded once and read
// back by EstimateSize, and a sender stamped after sealing is still
// charged at its own length.
func TestSealSizeRecords(t *testing.T) {
	for _, m := range []*Message{sampleDigestMessage(), sampleSectionDeltaMessage()} {
		want := m.EstimateSize()
		if got := m.SealSize(); got != want {
			t.Fatalf("%s: SealSize = %d, EstimateSize before it %d", m.Kind, got, want)
		}
		body := m.bodySize
		m.From = "a-much-longer-sender-address:9000"
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if est := m.EstimateSize(); est != len(data) || m.bodySize != body {
			t.Errorf("%s: EstimateSize = %d after From changed, Encode wrote %d bytes", m.Kind, est, len(data))
		}
		m.bodySize++
		if est := m.EstimateSize(); est != len(data)+1 {
			t.Errorf("%s: EstimateSize = %d does not read the recorded size", m.Kind, est)
		}
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		msg  Message
		ok   bool
	}{
		{"valid gossip", *sampleGossipMessage(), true},
		{"gossip missing payload", Message{Kind: KindGossipDelta, GossipDigest: &GossipDigest{}}, false},
		{"multicast missing payload", Message{Kind: KindMulticast}, false},
		{"unknown kind", Message{Kind: Kind(77)}, false},
		{"zero message", Message{}, false},
		{"state request", Message{Kind: KindStateRequest, StateRequest: &StateRequest{}}, true},
		{"valid digest", *sampleDigestMessage(), true},
		{"digest missing payload", Message{Kind: KindGossipDigest}, false},
		{"valid delta", *sampleDeltaMessage(), true},
		{"delta missing payload", Message{Kind: KindGossipDelta}, false},
		{"valid ack", Message{Kind: KindMulticastAck,
			MulticastAck: &MulticastAck{Seq: 1}}, true},
		{"ack missing payload", Message{Kind: KindMulticastAck}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.msg.Validate()
			if tt.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tt.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

// TestDecodeGarbage: Decode refuses, with an error and before parsing
// anything, input that is empty or whose first byte is not the codec
// magic — the retired gob framing included — and refuses a well-framed
// message that fails Validate.
func TestDecodeGarbage(t *testing.T) {
	for name, data := range map[string][]byte{
		"nil":            nil,
		"empty":          {},
		"text":           []byte("not a frame"),
		"gob stream":     []byte(gobStreamHead),
		"magic second":   {0x00, codecMagic, byte(KindClockPing)},
		"magic, no kind": {codecMagic},
	} {
		if m, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted %x as %+v", name, data, m)
		}
	}
	// A valid frame with only its first byte changed.
	data, err := Encode(sampleGossipMessage())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 256; b++ {
		if b == codecMagic {
			continue
		}
		data[0] = byte(b)
		if _, err := Decode(data); !errors.Is(err, errBadMagic) {
			t.Fatalf("first byte %#02x: Decode error = %v, want errBadMagic", b, err)
		}
	}
	data, err = Encode(&Message{Kind: KindGossipDelta}) // missing payload
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("invalid message should fail Validate on decode")
	}
}

// retiredGossipFrames are a KindGossip and a KindGossipReply frame, each
// carrying one row, as the full-state exchange encoded them before kinds 1
// and 2 were retired.
var retiredGossipFrames = []string{
	"b701016102022f7a0161000100016e0a00016f000001010202",
	"b702016202022f7a0161000100016e0a00016f000001010202",
}

// TestDecodeRejectsRetiredKinds: a frame of the retired full-state
// exchange, from a peer that still speaks it, is refused as an unknown kind.
func TestDecodeRejectsRetiredKinds(t *testing.T) {
	for _, h := range retiredGossipFrames {
		data, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Decode(data)
		if err == nil || !strings.Contains(err.Error(), "unknown message kind") {
			t.Errorf("kind %d frame: Decode = %+v, %v; want an unknown message kind error", data[1], m, err)
		}
	}
}

func TestEnvelopeKeyDistinguishesRevisions(t *testing.T) {
	a := ItemEnvelope{Publisher: "p", ItemID: "x", Revision: 1}
	b := ItemEnvelope{Publisher: "p", ItemID: "x", Revision: 2}
	if a.Key() == b.Key() {
		t.Fatal("revisions must have distinct dedup keys")
	}
}

func TestSignedPayloadCoversFields(t *testing.T) {
	base := ItemEnvelope{
		Publisher: "p", ItemID: "x", Revision: 1,
		Subjects: []string{"s"}, ScopeZone: "/", Predicate: "",
		Published: time.Unix(5, 0), Payload: []byte("body"),
	}
	p1 := string(base.SignedPayload())

	mutations := []func(e *ItemEnvelope){
		func(e *ItemEnvelope) { e.Publisher = "q" },
		func(e *ItemEnvelope) { e.ItemID = "y" },
		func(e *ItemEnvelope) { e.Revision = 2 },
		func(e *ItemEnvelope) { e.Subjects = []string{"other"} },
		func(e *ItemEnvelope) { e.ScopeZone = "/asia" },
		func(e *ItemEnvelope) { e.Predicate = "premium" },
		func(e *ItemEnvelope) { e.Published = time.Unix(6, 0) },
		func(e *ItemEnvelope) { e.Payload = []byte("tampered") },
	}
	for i, mutate := range mutations {
		e := base
		mutate(&e)
		if string(e.SignedPayload()) == p1 {
			t.Errorf("mutation %d not covered by SignedPayload", i)
		}
	}
	// Signature fields themselves are NOT covered.
	e := base
	e.Sig = []byte{1}
	e.Signer = "other"
	if string(e.SignedPayload()) != p1 {
		t.Error("signature fields must not be covered by SignedPayload")
	}
}

func TestEncodeIsDeterministicForSameMessage(t *testing.T) {
	m := sampleGossipMessage()
	d1, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(d1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatalf("re-encoding a decoded message changed its bytes:\n first  %x\n second %x", d1, d2)
	}
}

func sampleDigestMessage() *Message {
	return &Message{
		Kind: KindGossipDigest,
		From: "node-1:9000",
		GossipDigest: &GossipDigest{
			FromZone: "/usa/ny",
			Sections: []ZoneSection{
				{Depth: 0, Hash: 42, Newest: time.Unix(1017619260, 0).UTC(),
					Lags: []time.Duration{0, 1500 * time.Millisecond}},
				{Depth: 2, Hash: 0xdeadbeef, Newest: time.Unix(1017619200, 7).UTC(),
					Lags: []time.Duration{4 * time.Second, 0, time.Nanosecond}},
			},
		},
	}
}

func sampleDeltaMessage() *Message {
	return &Message{
		Kind: KindGossipDelta,
		From: "node-2:9000",
		GossipDelta: &GossipDelta{
			FromZone: "/usa/sf",
			Rows: []RowUpdate{{
				Zone: "/usa/sf", Name: "node-2",
				Attrs:  value.Map{"load": value.Float(0.1)},
				Issued: time.Unix(1017619200, 0).UTC(),
				Owner:  "node-2:9000",
			}},
			Want: []RowRef{{Zone: "/", Name: "asia"}},
		},
	}
}

func sampleStampedDeltaMessage() *Message {
	m := sampleDeltaMessage()
	m.GossipDelta.Stamps = []ZoneStamps{
		{Depth: 2, Hash: 0xfeedface, Newest: time.Unix(1017619300, 12).UTC(),
			Rows: []RowStamp{{Pos: 0, Lag: 0}, {Pos: 3, Lag: 2 * time.Second}}},
		{Depth: 0, Hash: 7, Newest: time.Unix(1017619360, 0).UTC(),
			Rows: []RowStamp{{Pos: 200, Lag: time.Millisecond}}},
	}
	return m
}

// sampleNamedSection is a zone table described to a peer that holds other
// content: every row's name and attrs hash beside its lag.
func sampleNamedSection() ZoneSection {
	return ZoneSection{
		Depth: 1, Hash: 0xabad1dea, Newest: time.Unix(1017619300, 0).UTC(),
		Lags: []time.Duration{0, 3 * time.Second, 250 * time.Millisecond},
		Named: []RowSummary{
			{Name: "node-1", Hash: 1}, {Name: "node-2", Hash: 1 << 63}, {Name: "node-30", Hash: 0},
		},
	}
}

// sampleSectionDeltaMessage is the answer to a digest that mismatched on
// one zone and matched on another: a named section and stamps, no rows.
func sampleSectionDeltaMessage() *Message {
	return &Message{
		Kind: KindGossipDelta,
		From: "node-2:9000",
		GossipDelta: &GossipDelta{
			FromZone: "/usa/sf",
			Stamps:   sampleStampedDeltaMessage().GossipDelta.Stamps[:1],
			Sections: []ZoneSection{sampleNamedSection()},
		},
	}
}

func TestEncodeDecodeDeltaStamps(t *testing.T) {
	m := sampleStampedDeltaMessage()
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	d := got.GossipDelta
	if !reflect.DeepEqual(d.Stamps, m.GossipDelta.Stamps) {
		t.Fatalf("stamps changed in transit:\n got  %+v\n want %+v", d.Stamps, m.GossipDelta.Stamps)
	}
	if len(d.Rows) != 1 || len(d.Want) != 1 || len(d.Sections) != 0 {
		t.Fatalf("rows/want lost alongside stamps: %+v", d)
	}
	// A delta without stamps or sections pays for neither: no trailing
	// zero counts.
	plain := sampleDeltaMessage()
	encPlain, err := Encode(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(encPlain) >= len(data) {
		t.Fatalf("stamp-free delta (%d bytes) not smaller than stamped (%d)", len(encPlain), len(data))
	}
	// EstimateSize must model the optional tail the same way.
	if got, want := m.EstimateSize()-plain.EstimateSize(), len(data)-len(encPlain); got != want {
		t.Fatalf("EstimateSize charges the stamps %d bytes, the codec wrote %d", got, want)
	}

	// Sections ride behind the stamps, with or without any.
	for _, stamps := range [][]ZoneStamps{nil, m.GossipDelta.Stamps} {
		m := sampleSectionDeltaMessage()
		m.GossipDelta.Stamps = stamps
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.GossipDelta; !reflect.DeepEqual(d.Sections, m.GossipDelta.Sections) ||
			!reflect.DeepEqual(d.Stamps, stamps) {
			t.Fatalf("sections/stamps changed in transit:\n got  %+v\n want %+v", d, m.GossipDelta)
		}
	}
}

// TestSectionCodecRejects: the decoder refuses sections an honest encoder
// never writes, and the encoder refuses one it cannot represent.
func TestSectionCodecRejects(t *testing.T) {
	for _, frame := range hostileSectionFrames() {
		if _, err := Decode(frame.data); err == nil {
			t.Errorf("%s: decoded", frame.name)
		}
	}
	for _, frame := range oddSectionFrames() {
		if _, err := Decode(frame.data); err != nil {
			t.Errorf("%s: %v", frame.name, err)
		}
	}
	m := sampleDigestMessage()
	m.GossipDigest.Sections[0].Named = []RowSummary{{Name: "only-one"}}
	if _, err := Encode(m); err == nil {
		t.Error("a section naming 1 of its 2 rows encoded")
	}
}

func TestEncodeDecodeMulticastTraceID(t *testing.T) {
	m := &Message{
		Kind: KindMulticast,
		From: "rep-1:9000",
		Multicast: &Multicast{
			TargetZone: "/asia",
			TraceID:    0xabcdef0123456789,
			Envelope:   ItemEnvelope{Publisher: "reuters", ItemID: "item-1"},
		},
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Multicast.TraceID != m.Multicast.TraceID {
		t.Fatalf("TraceID lost: %x", got.Multicast.TraceID)
	}
}

func TestEncodeDecodeClockSync(t *testing.T) {
	for _, kind := range []Kind{KindClockPing, KindClockPong} {
		m := &Message{
			Kind:      kind,
			From:      "n1:9000",
			ClockSync: &ClockSync{Seq: 42, T1: 1017619200123456789, T2: 1017619200123459999},
		}
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != kind || got.ClockSync == nil || *got.ClockSync != *m.ClockSync {
			t.Fatalf("%s round trip lost payload: %+v", kind, got.ClockSync)
		}
		if s := got.EstimateSize(); s <= 0 {
			t.Fatalf("%s EstimateSize = %d", kind, s)
		}
	}
	// Missing payload fails validation.
	if err := (&Message{Kind: KindClockPing}).Validate(); err == nil {
		t.Fatal("clock ping without payload should fail Validate")
	}
	if KindClockPing.String() != "clock-ping" || KindClockPong.String() != "clock-pong" {
		t.Fatal("clock kind names wrong")
	}
}

func TestEncodeDecodeDeltaGossip(t *testing.T) {
	for _, m := range []*Message{sampleDigestMessage(), sampleDeltaMessage()} {
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != m.Kind || got.From != m.From {
			t.Fatalf("header mismatch: %+v", got)
		}
		switch m.Kind {
		case KindGossipDigest:
			d := got.GossipDigest
			if d.FromZone != m.GossipDigest.FromZone || !reflect.DeepEqual(d.Sections, m.GossipDigest.Sections) {
				t.Fatalf("digest payload mismatch: %+v", d)
			}
		case KindGossipDelta:
			d := got.GossipDelta
			if d.FromZone != m.GossipDelta.FromZone || len(d.Rows) != 1 || len(d.Want) != 1 {
				t.Fatalf("delta payload mismatch: %+v", d)
			}
			if d.Want[0] != m.GossipDelta.Want[0] {
				t.Fatalf("want ref mismatch: %+v", d.Want[0])
			}
			if !d.Rows[0].Attrs.Equal(m.GossipDelta.Rows[0].Attrs) {
				t.Fatalf("row attrs mismatch: %+v", d.Rows[0])
			}
		}
	}
}

func TestDeltaEstimateSizes(t *testing.T) {
	digest := sampleDigestMessage()
	delta := sampleDeltaMessage()
	if s := digest.EstimateSize(); s <= 0 {
		t.Fatalf("digest EstimateSize = %d", s)
	}
	if s := delta.EstimateSize(); s <= 0 {
		t.Fatalf("delta EstimateSize = %d", s)
	}
	// A digest of a table must be much smaller than the rows themselves
	// once rows carry real payloads — that is the point of the protocol.
	heavyRow := RowUpdate{
		Zone: "/usa/ny", Name: "node-1",
		Attrs: value.Map{"subs": value.Bytes(make([]byte, 128))},
	}
	rows := Message{Kind: KindGossipDelta, GossipDelta: &GossipDelta{FromZone: "/usa/ny",
		Rows: []RowUpdate{heavyRow}}}
	dig := Message{Kind: KindGossipDigest, GossipDigest: &GossipDigest{FromZone: "/usa/ny",
		Sections: []ZoneSection{{Depth: 2, Lags: []time.Duration{0}}}}}
	if dig.EstimateSize() >= rows.EstimateSize() {
		t.Fatalf("digest (%d) not smaller than full row (%d)",
			dig.EstimateSize(), rows.EstimateSize())
	}
	// Per-entry sizing helpers must scale with content.
	if sectionsSize(sampleDigestMessage().GossipDigest.Sections) <= sectionsSize(nil) {
		t.Fatal("sectionsSize insensitive to entries")
	}
	if refsSize([]RowRef{{Zone: "/z", Name: "n"}}) <= refsSize(nil) {
		t.Fatal("refsSize insensitive to refs")
	}
	if rowSize(&heavyRow, 130) <= rowSize(&heavyRow, 0) {
		t.Fatal("rowSize insensitive to encoded attr length")
	}
}

func TestEstimateSizeCoversAllKinds(t *testing.T) {
	msgs := []*Message{
		sampleGossipMessage(),
		sampleDigestMessage(),
		sampleDeltaMessage(),
		{
			Kind: KindGossipDelta,
			GossipDelta: &GossipDelta{FromZone: "/z", Rows: []RowUpdate{{
				Zone: "/z", Name: "n", Attrs: value.Map{"a": value.Int(1)},
			}}},
		},
		{
			Kind: KindMulticast,
			Multicast: &Multicast{TargetZone: "/z", Envelope: ItemEnvelope{
				Publisher: "p", ItemID: "i", Subjects: []string{"s"},
				SubjectBits: []uint32{1, 2}, Payload: []byte("xxxx"),
			}},
		},
		{
			Kind:         KindStateRequest,
			StateRequest: &StateRequest{Subjects: []string{"tech/linux"}},
		},
		{
			Kind: KindStateReply,
			StateReply: &StateReply{Envelopes: []ItemEnvelope{
				{Publisher: "p", ItemID: "a", Payload: []byte("pay")},
			}},
		},
	}
	for _, m := range msgs {
		size := m.EstimateSize()
		if size <= 0 {
			t.Errorf("%s: EstimateSize = %d", m.Kind, size)
		}
		// The estimate must grow when payload content grows.
		if m.Multicast != nil {
			grown := *m.Multicast
			grown.Envelope.Payload = make([]byte, 10000)
			g := Message{Kind: KindMulticast, Multicast: &grown}
			if g.EstimateSize() <= size {
				t.Error("estimate insensitive to payload size")
			}
		}
	}
}

func TestEstimateSizeEmptyMessage(t *testing.T) {
	m := Message{Kind: KindInvalid, From: "x"}
	if m.EstimateSize() <= 0 {
		t.Error("empty message should still have header size")
	}
}

func TestRowUpdateSignedPayloadCoversFields(t *testing.T) {
	base := RowUpdate{
		Zone: "/z", Name: "n",
		Attrs:  value.Map{"a": value.Int(1)},
		Issued: time.Unix(5, 0),
		Owner:  "addr",
	}
	p1 := string(base.SignedPayload())
	mutations := []func(r *RowUpdate){
		func(r *RowUpdate) { r.Zone = "/other" },
		func(r *RowUpdate) { r.Name = "m" },
		func(r *RowUpdate) { r.Attrs = value.Map{"a": value.Int(2)} },
		func(r *RowUpdate) { r.Issued = time.Unix(6, 0) },
		func(r *RowUpdate) { r.Owner = "evil" },
	}
	for i, mutate := range mutations {
		r := base
		mutate(&r)
		if string(r.SignedPayload()) == p1 {
			t.Errorf("mutation %d not covered by row SignedPayload", i)
		}
	}
	// Signature fields are not covered.
	r := base
	r.Signer, r.Sig = "x", []byte{1}
	if string(r.SignedPayload()) != p1 {
		t.Error("signature fields must not be covered")
	}
}

// benchGossipMessage builds a rows-only gossip delta at the paper's 64-row
// table shape: a whole table pushed to a peer that holds none of it.
func benchGossipMessage() *Message {
	rows := make([]RowUpdate, 64)
	for i := range rows {
		rows[i] = RowUpdate{
			Zone: "/z00", Name: fmt.Sprintf("node-%d", i),
			Attrs: value.Map{
				"addr":     value.String(fmt.Sprintf("n%d", i)),
				"load":     value.Float(float64(i) / 64),
				"nmembers": value.Int(1),
				"subs":     value.Bytes(make([]byte, 128)),
			},
			Issued: time.Unix(1017619200, int64(i)).UTC(),
			Owner:  fmt.Sprintf("n%d", i),
		}
	}
	return &Message{
		Kind:        KindGossipDelta,
		From:        "n0",
		GossipDelta: &GossipDelta{FromZone: "/z00", Rows: rows},
	}
}

// BenchmarkEncodeDecode measures the pooled Encode/Decode round trip.
// The sync.Pool scratch buffers are the win under guard here: run with
// -benchmem and compare allocs/op against the recorded baseline in
// EXPERIMENTS.md before touching the codec.
func BenchmarkEncodeDecode(b *testing.B) {
	m := benchGossipMessage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode measures the serialize side alone.
func BenchmarkEncode(b *testing.B) {
	m := benchGossipMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeBufferPoolReuse pins the encoder pool: a steady-state Encode
// or NewFrame of the 64-row gossip message allocates its output slice and
// nothing else, because the scratch buffers, key slice and string table
// come back from binEncPool. Without the pool a call allocates 28 objects.
func TestEncodeBufferPoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	const budget = 1 // measured at fe2e1f0: 1 for Encode, 1 for NewFrame
	m := benchGossipMessage()
	for name, encode := range map[string]func() error{
		"Encode":   func() error { _, err := Encode(m); return err },
		"NewFrame": func() error { _, err := NewFrame(m, "hub:1"); return err },
	} {
		if err := encode(); err != nil { // warm the pool
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = encode() }); n > budget {
			t.Errorf("%s allocates %.0f objects, budget %d", name, n, budget)
		}
	}
}
