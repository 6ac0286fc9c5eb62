package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"newswire/internal/value"
	"newswire/internal/wire"
)

func gossipMsg(zone string) *wire.Message {
	return &wire.Message{Kind: wire.KindGossipDigest, GossipDigest: &wire.GossipDigest{FromZone: zone}}
}

// collector gathers delivered messages for assertions.
type collector struct {
	mu   sync.Mutex
	msgs []*wire.Message
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 64)}
}

func (c *collector) handle(m *wire.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) waitFor(t *testing.T, n int) []*wire.Message {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := make([]*wire.Message, len(c.msgs))
			copy(out, c.msgs)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages", n)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	col := newCollector()
	b, err := ListenTCP("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Send(b.Addr(), gossipMsg("/usa")); err != nil {
		t.Fatal(err)
	}
	msgs := col.waitFor(t, 1)
	if msgs[0].GossipDigest.FromZone != "/usa" {
		t.Fatalf("payload = %+v", msgs[0].GossipDigest)
	}
	if msgs[0].From != a.Addr() {
		t.Fatalf("From = %q, want %q", msgs[0].From, a.Addr())
	}
}

func TestTCPMultipleMessagesOneConnection(t *testing.T) {
	col := newCollector()
	b, err := ListenTCP("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const n = 20
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), gossipMsg("/z")); err != nil {
			t.Fatal(err)
		}
	}
	msgs := col.waitFor(t, n)
	if len(msgs) < n {
		t.Fatalf("got %d messages, want %d", len(msgs), n)
	}
}

func TestTCPBidirectional(t *testing.T) {
	colA, colB := newCollector(), newCollector()
	a, err := ListenTCP("127.0.0.1:0", colA.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", colB.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(b.Addr(), gossipMsg("/a-to-b")); err != nil {
		t.Fatal(err)
	}
	colB.waitFor(t, 1)
	if err := b.Send(a.Addr(), gossipMsg("/b-to-a")); err != nil {
		t.Fatal(err)
	}
	msgs := colA.waitFor(t, 1)
	if msgs[0].GossipDigest.FromZone != "/b-to-a" {
		t.Fatalf("wrong direction: %+v", msgs[0].GossipDigest)
	}
}

func TestTCPSendInvalidMessage(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("127.0.0.1:1", &wire.Message{Kind: wire.KindGossipDigest}); err == nil {
		t.Fatal("invalid message should be rejected before dialing")
	}
}

func TestTCPSendToDeadPeerFails(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// A port that is almost certainly closed.
	if err := a.Send("127.0.0.1:1", gossipMsg("/x")); err == nil {
		t.Fatal("send to dead peer should fail")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), gossipMsg("/x")); err == nil {
		t.Fatal("send on closed transport should fail")
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	col := newCollector()
	b, err := ListenTCP("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	bAddr := b.Addr()

	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Send(bAddr, gossipMsg("/one")); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1)

	// Restart b on the same address.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := ListenTCP(bAddr, col.handle)
	if err != nil {
		t.Skipf("could not rebind %s immediately: %v", bAddr, err)
	}
	defer b2.Close()

	// First send may hit the stale connection; Send retries internally.
	// The kernel may accept a write on a half-dead socket, so allow one
	// more attempt.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(bAddr, gossipMsg("/two")); err == nil {
			col.mu.Lock()
			n := len(col.msgs)
			col.mu.Unlock()
			if n >= 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("never delivered after peer restart")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestTCPLargeMessage(t *testing.T) {
	col := newCollector()
	b, err := ListenTCP("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	payload := make([]byte, 1<<20) // 1 MiB item
	for i := range payload {
		payload[i] = byte(i)
	}
	msg := &wire.Message{
		Kind: wire.KindMulticast,
		Multicast: &wire.Multicast{
			TargetZone: "/",
			Envelope:   wire.ItemEnvelope{Publisher: "p", ItemID: "big", Payload: payload},
		},
	}
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	msgs := col.waitFor(t, 1)
	if len(msgs[0].Multicast.Envelope.Payload) != len(payload) {
		t.Fatalf("payload truncated: %d bytes", len(msgs[0].Multicast.Envelope.Payload))
	}
}

func TestTCPRejectsOversizedMessage(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	huge := &wire.Message{
		Kind: wire.KindMulticast,
		Multicast: &wire.Multicast{
			TargetZone: "/",
			Envelope:   wire.ItemEnvelope{Publisher: "p", ItemID: "x", Payload: make([]byte, 17<<20)},
		},
	}
	if err := a.Send(b.Addr(), huge); err == nil {
		t.Fatal("17 MiB message accepted past the frame limit")
	}
}

func TestTCPCloseWhilePeerHoldsConnection(t *testing.T) {
	// Regression for the shutdown deadlock: Close must terminate read
	// goroutines on inbound connections whose peers are still up.
	col := newCollector()
	b, err := ListenTCP("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Send(b.Addr(), gossipMsg("/x")); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1)

	// b has an inbound connection from a, which stays open. Close must
	// not hang.
	done := make(chan struct{})
	go func() {
		b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on an open inbound connection")
	}
}

// TestTCPAckRoundTrip drives a reliable-forwarding exchange over real
// TCP: a multicast with AckSeq set goes a -> b, and b acks by dialing
// the From address the transport stamped on the inbound message.
func TestTCPAckRoundTrip(t *testing.T) {
	ackCol := newCollector()
	a, err := ListenTCP("127.0.0.1:0", ackCol.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var b Transport
	b, err = ListenTCP("127.0.0.1:0", func(m *wire.Message) {
		if m.Kind != wire.KindMulticast || m.Multicast.AckSeq == 0 {
			return
		}
		// Echo seq/key/zone back to the sender, as the router does.
		_ = b.Send(m.From, &wire.Message{
			Kind: wire.KindMulticastAck,
			MulticastAck: &wire.MulticastAck{
				Seq:        m.Multicast.AckSeq,
				Key:        m.Multicast.Envelope.Key(),
				TargetZone: m.Multicast.TargetZone,
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	env := wire.ItemEnvelope{Publisher: "reuters", ItemID: "ack-rt"}
	if err := a.Send(b.Addr(), &wire.Message{
		Kind: wire.KindMulticast,
		Multicast: &wire.Multicast{
			TargetZone: "/usa",
			AckSeq:     42,
			Envelope:   env,
		},
	}); err != nil {
		t.Fatal(err)
	}

	msgs := ackCol.waitFor(t, 1)
	ack := msgs[0]
	if ack.Kind != wire.KindMulticastAck || ack.MulticastAck == nil {
		t.Fatalf("got %v, want a multicast-ack", ack.Kind)
	}
	if ack.MulticastAck.Seq != 42 {
		t.Errorf("ack seq = %d, want 42", ack.MulticastAck.Seq)
	}
	if ack.MulticastAck.Key != env.Key() {
		t.Errorf("ack key = %q, want %q", ack.MulticastAck.Key, env.Key())
	}
	if ack.MulticastAck.TargetZone != "/usa" {
		t.Errorf("ack zone = %q, want /usa", ack.MulticastAck.TargetZone)
	}
	if ack.From != b.Addr() {
		t.Errorf("ack From = %q, want %q", ack.From, b.Addr())
	}
}

// allKindMessages builds one valid message of every wire kind, the gossip
// delta in three shapes: rows only, stamps and a named section, and rows
// with wants.
func allKindMessages() []*wire.Message {
	issued := time.Unix(1017619200, 0).UTC()
	return []*wire.Message{
		{Kind: wire.KindGossipDelta, GossipDelta: &wire.GossipDelta{
			FromZone: "/usa/ny",
			Rows: []wire.RowUpdate{{
				Zone: "/usa/ny", Name: "node-1",
				Attrs:  value.Map{"load": value.Float(0.3), "subs": value.Bytes(make([]byte, 128))},
				Issued: issued, Owner: "node-1:9000",
			}},
		}},
		{Kind: wire.KindGossipDelta, GossipDelta: &wire.GossipDelta{
			FromZone: "/usa/ny",
			Stamps: []wire.ZoneStamps{{
				Depth: 0, Hash: 7, Newest: issued, Rows: []wire.RowStamp{{Pos: 1, Lag: time.Second}},
			}},
			Sections: []wire.ZoneSection{{
				Depth: 1, Hash: 9, Newest: issued, Lags: []time.Duration{0},
				Named: []wire.RowSummary{{Name: "node-2", Hash: 11}},
			}},
		}},
		{Kind: wire.KindGossipDigest, GossipDigest: &wire.GossipDigest{
			FromZone: "/usa/ny",
			Sections: []wire.ZoneSection{
				{Depth: 2, Hash: 0xdeadbeef, Newest: issued, Lags: []time.Duration{0, time.Second}},
			},
		}},
		{Kind: wire.KindGossipDelta, GossipDelta: &wire.GossipDelta{
			FromZone: "/usa/ny",
			Rows: []wire.RowUpdate{{
				Zone: "/usa/ny", Name: "node-3",
				Attrs:  value.Map{"load": value.Float(0.1)},
				Issued: issued, Owner: "node-3:9000",
			}},
			Want: []wire.RowRef{{Zone: "/", Name: "asia"}},
		}},
		{Kind: wire.KindMulticast, Multicast: &wire.Multicast{
			TargetZone: "/asia", Hops: 2, Deliver: true, AckSeq: 7,
			Envelope: wire.ItemEnvelope{
				Publisher: "reuters", ItemID: "item-42", Revision: 1,
				Subjects: []string{"world/asia"}, SubjectBits: []uint32{17, 403},
				ScopeZone: "/asia", Predicate: "premium", Published: issued,
				Payload: []byte("<nitf/>"), Signer: "reuters", Sig: []byte{9, 9},
			},
		}},
		{Kind: wire.KindMulticastAck, MulticastAck: &wire.MulticastAck{
			Seq: 7, Key: "reuters/item-42#1", TargetZone: "/asia",
		}},
		{Kind: wire.KindStateRequest, StateRequest: &wire.StateRequest{
			Since: issued, Subjects: []string{"tech/linux"}, MaxItems: 64,
		}},
		{Kind: wire.KindStateReply, StateReply: &wire.StateReply{
			Envelopes: []wire.ItemEnvelope{{
				Publisher: "ap", ItemID: "it-1", Subjects: []string{"tech"},
				Published: issued, Payload: []byte("body"),
			}},
			Truncated: true,
		}},
	}
}

// TestTCPAllKindsBothCodecs pushes one message of every kind through a
// real TCP connection and checks the payloads survive. The test and its
// "binary" subtest keep the names they had while a second codec existed.
func TestTCPAllKindsBothCodecs(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		col := newCollector()
		b, err := ListenTCP("127.0.0.1:0", col.handle)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		a, err := ListenTCP("127.0.0.1:0", func(*wire.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()

		sent := allKindMessages()
		for _, m := range sent {
			if err := a.Send(b.Addr(), m); err != nil {
				t.Fatalf("send %v: %v", m.Kind, err)
			}
		}
		got := col.waitFor(t, len(sent))
		for i, m := range got {
			if m.Kind != sent[i].Kind {
				t.Fatalf("message %d arrived as %v, want %v", i, m.Kind, sent[i].Kind)
			}
		}
		// Spot-check deep payload fields survived the round trip.
		if rows := got[0].GossipDelta.Rows; len(rows) != 1 ||
			!rows[0].Attrs.Equal(sent[0].GossipDelta.Rows[0].Attrs) {
			t.Fatalf("gossip row attrs corrupted: %+v", rows)
		}
		if g := got[1].GossipDelta; len(g.Stamps) != 1 || g.Stamps[0].Rows[0].Lag != time.Second ||
			len(g.Sections) != 1 || g.Sections[0].Named[0].Name != "node-2" {
			t.Fatalf("delta stamps or section corrupted: %+v", g)
		}
		if d := got[2].GossipDigest.Sections[0]; d.Hash != 0xdeadbeef || len(d.Lags) != 2 {
			t.Fatalf("digest section = %+v", d)
		}
		if w := got[3].GossipDelta.Want; len(w) != 1 || w[0].Name != "asia" {
			t.Fatalf("delta want corrupted: %+v", w)
		}
		env := got[4].Multicast.Envelope
		if env.Key() != "reuters/item-42#1" || string(env.Payload) != "<nitf/>" {
			t.Fatalf("multicast envelope corrupted: %+v", env)
		}
		if got[5].MulticastAck.Seq != 7 {
			t.Fatalf("ack seq = %d", got[5].MulticastAck.Seq)
		}
		if got[6].StateRequest.MaxItems != 64 {
			t.Fatalf("state request corrupted: %+v", got[6].StateRequest)
		}
		sr := got[7].StateReply
		if !sr.Truncated || len(sr.Envelopes) != 1 || sr.Envelopes[0].ItemID != "it-1" {
			t.Fatalf("state reply corrupted: %+v", sr)
		}
	})
}

// TestTCPMalformedInputDropsConnection writes bad frames on raw sockets:
// each must cost its sender the connection — before the well-formed frame
// queued behind it is dispatched — and nothing else. The listener keeps
// serving the next connection.
func TestTCPMalformedInputDropsConnection(t *testing.T) {
	col := newCollector()
	srv, err := ListenTCP("127.0.0.1:0", col.handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	good, err := wire.NewFrame(gossipMsg("/ok"), "raw:1")
	if err != nil {
		t.Fatal(err)
	}
	notMagic := append([]byte(nil), good.Bytes()...)
	notMagic[wire.FramePrefixLen] = 0x03 // what a gob stream could open with
	truncated := good.Bytes()[:good.Len()-3]

	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"first payload byte is not the codec magic", append(notMagic, good.Bytes()...)},
		{"zero-length frame", append([]byte{0, 0, 0, 0}, good.Bytes()...)},
		{"truncated frame", truncated},
	} {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(tc.bytes); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		// End of input: the truncated frame can only be told from a slow
		// one once no more bytes can come. The error is dropped: when the
		// transport has already reset the connection, CloseWrite fails
		// with ENOTCONN, and the read below confirms the drop either way.
		_ = c.(*net.TCPConn).CloseWrite()
		// The transport never writes on an inbound connection, so the read
		// returns only when it has closed its end (EOF, or a reset if it
		// left our trailing frame unread).
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var one [1]byte
		if n, err := c.Read(one[:]); n != 0 || err == nil {
			t.Fatalf("%s: read %d bytes from a connection that should be closed", tc.name, n)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: connection still open after 5s", tc.name)
		}
		c.Close()
		col.mu.Lock()
		n := len(col.msgs)
		col.mu.Unlock()
		if n != 0 {
			t.Fatalf("%s: handler was called %d times", tc.name, n)
		}
	}

	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(good.Bytes()); err != nil {
		t.Fatal(err)
	}
	msgs := col.waitFor(t, 1)
	if len(msgs) != 1 || msgs[0].GossipDigest.FromZone != "/ok" || msgs[0].From != "raw:1" {
		t.Fatalf("well-formed connection after the bad ones delivered %+v", msgs)
	}
	if st := srv.TransportStats(); st.FramesReceived != 1 {
		t.Fatalf("FramesReceived = %d, want 1 (malformed frames are not counted)", st.FramesReceived)
	}
}
