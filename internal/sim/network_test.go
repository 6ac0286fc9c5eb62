package sim

import (
	"testing"
	"time"

	"newswire/internal/wire"
)

func gossipMsg() *wire.Message {
	return &wire.Message{Kind: wire.KindGossipDigest, GossipDigest: &wire.GossipDigest{FromZone: "/"}}
}

func newTestNet(t *testing.T, link LinkModel) (*Engine, *Network) {
	t.Helper()
	e := NewEngine(99)
	return e, NewNetwork(e, link)
}

func TestNetworkDeliversWithinLatencyBounds(t *testing.T) {
	link := LinkModel{LatencyMin: 10 * time.Millisecond, LatencyMax: 50 * time.Millisecond}
	e, n := newTestNet(t, link)

	var deliveredAt time.Time
	n.Attach("b", func(m *wire.Message) { deliveredAt = e.Now() })
	a := n.Attach("a", func(*wire.Message) {})

	start := e.Now()
	if err := a.Send("b", gossipMsg()); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle(0)
	d := deliveredAt.Sub(start)
	if d < link.LatencyMin || d > link.LatencyMax {
		t.Fatalf("delivery latency %v outside [%v, %v]", d, link.LatencyMin, link.LatencyMax)
	}
}

func TestNetworkSetsFrom(t *testing.T) {
	e, n := newTestNet(t, LinkModel{})
	var got string
	n.Attach("b", func(m *wire.Message) { got = m.From })
	a := n.Attach("a", nil)
	if err := a.Send("b", gossipMsg()); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle(0)
	if got != "a" {
		t.Fatalf("From = %q, want a", got)
	}
}

func TestNetworkRejectsInvalidMessage(t *testing.T) {
	_, n := newTestNet(t, LinkModel{})
	a := n.Attach("a", nil)
	if err := a.Send("b", &wire.Message{Kind: wire.KindGossipDigest}); err == nil {
		t.Fatal("invalid message should be rejected")
	}
}

func TestNetworkSendToUnknownDrops(t *testing.T) {
	e, n := newTestNet(t, LinkModel{})
	a := n.Attach("a", nil)
	if err := a.Send("ghost", gossipMsg()); err != nil {
		t.Fatalf("send to unknown should not error locally: %v", err)
	}
	e.RunUntilIdle(0)
	sent, delivered, dropped := n.Totals()
	if sent != 1 || delivered != 0 || dropped != 1 {
		t.Fatalf("totals = %d/%d/%d, want 1/0/1", sent, delivered, dropped)
	}
}

func TestNetworkLoss(t *testing.T) {
	e, n := newTestNet(t, LinkModel{LossRate: 0.5})
	received := 0
	n.Attach("b", func(*wire.Message) { received++ })
	a := n.Attach("a", nil)
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send("b", gossipMsg()); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntilIdle(0)
	if received < total/3 || received > 2*total/3 {
		t.Fatalf("received %d of %d with 50%% loss", received, total)
	}
}

func TestNetworkCrashStopsDelivery(t *testing.T) {
	e, n := newTestNet(t, LinkModel{LatencyMin: time.Millisecond, LatencyMax: 2 * time.Millisecond})
	received := 0
	n.Attach("b", func(*wire.Message) { received++ })
	a := n.Attach("a", nil)

	n.Crash("b")
	if !n.Crashed("b") {
		t.Fatal("Crashed not reported")
	}
	a.Send("b", gossipMsg())
	e.RunUntilIdle(0)
	if received != 0 {
		t.Fatal("crashed node received a message")
	}

	n.Restore("b")
	a.Send("b", gossipMsg())
	e.RunUntilIdle(0)
	if received != 1 {
		t.Fatalf("restored node received %d messages, want 1", received)
	}
}

func TestNetworkCrashDropsInFlight(t *testing.T) {
	e, n := newTestNet(t, LinkModel{LatencyMin: 100 * time.Millisecond, LatencyMax: 100 * time.Millisecond})
	received := 0
	n.Attach("b", func(*wire.Message) { received++ })
	a := n.Attach("a", nil)

	a.Send("b", gossipMsg())
	// Crash b while the message is in flight.
	e.After(10*time.Millisecond, func() { n.Crash("b") })
	e.RunUntilIdle(0)
	if received != 0 {
		t.Fatal("in-flight message delivered to crashed node")
	}
}

func TestNetworkCrashedSenderDrops(t *testing.T) {
	e, n := newTestNet(t, LinkModel{})
	received := 0
	n.Attach("b", func(*wire.Message) { received++ })
	a := n.Attach("a", nil)
	n.Crash("a")
	a.Send("b", gossipMsg())
	e.RunUntilIdle(0)
	if received != 0 {
		t.Fatal("crashed sender's message was delivered")
	}
}

func TestNetworkBlockUnblock(t *testing.T) {
	e, n := newTestNet(t, LinkModel{})
	received := 0
	n.Attach("b", func(*wire.Message) { received++ })
	a := n.Attach("a", nil)

	n.Block("a", "b")
	a.Send("b", gossipMsg())
	e.RunUntilIdle(0)
	if received != 0 {
		t.Fatal("blocked link delivered")
	}
	n.Unblock("a", "b")
	a.Send("b", gossipMsg())
	e.RunUntilIdle(0)
	if received != 1 {
		t.Fatalf("unblocked link delivered %d, want 1", received)
	}
}

func TestNetworkPartitionAndHeal(t *testing.T) {
	e, n := newTestNet(t, LinkModel{})
	got := map[string]int{}
	for _, addr := range []string{"a1", "a2", "b1"} {
		addr := addr
		n.Attach(addr, func(*wire.Message) { got[addr]++ })
	}
	a1 := n.Attach("a1", func(*wire.Message) { got["a1"]++ })

	n.Partition([]string{"a1", "a2"}, []string{"b1"})
	a1.Send("b1", gossipMsg())
	a1.Send("a2", gossipMsg())
	e.RunUntilIdle(0)
	if got["b1"] != 0 {
		t.Fatal("partitioned link delivered")
	}
	if got["a2"] != 1 {
		t.Fatal("intra-partition link should work")
	}

	n.Heal([]string{"a1", "a2"}, []string{"b1"})
	a1.Send("b1", gossipMsg())
	e.RunUntilIdle(0)
	if got["b1"] != 1 {
		t.Fatal("healed link did not deliver")
	}
}

func TestNetworkStats(t *testing.T) {
	e, n := newTestNet(t, LinkModel{})
	n.Attach("b", func(*wire.Message) {})
	a := n.Attach("a", nil)
	a.Send("b", gossipMsg())
	a.Send("b", gossipMsg())
	e.RunUntilIdle(0)

	as, bs := n.Stats("a"), n.Stats("b")
	if as.MsgsSent != 2 || as.BytesSent <= 0 {
		t.Fatalf("sender stats = %+v", as)
	}
	if bs.MsgsReceived != 2 || bs.BytesReceived != as.BytesSent {
		t.Fatalf("receiver stats = %+v (sender sent %d bytes)", bs, as.BytesSent)
	}
	if unknown := n.Stats("nope"); unknown != (EndpointStats{}) {
		t.Fatalf("unknown endpoint stats = %+v", unknown)
	}
}

// TestNetworkSentByKind: the per-kind ledger splits the sent totals, counts
// a message whether or not the link drops it, and adds up to them.
func TestNetworkSentByKind(t *testing.T) {
	e, n := newTestNet(t, LinkModel{})
	n.Attach("b", func(*wire.Message) {})
	a := n.Attach("a", nil)
	ack := &wire.Message{Kind: wire.KindMulticastAck, MulticastAck: &wire.MulticastAck{Seq: 1, Key: "p/i#0"}}
	gsp := gossipMsg()
	a.Send("b", gsp)
	a.Send("b", ack)
	a.Send("nowhere", ack)
	e.RunUntilIdle(0)

	// Sizes are read after Send stamped the sender address.
	gossip, acks := n.SentByKind(wire.KindGossipDigest), n.SentByKind(wire.KindMulticastAck)
	if gossip.Msgs != 1 || gossip.Bytes != int64(gsp.EstimateSize()) {
		t.Fatalf("gossip ledger = %+v", gossip)
	}
	if acks.Msgs != 2 || acks.Bytes != 2*int64(ack.EstimateSize()) {
		t.Fatalf("ack ledger = %+v", acks)
	}
	sent, _, _ := n.Totals()
	bytesSent, _ := n.BytesTotals()
	if gossip.Msgs+acks.Msgs != sent || gossip.Bytes+acks.Bytes != bytesSent {
		t.Fatalf("ledger %+v + %+v does not add up to totals %d msgs / %d bytes", gossip, acks, sent, bytesSent)
	}
	if other := n.SentByKind(wire.KindStateReply); other != (KindStats{}) {
		t.Fatalf("unused kind ledger = %+v", other)
	}
	if bogus := n.SentByKind(wire.Kind(200)); bogus != (KindStats{}) {
		t.Fatalf("out-of-range kind ledger = %+v", bogus)
	}
}

func TestEndpointClose(t *testing.T) {
	_, n := newTestNet(t, LinkModel{})
	a := n.Attach("a", nil)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", gossipMsg()); err == nil {
		t.Fatal("send on closed endpoint should fail")
	}
}

func TestNetworkReattachReplacesEndpoint(t *testing.T) {
	e, n := newTestNet(t, LinkModel{})
	firstGot, secondGot := 0, 0
	n.Attach("b", func(*wire.Message) { firstGot++ })
	n.Attach("b", func(*wire.Message) { secondGot++ }) // restart
	a := n.Attach("a", nil)
	a.Send("b", gossipMsg())
	e.RunUntilIdle(0)
	if firstGot != 0 || secondGot != 1 {
		t.Fatalf("delivery went to old endpoint: first=%d second=%d", firstGot, secondGot)
	}
}

func TestCrashAfterDropsMessagesInFlight(t *testing.T) {
	link := LinkModel{LatencyMin: 20 * time.Millisecond, LatencyMax: 20 * time.Millisecond}
	e, n := newTestNet(t, link)
	got := 0
	n.Attach("b", func(*wire.Message) { got++ })
	a := n.Attach("a", nil)

	// b crashes 10ms from now; a message sent now (20ms latency) must be
	// lost even though b was alive at transmission time.
	n.CrashAfter("b", 10*time.Millisecond)
	a.Send("b", gossipMsg())
	e.RunUntilIdle(0)
	if got != 0 {
		t.Fatalf("message delivered to a node that crashed mid-flight (got=%d)", got)
	}
	if !n.Crashed("b") {
		t.Fatal("CrashAfter never crashed b")
	}
}

func TestPartitionOneWay(t *testing.T) {
	e, n := newTestNet(t, LinkModel{})
	aGot, bGot := 0, 0
	a := n.Attach("a", func(*wire.Message) { aGot++ })
	b := n.Attach("b", func(*wire.Message) { bGot++ })

	n.PartitionOneWay([]string{"a"}, []string{"b"})
	a.Send("b", gossipMsg()) // blocked direction
	b.Send("a", gossipMsg()) // open direction
	e.RunUntilIdle(0)
	if bGot != 0 {
		t.Fatalf("a->b delivered through one-way partition (bGot=%d)", bGot)
	}
	if aGot != 1 {
		t.Fatalf("b->a should be unaffected (aGot=%d)", aGot)
	}

	n.HealOneWay([]string{"a"}, []string{"b"})
	a.Send("b", gossipMsg())
	e.RunUntilIdle(0)
	if bGot != 1 {
		t.Fatalf("a->b still blocked after HealOneWay (bGot=%d)", bGot)
	}
}

func TestSetLinkLossOverride(t *testing.T) {
	// Model default is lossless; force 100% loss on one direction only.
	e, n := newTestNet(t, LinkModel{})
	aGot, bGot := 0, 0
	a := n.Attach("a", func(*wire.Message) { aGot++ })
	b := n.Attach("b", func(*wire.Message) { bGot++ })

	n.SetLinkLoss("a", "b", 1.0)
	for i := 0; i < 10; i++ {
		a.Send("b", gossipMsg())
		b.Send("a", gossipMsg())
	}
	e.RunUntilIdle(0)
	if bGot != 0 {
		t.Fatalf("a->b should lose everything at rate 1.0 (bGot=%d)", bGot)
	}
	if aGot != 10 {
		t.Fatalf("b->a should be lossless (aGot=%d)", aGot)
	}

	// Override can also make a lossy model reliable.
	e2, n2 := newTestNet(t, LinkModel{LossRate: 1.0})
	got := 0
	n2.Attach("d", func(*wire.Message) { got++ })
	c := n2.Attach("c", nil)
	n2.SetLinkLoss("c", "d", 0)
	c.Send("d", gossipMsg())
	n2.ClearLinkLoss("c", "d")
	c.Send("d", gossipMsg())
	e2.RunUntilIdle(0)
	if got != 1 {
		t.Fatalf("loss override/clear sequence delivered %d, want 1", got)
	}
}
