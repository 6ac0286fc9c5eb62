package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"newswire/internal/news"
	"newswire/internal/pubsub"
	"newswire/internal/sim"
	"newswire/internal/vtime"
	"newswire/internal/wire"
)

// statePeer is a node on a lossless simulated link that records the state
// transfer messages it receives before handling them.
type statePeer struct {
	*Node
	requests []*wire.StateRequest
	replies  []*wire.StateReply
	items    []string // IDs handed to the application
}

// newStatePair returns two nodes subscribed to tech/linux that can reach
// each other by address. They do not gossip: the tests drive state
// transfers directly.
func newStatePair(t *testing.T) (*sim.Engine, *statePeer, *statePeer) {
	t.Helper()
	eng := sim.NewEngine(5)
	net := sim.NewNetwork(eng, sim.LinkModel{LatencyMin: time.Millisecond, LatencyMax: 2 * time.Millisecond})
	build := func(name string) *statePeer {
		p := &statePeer{}
		ep := net.Attach(name, func(m *wire.Message) {
			switch m.Kind {
			case wire.KindStateRequest:
				p.requests = append(p.requests, m.StateRequest)
			case wire.KindStateReply:
				p.replies = append(p.replies, m.StateReply)
			}
			p.HandleMessage(m)
		})
		n, err := NewNode(Config{
			Name: name, ZonePath: "/z", Transport: ep,
			Clock: eng.Clock(), Rand: newTestRand(3),
			OnItem: func(it *news.Item, _ *wire.ItemEnvelope) { p.items = append(p.items, it.ID) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Subscribe("tech/linux"); err != nil {
			t.Fatal(err)
		}
		p.Node = n
		return p
	}
	return eng, build("a"), build("b")
}

// stateEnv is item k of the tests' series, published k seconds after the
// epoch.
func stateEnv(t *testing.T, k int) wire.ItemEnvelope {
	t.Helper()
	it := testItem(fmt.Sprintf("st-%02d", k), "tech/linux")
	it.Published = vtime.Epoch.Add(time.Duration(k) * time.Second)
	env, err := pubsub.EncodeItem(it, pubsub.ModeBloom, pubsub.DefaultGeometry, nil)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestStateTransferCaughtUpPairExchangesNoEnvelopes(t *testing.T) {
	eng, a, b := newStatePair(t)
	const n = 20
	for k := 0; k < n; k++ {
		env := stateEnv(t, k)
		a.ingest(&env)
		b.ingest(&env)
	}
	before := a.Cache().Stats()
	for i := 0; i < 2; i++ {
		if err := a.RequestStateTransfer(b.Addr(), time.Time{}, 0); err != nil {
			t.Fatal(err)
		}
		eng.RunUntilIdle(0)
	}
	if len(b.requests) != 2 || len(a.replies) != 2 {
		t.Fatalf("%d requests, %d replies; want 2 and 2", len(b.requests), len(a.replies))
	}
	for i, req := range b.requests {
		if len(req.Have) != n || !slices.IsSorted(req.Have) {
			t.Errorf("request %d lists %d hashes (sorted=%v), want %d sorted", i, len(req.Have), slices.IsSorted(req.Have), n)
		}
	}
	if b.requests[0].Salt == b.requests[1].Salt {
		t.Errorf("two exchanges used the same salt %x", b.requests[0].Salt)
	}
	for i, rep := range a.replies {
		if len(rep.Envelopes) != 0 || rep.Truncated {
			t.Errorf("reply %d carries %d envelopes (truncated=%v) to a caught-up node", i, len(rep.Envelopes), rep.Truncated)
		}
	}
	if after := a.Cache().Stats(); after != before {
		t.Errorf("cache stats moved on a caught-up exchange: %+v -> %+v", before, after)
	}
}

func TestStateTransferShipsExactlyTheMissingItems(t *testing.T) {
	eng, a, b := newStatePair(t)
	// b holds items 0..15; the window starts at item 4. a lacks 1 (outside
	// the window) and 5, 9, 13 (inside).
	want := []string{"st-05", "st-09", "st-13"}
	for k := 0; k < 16; k++ {
		env := stateEnv(t, k)
		b.ingest(&env)
		if k%4 != 1 {
			a.ingest(&env)
		}
	}
	a.items = nil
	before := a.Cache().Stats()
	since := vtime.Epoch.Add(4 * time.Second)
	if err := a.RequestStateTransfer(b.Addr(), since, 256); err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle(0)

	if got := len(b.requests[0].Have); got != 9 {
		t.Errorf("request lists %d hashes, want the 9 windowed items a holds", got)
	}
	if len(a.replies) != 1 || len(a.replies[0].Envelopes) != len(want) {
		t.Fatalf("reply carries %d envelopes, want %d", len(a.replies[0].Envelopes), len(want))
	}
	if !slices.Equal(a.items, want) {
		t.Errorf("delivered %v, want %v", a.items, want)
	}
	if a.Recovered() != int64(len(want)) {
		t.Errorf("Recovered = %d, want %d", a.Recovered(), len(want))
	}
	if after := a.Cache().Stats(); after.Duplicates != before.Duplicates {
		t.Errorf("the transfer re-sent %d envelopes a already held", after.Duplicates-before.Duplicates)
	}
}

// TestStateTransferCollisionHidesAnItemForOneExchange forces what a hash
// collision would do — the request lists the hash of an item the requester
// lacks — and checks the damage ends with that exchange.
func TestStateTransferCollisionHidesAnItemForOneExchange(t *testing.T) {
	eng, a, b := newStatePair(t)
	for k := 0; k < 8; k++ {
		env := stateEnv(t, k)
		b.ingest(&env)
		if k != 6 {
			a.ingest(&env)
		}
	}
	a.items = nil
	hidden := stateEnv(t, 6)

	const salt = 0x600d5a17
	have := append(a.Cache().Have(time.Time{}, salt), wire.ItemHash(salt, hidden.Key()))
	slices.Sort(have)
	err := a.cfg.Transport.Send(b.Addr(), &wire.Message{
		Kind:         wire.KindStateRequest,
		StateRequest: &wire.StateRequest{Salt: salt, Have: have},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle(0)
	if len(a.replies) != 1 || len(a.replies[0].Envelopes) != 0 || len(a.items) != 0 {
		t.Fatalf("colliding summary: %d replies, delivered %v; want one empty reply", len(a.replies), a.items)
	}

	// The node's own next exchange hashes under a salt of its choosing.
	if err := a.RequestStateTransfer(b.Addr(), time.Time{}, 0); err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle(0)
	if got := b.requests[1].Salt; got == salt {
		t.Fatalf("the next exchange reused salt %x", got)
	}
	if !slices.Equal(a.items, []string{"st-06"}) {
		t.Fatalf("after the next exchange delivered %v, want [st-06]", a.items)
	}
}

// TestStateRequestSummaryFromOutside: a summary is outside input. Out of
// order and with repeats it is still honoured, the shared message is not
// written to, and no list makes the reply larger than no list.
func TestStateRequestSummaryFromOutside(t *testing.T) {
	eng, a, b := newStatePair(t)
	const n = 10
	for k := 0; k < n; k++ {
		env := stateEnv(t, k)
		b.ingest(&env)
	}
	send := func(have []uint64) *wire.StateReply {
		t.Helper()
		a.replies = nil
		err := a.cfg.Transport.Send(b.Addr(), &wire.Message{
			Kind:         wire.KindStateRequest,
			StateRequest: &wire.StateRequest{Salt: 9, Have: have},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntilIdle(0)
		if len(a.replies) != 1 {
			t.Fatalf("%d replies, want 1", len(a.replies))
		}
		return a.replies[0]
	}

	all := b.Cache().Have(time.Time{}, 9)
	messy := slices.Clone(all)
	slices.Reverse(messy)
	messy = append(messy, messy[0], messy[0], messy[3])
	sent := slices.Clone(messy)
	if rep := send(messy); len(rep.Envelopes) != 0 {
		t.Errorf("unsorted, repeated summary of everything: reply carries %d envelopes, want 0", len(rep.Envelopes))
	}
	if !slices.Equal(messy, sent) {
		t.Error("the responder reordered the request's summary in place")
	}
	if rep := send([]uint64{1, 2, 3, 3, 0}); len(rep.Envelopes) != n {
		t.Errorf("summary of unknown hashes: reply carries %d envelopes, want all %d", len(rep.Envelopes), n)
	}
	if rep := send(nil); len(rep.Envelopes) != n {
		t.Errorf("no summary: reply carries %d envelopes, want all %d", len(rep.Envelopes), n)
	}
}

// TestResyncMakesProgressPastTruncation: a peer holding more missing items
// than maxItems answers with the oldest maxItems. Each Resync lists what
// has arrived, so the next one fetches the next batch; three calls recover
// 3×maxItems items from the one peer there is.
func TestResyncMakesProgressPastTruncation(t *testing.T) {
	const max = 3
	c, err := NewCluster(ClusterConfig{
		N: 2, Branching: 2, Seed: 19,
		Link: sim.LinkModel{LatencyMin: 5 * time.Millisecond, LatencyMax: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if err := n.Subscribe("tech/linux"); err != nil {
			t.Fatal(err)
		}
	}
	c.RunRounds(4)
	c.Net.Crash(c.Nodes[1].Addr())
	for k := 0; k < 3*max; k++ {
		it := testItem(fmt.Sprintf("trunc-%d", k), "tech/linux")
		it.Published = c.Eng.Now()
		if err := c.Nodes[0].PublishItem(it, "", ""); err != nil {
			t.Fatal(err)
		}
		c.RunFor(100 * time.Millisecond)
	}
	c.Net.Restore(c.Nodes[1].Addr())
	c.RunRounds(2)
	if got := c.Nodes[1].Delivered(); got != 0 {
		t.Fatalf("crashed node delivered %d items", got)
	}
	for call := 1; call <= 3; call++ {
		if err := c.Nodes[1].Resync(max); err != nil {
			t.Fatal(err)
		}
		c.RunFor(time.Second)
		if got, want := c.Nodes[1].Delivered(), int64(call*max); got != want {
			t.Fatalf("after Resync call %d the node holds %d items, want %d", call, got, want)
		}
	}
}

// TestEvictedItemIsNotDeliveredAgain holds a node to one delivery per item
// after the cache evicted the item's envelope: the item table keeps the
// key's stored mark for its 8,192-key window, longer than the 1,024
// envelopes it holds, so a copy that comes back — in a state reply, or as
// a tree deliver copy the router has not handed before — is a duplicate.
func TestEvictedItemIsNotDeliveredAgain(t *testing.T) {
	const n = 1100 // past the cache's 1,024 envelopes
	fill := func(t *testing.T) (*sim.Engine, *statePeer, *statePeer) {
		eng, a, b := newStatePair(t)
		for k := 0; k < n; k++ {
			env := stateEnv(t, k)
			a.ingest(&env)
			if k < 100 {
				b.ingest(&env)
			}
		}
		if got := a.Cache().Len(); got != 1024 {
			t.Fatalf("a caches %d envelopes, want 1024", got)
		}
		return eng, a, b
	}
	check := func(t *testing.T, a *statePeer) {
		t.Helper()
		if got := a.Delivered(); got != n {
			t.Errorf("Delivered = %d, want %d", got, n)
		}
		if got := len(a.items); got != n {
			t.Errorf("OnItem ran %d times, want %d", got, n)
		}
		if got := a.Recovered(); got != 0 {
			t.Errorf("Recovered = %d, want 0", got)
		}
	}

	t.Run("state reply", func(t *testing.T) {
		eng, a, b := fill(t)
		if err := a.RequestStateTransfer(b.Addr(), time.Time{}, 0); err != nil {
			t.Fatal(err)
		}
		eng.RunUntilIdle(0)
		if len(a.replies) != 1 || len(a.replies[0].Envelopes) == 0 {
			t.Fatal("b sent no evicted item back; the case tests nothing")
		}
		check(t, a)
	})

	t.Run("tree deliver copy", func(t *testing.T) {
		eng, a, b := fill(t)
		env := stateEnv(t, 0)
		msg := &wire.Message{Kind: wire.KindMulticast, Multicast: &wire.Multicast{
			TargetZone: a.ZonePath(), Hops: 1, Deliver: true, Envelope: env,
		}}
		if err := b.cfg.Transport.Send(a.Addr(), msg); err != nil {
			t.Fatal(err)
		}
		eng.RunUntilIdle(0)
		if got := a.Router().Stats().Delivered; got != 1 {
			t.Fatalf("router handed %d copies to the node, want 1", got)
		}
		check(t, a)
	})
}

// TestStateRequestKeepsItsSubjects: a request shares the subscriber's
// subject list rather than copying it, so a Subscribe or Unsubscribe
// after the request was built — while the simulated network still holds
// it — must replace the list, not write into it.
func TestStateRequestKeepsItsSubjects(t *testing.T) {
	_, a, _ := newStatePair(t)
	if err := a.Subscribe("tech/apple"); err != nil {
		t.Fatal(err)
	}
	req := a.stateRequest(time.Time{}, 0)
	want := []string{"tech/apple", "tech/linux"}
	if !slices.Equal(req.Subjects, want) {
		t.Fatalf("request subjects %v, want %v", req.Subjects, want)
	}
	if err := a.Subscribe("tech/amiga", "tech/zx"); err != nil {
		t.Fatal(err)
	}
	a.Unsubscribe("tech/apple")
	if !slices.Equal(req.Subjects, want) {
		t.Fatalf("a later Subscribe changed a built request's subjects to %v", req.Subjects)
	}
	got := a.Subjects()
	if !slices.Equal(got, []string{"tech/amiga", "tech/linux", "tech/zx"}) {
		t.Fatalf("Subjects = %v", got)
	}
	got[0] = "overwritten"
	if a.sub.Subjects()[0] != "tech/amiga" {
		t.Fatal("writing the slice Node.Subjects returned changed the subscription set")
	}
}
